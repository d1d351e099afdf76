"""Training orchestration: the four algorithms, their ledger accounting, and
the reduction relationships between them.

The runs here are deliberately tiny. The statistical claims about accuracy
gaps live in the acceptance suite; this file pins the mechanical contracts:
exact traffic accounting, determinism, and algorithm equivalences.
"""

import numpy as np
import pytest

from hfldd.datagen import LabeledDataset, concat_datasets, one_hot
from hfldd.distill import DistilledSet, KipConfig
from hfldd.errors import (
    CapacityError,
    DomainError,
    EmptyInputError,
    ShapeError,
    StageError,
)
from hfldd.fltrain import (
    ClientState,
    RunConfig,
    aggregate,
    assemble_head_dataset,
    initial_model,
    pass_steps,
    run_fedavg,
    run_fedprox,
    run_fedseq_lite,
    run_hfldd,
)
from hfldd.metrics import CostModel, cost_fedavg, cost_fedseq, cost_hfldd
from hfldd.model import MlpModel, SgdConfig, local_train
from hfldd.numkernel import SeededRng

from helpers import build_problem, models_close, models_equal, tiny_problem

TINY_KIP = KipConfig(5, 1e-6, 0.01, 50, 5, 7)


def tiny_config(algorithm, seed=7, **overrides):
    kw = dict(
        rounds=3,
        local_steps=2,
        pretrain_steps=2,
        learning_rate=0.05,
        batch_size=8,
        algorithm=algorithm,
        prox_mu=0.0,
        seed=seed,
    )
    kw.update(overrides)
    return RunConfig(**kw)


def fresh_clients(clients):
    return [ClientState(c.client_id, c.data) for c in clients]


class TestPassSteps:
    def test_hand_values(self):
        assert pass_steps(10, 3, 2) == 8  # ceil(10/3) = 4 per pass
        assert pass_steps(5, 8, 3) == 3  # batch capped at the dataset size
        assert pass_steps(7, 7, 1) == 1
        assert pass_steps(6, 2, 0) == 0

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyInputError):
            pass_steps(0, 4, 1)


class TestRunConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(rounds=0),
            dict(local_steps=0),
            dict(pretrain_steps=-1),
            dict(learning_rate=0.0),
            dict(batch_size=0),
            dict(prox_mu=-0.1),
            dict(rounds=1 << 24),  # a round index would run into the role bits
        ],
    )
    def test_validation(self, kw):
        base = dict(
            rounds=1,
            local_steps=1,
            pretrain_steps=0,
            learning_rate=0.1,
            batch_size=1,
            algorithm="fedavg",
            prox_mu=0.0,
            seed=0,
        )
        base.update(kw)
        with pytest.raises(DomainError):
            RunConfig(**base)

    def test_unknown_algorithm(self):
        with pytest.raises(DomainError):
            tiny_config("gossip")


class TestClientState:
    def test_id_bounds(self):
        d = LabeledDataset(np.ones((1, 2)), one_hot([0], 2), 2)
        with pytest.raises(DomainError):
            ClientState(-1, d)
        with pytest.raises(DomainError):
            ClientState(1 << 24, d)

    def test_duplicate_ids_rejected(self):
        clients, _, test = tiny_problem()
        clients[1] = ClientState(clients[0].client_id, clients[1].data)
        with pytest.raises(DomainError):
            run_fedavg(clients, test, tiny_config("fedavg"))


class TestAggregate:
    def test_hand_weighted_average(self):
        a = MlpModel([np.array([[0.0]])], [np.array([0.0])])
        b = MlpModel([np.array([[3.0]])], [np.array([6.0])])
        out = aggregate([a, b], [1.0, 2.0])
        assert out.weights[0][0, 0] == pytest.approx(2.0, abs=1e-15)
        assert out.biases[0][0] == pytest.approx(4.0, abs=1e-15)

    def test_weights_normalized(self):
        m = MlpModel([np.array([[1.0]])], [np.array([1.0])])
        out = aggregate([m, m], [10.0, 30.0])
        assert out.weights[0][0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_errors(self):
        m = MlpModel([np.array([[1.0]])], [np.array([1.0])])
        other = MlpModel([np.array([[1.0, 2.0]])], [np.array([1.0, 2.0])])
        with pytest.raises(EmptyInputError):
            aggregate([], [])
        with pytest.raises(DomainError):
            aggregate([m], [1.0, 2.0])
        with pytest.raises(ShapeError):
            aggregate([m, other], [1.0, 1.0])
        with pytest.raises(DomainError):
            aggregate([m, m], [1.0, -1.0])
        with pytest.raises(DomainError):
            aggregate([m, m], [0.0, 0.0])


class TestAssembleHeadDataset:
    def test_head_rows_first_then_members(self):
        head = ClientState(0, LabeledDataset(np.zeros((2, 3)), one_hot([0, 1], 2), 2))
        ds = DistilledSet(np.ones((2, 3)), one_hot([0, 1], 2), 0.0)
        out = assemble_head_dataset(head, [ds])
        assert out.n_rows() == 4
        assert np.array_equal(out.features[:2], np.zeros((2, 3)))
        assert np.array_equal(out.features[2:], np.ones((2, 3)))

    def test_dimension_checks(self):
        head = ClientState(0, LabeledDataset(np.zeros((2, 3)), one_hot([0, 1], 2), 2))
        with pytest.raises(ShapeError):
            assemble_head_dataset(head, [DistilledSet(np.ones((1, 4)), one_hot([0], 2), 0.0)])
        with pytest.raises(ShapeError):
            assemble_head_dataset(head, [DistilledSet(np.ones((1, 3)), one_hot([0], 3), 0.0)])


class TestInitialModel:
    def test_shared_across_algorithms(self):
        a = initial_model(tiny_config("fedavg"), 8, 4)
        b = initial_model(tiny_config("hfldd"), 8, 4)
        assert models_equal(a, b)

    def test_architecture_from_config(self):
        cfg = tiny_config("fedavg", hidden_sizes=(5, 6))
        assert initial_model(cfg, 8, 4).layer_sizes() == (8, 5, 6, 4)


class TestRunFedavg:
    def test_metrics_shape_and_determinism(self):
        clients, _, test = tiny_problem()
        cfg = tiny_config("fedavg")
        a = run_fedavg(fresh_clients(clients), test, cfg)
        b = run_fedavg(fresh_clients(clients), test, cfg)
        assert [m.round_index for m in a.metrics] == [1, 2, 3]
        assert models_equal(a.final_model, b.final_model)
        assert [m.accuracy for m in a.metrics] == [m.accuracy for m in b.metrics]
        assert all(np.isfinite(m.loss) for m in a.metrics)

    def test_ledger_matches_closed_form_exactly(self):
        clients, _, test = tiny_problem()
        result = run_fedavg(clients, test, tiny_config("fedavg"))
        c = CostModel(
            n_clients=len(clients),
            rounds=3,
            model_params=result.final_model.parameter_count(),
            bits_per_param=32,
        )
        assert result.ledger.total_bits() == cost_fedavg(c)

    def test_round_traffic_pattern(self):
        # round 1: uploads only; later rounds: downloads plus uploads
        clients, _, test = tiny_problem()
        result = run_fedavg(clients, test, tiny_config("fedavg"), bits_per_param=8)
        per_model = result.final_model.parameter_count() * 8
        by_round = result.ledger.bits_by_round()
        n = len(clients)
        assert by_round[1] == n * per_model
        assert by_round[2] == by_round[3] == 2 * n * per_model

    def test_cumulative_bits_monotone(self):
        clients, _, test = tiny_problem()
        result = run_fedavg(clients, test, tiny_config("fedavg"))
        bits = [m.cumulative_bits for m in result.metrics]
        assert bits == sorted(bits) and bits[0] > 0

    def test_local_work_scales_with_client_rows(self):
        # two clients, one with twice the rows: the larger one must take
        # proportionally more optimization, visible as a different update
        gen = SeededRng(3, 0).generator()
        small = LabeledDataset(gen.standard_normal((8, 4)), one_hot([0, 1] * 4, 2), 2)
        big = concat_datasets([small, small])
        cfg = tiny_config("fedavg", rounds=1, batch_size=4)
        # reproduce the aggregate from direct training with pass-derived steps
        init = initial_model(cfg, 4, 2)
        m_small = local_train(
            init, small, SgdConfig(cfg.learning_rate, 4, pass_steps(8, 4, cfg.local_steps)),
            SeededRng(cfg.seed, (6 << 48) | (1 << 24) | 0),
        )
        m_big = local_train(
            init, big, SgdConfig(cfg.learning_rate, 4, pass_steps(16, 4, cfg.local_steps)),
            SeededRng(cfg.seed, (6 << 48) | (1 << 24) | 1),
        )
        result = run_fedavg(
            [ClientState(0, small), ClientState(1, big)],
            LabeledDataset(gen.standard_normal((4, 4)), one_hot([0, 1, 0, 1], 2), 2),
            cfg,
        )
        expected = aggregate([m_small, m_big], [8, 16])
        assert models_equal(result.final_model, expected)


class TestRunFedprox:
    def test_zero_mu_identical_to_fedavg(self):
        clients, _, test = tiny_problem()
        fa = run_fedavg(fresh_clients(clients), test, tiny_config("fedavg"))
        fp = run_fedprox(fresh_clients(clients), test, tiny_config("fedprox"))
        assert models_equal(fa.final_model, fp.final_model)
        assert fa.ledger.total_bits() == fp.ledger.total_bits()

    def test_proximal_pull_shrinks_drift(self):
        clients, _, test = tiny_problem()
        cfg = dict(rounds=1, learning_rate=1e-3)
        fa = run_fedavg(fresh_clients(clients), test, tiny_config("fedavg", **cfg))
        fp = run_fedprox(
            fresh_clients(clients), test, tiny_config("fedprox", prox_mu=1000.0, **cfg)
        )
        init = initial_model(tiny_config("fedavg", **cfg), clients[0].data.dim(), 4)

        def drift(model):
            return sum(
                float(np.sum((a - b) ** 2)) for a, b in zip(model.weights, init.weights)
            )

        assert drift(fp.final_model) < drift(fa.final_model)


class TestRunFedseqLite:
    def test_singleton_clusters_match_fedavg(self):
        clients, _, test = tiny_problem()
        fa = run_fedavg(fresh_clients(clients), test, tiny_config("fedavg"))
        fs = run_fedseq_lite(
            fresh_clients(clients), test, tiny_config("fedseq"), len(clients), 1
        )
        # same local training, same weights; only the summation order of the
        # aggregation differs, so parameters agree to rounding
        assert models_close(fa.final_model, fs.final_model)
        assert [m.accuracy for m in fa.metrics] == [m.accuracy for m in fs.metrics]
        # each round every client also receives a within-cluster delivery
        p = fa.final_model.parameter_count()
        assert fs.ledger.total_bits() - fa.ledger.total_bits() == 3 * len(clients) * p * 32

    def test_ledger_matches_closed_form_exactly(self):
        clients, _, test = tiny_problem()
        result = run_fedseq_lite(clients, test, tiny_config("fedseq"), 2, 3)
        c = CostModel(
            rounds=3,
            seq_clusters=2,
            seq_cluster_size=3,
            model_params=result.final_model.parameter_count(),
            bits_per_param=32,
        )
        assert result.ledger.total_bits() == cost_fedseq(c)

    def test_round_traffic_pattern(self):
        # per cluster and round: fetch (from round 2), J deliveries, 1 upload
        clients, _, test = tiny_problem()
        result = run_fedseq_lite(clients, test, tiny_config("fedseq"), 2, 3, bits_per_param=8)
        per_model = result.final_model.parameter_count() * 8
        by_round = result.ledger.bits_by_round()
        assert by_round[1] == 2 * (1 + 3) * per_model
        assert by_round[2] == 2 * (2 + 3) * per_model

    def test_shape_constraint(self):
        clients, _, test = tiny_problem()
        with pytest.raises(CapacityError):
            run_fedseq_lite(clients, test, tiny_config("fedseq"), 4, 2)


class TestRunHfldd:
    def run_tiny(self, **overrides):
        clients, probe, test = tiny_problem()
        cfg = tiny_config("hfldd", **overrides)
        return clients, run_hfldd(clients, probe, test, cfg, TINY_KIP, 3), cfg, test

    def test_result_artifacts(self):
        clients, result, _, _ = self.run_tiny()
        topo = result.topology
        assert topo is not None
        topo.validate()
        assert sorted(i for c in topo.homogeneous for i in c) == [c.client_id for c in clients]
        assert len(result.metrics) == 3
        assert set(result.head_data) == set(topo.heads)
        # one distilled set per non-head client
        assert len(result.distilled_sizes) == len(clients) - topo.n_heads()
        assert all(s == TINY_KIP.support_size for s in result.distilled_sizes)

    def test_head_dataset_sizes(self):
        clients, result, _, _ = self.run_tiny()
        by_id = {c.client_id: c for c in clients}
        for cluster, head in zip(result.topology.heterogeneous, result.topology.heads):
            expected = by_id[head].data.n_rows() + (len(cluster) - 1) * TINY_KIP.support_size
            assert result.head_data[head].n_rows() == expected

    def test_ledger_matches_closed_form_exactly(self):
        clients, result, cfg, _ = self.run_tiny()
        c = CostModel(
            n_clients=len(clients),
            n_heads=result.topology.n_heads(),
            rounds=cfg.rounds,
            model_params=result.final_model.parameter_count(),
            probe_size=20,
            class_count=4,
            bits_per_param=32,
            bits_per_sample=clients[0].data.dim() * 64,
            distilled_sizes=result.distilled_sizes,
        )
        assert result.ledger.total_bits() == cost_hfldd(c)

    def test_training_phase_equals_fedavg_over_heads(self):
        _, result, cfg, test = self.run_tiny()
        heads = [ClientState(h, result.head_data[h]) for h in result.topology.heads]
        fa = run_fedavg(heads, test, tiny_config("fedavg"))
        assert models_equal(result.final_model, fa.final_model)
        assert [m.accuracy for m in result.metrics] == [m.accuracy for m in fa.metrics]

    def test_single_cluster_single_round_is_centralized_training(self):
        # every client alone in its own group forces one heterogeneous
        # cluster holding everyone; with one round the pipeline reduces to
        # plain training on the head's combined dataset
        clients, probe, test = tiny_problem()
        cfg = tiny_config("hfldd", rounds=1)
        result = run_hfldd(clients, probe, test, cfg, TINY_KIP, len(clients))
        assert len(result.topology.heterogeneous) == 1
        head_id = result.topology.heads[0]
        dh = result.head_data[head_id]
        sgd = SgdConfig(
            cfg.learning_rate,
            cfg.batch_size,
            pass_steps(dh.n_rows(), cfg.batch_size, cfg.local_steps),
        )
        central = local_train(
            initial_model(cfg, dh.dim(), dh.class_count),
            dh,
            sgd,
            SeededRng(cfg.seed, (6 << 48) | (1 << 24) | head_id),
        )
        assert models_equal(result.final_model, central)

    def test_inputs_not_mutated(self):
        def fields(c):
            return {
                k: (v.features.tobytes(), v.labels.tobytes(), v.class_count)
                if isinstance(v, LabeledDataset)
                else v
                for k, v in vars(c).items()
            }

        clients, probe, test = tiny_problem()
        before = [fields(c) for c in clients]
        run_hfldd(clients, probe, test, tiny_config("hfldd"), TINY_KIP, 3)
        assert [fields(c) for c in clients] == before

    def test_deterministic(self):
        _, a, _, _ = self.run_tiny()
        _, b, _, _ = self.run_tiny()
        assert models_equal(a.final_model, b.final_model)
        assert a.topology.to_json() == b.topology.to_json()
        assert a.ledger.total_bits() == b.ledger.total_bits()

    def test_probe_mismatch_rejected(self):
        clients, _, test = tiny_problem()
        bad_probe = LabeledDataset(np.zeros((4, 9)), one_hot([0, 1, 2, 3], 4), 4)
        with pytest.raises(ShapeError):
            run_hfldd(clients, bad_probe, test, tiny_config("hfldd"), TINY_KIP, 3)

    def test_clustering_failure_names_its_stage(self):
        clients, probe, test = tiny_problem()
        with pytest.raises(StageError) as err:
            run_hfldd(clients, probe, test, tiny_config("hfldd"), TINY_KIP, len(clients) + 1)
        assert err.value.stage == "clustering"

    def test_distillation_failure_names_its_stage(self):
        clients, probe, test = tiny_problem()
        greedy = KipConfig(10_000, 1e-6, 0.01, 5, 5, 7)
        with pytest.raises(StageError) as err:
            run_hfldd(clients, probe, test, tiny_config("hfldd"), greedy, 3)
        assert err.value.stage == "distillation"


class TestIidParity:
    def test_parallel_matches_centralized_at_equal_budget(self):
        # all clients share the label distribution, so averaging local passes
        # lands close to one centralized run with the same total work
        clients, _, test = build_problem(
            1,
            classes_per_client=3,
            n_classes=3,
            dim=16,
            separation=3.0,
            per_class=300,
            n_clients=6,
            samples_per_client=90,
            test_fraction=0.25,
            probe_size=20,
        )
        cfg = tiny_config("fedavg", seed=1, batch_size=16, pretrain_steps=0)
        fa = run_fedavg(clients, test, cfg)
        union = concat_datasets([c.data for c in clients])
        budget = pass_steps(union.n_rows(), cfg.batch_size, cfg.rounds * cfg.local_steps)
        central = local_train(
            initial_model(cfg, union.dim(), union.class_count),
            union,
            SgdConfig(cfg.learning_rate, cfg.batch_size, budget),
            SeededRng(cfg.seed, 999),
        )
        from hfldd.model import accuracy

        assert abs(fa.metrics[-1].accuracy - accuracy(central, test)) <= 0.02
