"""Training orchestration: the four algorithms, their ledger accounting, and
the reduction relationships between them.

The runs here are deliberately tiny. The statistical claims about accuracy
gaps live in the acceptance suite; this file pins the mechanical contracts:
exact traffic accounting, determinism, and algorithm equivalences.
"""

import importlib
import math

import numpy as np
import pytest

from hfldd import streams
from hfldd.datagen import LabeledDataset, concat_datasets, one_hot
from hfldd.distill import KipConfig
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
    initial_model,
    pass_steps,
    run_fedavg,
    run_fedprox,
    run_fedseq_lite,
    run_hfldd,
)
from hfldd.metrics import CostModel, cost_fedavg, cost_fedseq, cost_hfldd
from hfldd.model import (
    MlpModel,
    SgdConfig,
    backward,
    init_mlp,
    iter_batches,
    local_train,
    sgd_step,
)
from hfldd.numkernel import SeededRng

from helpers import build_problem, models_close, models_equal, tiny_problem

TINY_KIP = KipConfig(5, 1e-6, 0.01, 50, 5)


def tiny_config(seed=7, **overrides):
    kw = dict(
        rounds=3,
        local_steps=2,
        pretrain_steps=2,
        learning_rate=0.05,
        batch_size=8,
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
            dict(prox_mu=math.nan),
            dict(prox_mu=math.inf),
            dict(learning_rate=math.nan),
            dict(learning_rate=math.inf),
        ],
    )
    def test_validation(self, kw):
        base = dict(
            rounds=1,
            local_steps=1,
            pretrain_steps=0,
            learning_rate=0.1,
            batch_size=1,
            prox_mu=0.0,
            seed=0,
        )
        base.update(kw)
        with pytest.raises(DomainError):
            RunConfig(**base)


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
            run_fedavg(clients, test, tiny_config())


class TestAggregate:
    def test_hand_weighted_average(self):
        a = MlpModel((1, 1), np.array([0.0, 0.0]))
        b = MlpModel((1, 1), np.array([3.0, 6.0]))
        out = aggregate([a, b], [1.0, 2.0])
        assert out.params == pytest.approx([2.0, 4.0], abs=1e-15)

    def test_weights_normalized(self):
        m = MlpModel((1, 1), np.array([1.0, 1.0]))
        out = aggregate([m, m], [10.0, 30.0])
        assert out.params == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_errors(self):
        m = MlpModel((1, 1), np.array([1.0, 1.0]))
        other = MlpModel((1, 2), np.array([1.0, 2.0, 1.0, 2.0]))
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
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                aggregate([m, m], [1.0, bad])


class TestInitialModel:
    def test_shared_across_algorithms(self):
        # the knobs only some algorithms read do not move the starting model
        a = initial_model(tiny_config(), 8, 4)
        b = initial_model(tiny_config(prox_mu=0.5, rounds=9, pretrain_steps=4), 8, 4)
        assert models_equal(a, b)

    def test_architecture_from_config(self):
        cfg = tiny_config(hidden_sizes=(5, 6))
        assert initial_model(cfg, 8, 4).sizes == (8, 5, 6, 4)


class TestRunFedavg:
    def test_metrics_shape_and_determinism(self):
        clients, _, test = tiny_problem()
        cfg = tiny_config()
        a = run_fedavg(fresh_clients(clients), test, cfg)
        b = run_fedavg(fresh_clients(clients), test, cfg)
        assert [m.round_index for m in a.metrics] == [1, 2, 3]
        assert models_equal(a.final_model, b.final_model)
        assert [m.accuracy for m in a.metrics] == [m.accuracy for m in b.metrics]
        assert all(np.isfinite(m.loss) for m in a.metrics)

    def test_ledger_matches_closed_form_exactly(self):
        clients, _, test = tiny_problem()
        result = run_fedavg(clients, test, tiny_config())
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
        result = run_fedavg(clients, test, tiny_config(), bits_per_param=8)
        per_model = result.final_model.parameter_count() * 8
        by_round = result.ledger.bits_by_round()
        n = len(clients)
        assert by_round[1] == n * per_model
        assert by_round[2] == by_round[3] == 2 * n * per_model

    def test_cumulative_bits_monotone(self):
        clients, _, test = tiny_problem()
        result = run_fedavg(clients, test, tiny_config())
        bits = [m.cumulative_bits for m in result.metrics]
        assert bits == sorted(bits) and bits[0] > 0

    def test_local_work_scales_with_client_rows(self):
        # two clients, one with twice the rows: the larger one must take
        # proportionally more optimization, visible as a different update
        gen = SeededRng(3, 0).generator()
        small = LabeledDataset(gen.standard_normal((8, 4)), one_hot([0, 1] * 4, 2), 2)
        big = concat_datasets([small, small])
        cfg = tiny_config(rounds=1, batch_size=4)
        # reproduce the aggregate from direct training with pass-derived steps
        init = initial_model(cfg, 4, 2)
        m_small = local_train(
            init, small, SgdConfig(cfg.learning_rate, 4, pass_steps(8, 4, cfg.local_steps)),
            SeededRng(cfg.seed, streams.train(1, 0)),
        )
        m_big = local_train(
            init, big, SgdConfig(cfg.learning_rate, 4, pass_steps(16, 4, cfg.local_steps)),
            SeededRng(cfg.seed, streams.train(1, 1)),
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
        fa = run_fedavg(fresh_clients(clients), test, tiny_config())
        fp = run_fedprox(fresh_clients(clients), test, tiny_config())
        assert models_equal(fa.final_model, fp.final_model)
        assert fa.ledger.total_bits() == fp.ledger.total_bits()

    def test_local_loop_matches_reference_loop(self):
        # local_train's mu term, against the FedProx step written out here
        clients, _, _ = tiny_problem()
        d = clients[0].data
        model = init_mlp((d.dim(), 6, 4), SeededRng(2))
        anchor = model.params.copy()
        sgd, mu = SgdConfig(0.2, 5, 17), 0.7
        out = local_train(model, d, sgd, SeededRng(2, 1), mu)
        batches = iter_batches(d.n_rows(), sgd.batch_size, SeededRng(2, 1).generator())
        ref = model
        for _ in range(sgd.steps):
            idx = next(batches)
            g = backward(ref, d.features[idx], d.labels[idx])
            g += mu * (ref.params - anchor)
            ref = sgd_step(ref, g, sgd.learning_rate)
        assert out.params.tobytes() == ref.params.tobytes()
        assert model.params.tobytes() == anchor.tobytes()

    def test_local_loop_leaves_a_shared_anchor_untouched(self):
        # the anchor is the starting model, which training must not move
        clients, _, _ = tiny_problem()
        d = clients[0].data
        model = init_mlp((d.dim(), 6, 4), SeededRng(2))
        before = model.params.tobytes()
        out = local_train(model, d, SgdConfig(0.2, 5, 9), SeededRng(2, 1), 0.5)
        assert model.params.tobytes() == before
        assert out.params.tobytes() != before

    def test_tracer_sites_are_the_model_functions(self):
        # fltrain keeps these names only as sites for bench/tracer.py; they
        # must stay the model's own functions, not a second training loop
        fltrain = importlib.import_module("hfldd.fltrain")
        model = importlib.import_module("hfldd.model")
        assert fltrain._prox_local_train is model.local_train
        assert fltrain.backward is model.backward
        assert fltrain.sgd_step is model.sgd_step

    def test_proximal_pull_shrinks_drift(self):
        clients, _, test = tiny_problem()
        cfg = dict(rounds=1, learning_rate=1e-3)
        fa = run_fedavg(fresh_clients(clients), test, tiny_config(**cfg))
        fp = run_fedprox(
            fresh_clients(clients), test, tiny_config(prox_mu=1000.0, **cfg)
        )
        init = initial_model(tiny_config(**cfg), clients[0].data.dim(), 4)

        def drift(model):
            return float(np.sum((model.params - init.params) ** 2))

        assert drift(fp.final_model) < drift(fa.final_model)


class TestRunFedseqLite:
    def test_singleton_clusters_match_fedavg(self):
        clients, _, test = tiny_problem()
        fa = run_fedavg(fresh_clients(clients), test, tiny_config())
        fs = run_fedseq_lite(
            fresh_clients(clients), test, tiny_config(), len(clients), 1
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
        result = run_fedseq_lite(clients, test, tiny_config(), 2, 3)
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
        result = run_fedseq_lite(clients, test, tiny_config(), 2, 3, bits_per_param=8)
        per_model = result.final_model.parameter_count() * 8
        by_round = result.ledger.bits_by_round()
        assert by_round[1] == 2 * (1 + 3) * per_model
        assert by_round[2] == 2 * (2 + 3) * per_model

    def test_shape_constraint(self):
        clients, _, test = tiny_problem()
        with pytest.raises(CapacityError):
            run_fedseq_lite(clients, test, tiny_config(), 4, 2)


class TestRunHfldd:
    def run_tiny(self, **overrides):
        clients, probe, test = tiny_problem()
        cfg = tiny_config(**overrides)
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
            own = by_id[head].data
            expected = own.n_rows() + (len(cluster) - 1) * TINY_KIP.support_size
            assert result.head_data[head].n_rows() == expected
            # the head's own rows come first, then its members' distilled rows
            assert np.array_equal(result.head_data[head].features[: own.n_rows()], own.features)

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
        fa = run_fedavg(heads, test, tiny_config())
        assert models_equal(result.final_model, fa.final_model)
        assert [m.accuracy for m in result.metrics] == [m.accuracy for m in fa.metrics]

    def test_single_cluster_single_round_is_centralized_training(self):
        # every client alone in its own group forces one heterogeneous
        # cluster holding everyone; with one round the pipeline reduces to
        # plain training on the head's combined dataset
        clients, probe, test = tiny_problem()
        cfg = tiny_config(rounds=1)
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
            SeededRng(cfg.seed, streams.train(1, head_id)),
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
        run_hfldd(clients, probe, test, tiny_config(), TINY_KIP, 3)
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
            run_hfldd(clients, bad_probe, test, tiny_config(), TINY_KIP, 3)

    def test_clustering_failure_names_its_stage(self):
        clients, probe, test = tiny_problem()
        with pytest.raises(StageError) as err:
            run_hfldd(clients, probe, test, tiny_config(), TINY_KIP, len(clients) + 1)
        assert err.value.stage == "clustering"

    def test_distillation_failure_names_its_stage(self):
        clients, probe, test = tiny_problem()
        greedy = KipConfig(10_000, 1e-6, 0.01, 5, 5)
        with pytest.raises(StageError) as err:
            run_hfldd(clients, probe, test, tiny_config(), greedy, 3)
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
        cfg = tiny_config(seed=1, batch_size=16, pretrain_steps=0)
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
