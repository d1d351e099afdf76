"""Training orchestration: the four algorithms, their ledger accounting, and
the reduction relationships between them.

The runs here are deliberately tiny. The statistical claims about accuracy
gaps live in the acceptance suite; this file pins the mechanical contracts:
exact traffic accounting, determinism, and algorithm equivalences.
"""

import dataclasses
import gc
import importlib
import math
import tracemalloc
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest

from hfldd import fltrain, streams
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
    RunResult,
    aggregate,
    initial_model,
    pass_steps,
    run_fedavg,
    run_fedprox,
    run_fedseq_lite,
    run_hfldd,
)
from hfldd.metrics import (
    PAYLOAD_DISTILLED,
    PAYLOAD_MODEL,
    PAYLOAD_SOFT_LABELS,
    CostModel,
    cost_fedavg,
    cost_fedseq,
    cost_hfldd,
)
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

from helpers import (
    build_problem,
    conditioned,
    head_datasets,
    models_close,
    models_equal,
    tiny_problem,
)

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


def fields(c):
    """A client's fields, with its dataset as bytes."""
    return {
        k: (v.features.tobytes(), v.labels.tobytes(), v.class_count)
        if isinstance(v, LabeledDataset)
        else v
        for k, v in vars(c).items()
    }


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
            n_clients=len(clients),
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

    @pytest.mark.parametrize("shape", [(-2, -3), (-1, -6), (0, 6), (6, 0)])
    def test_cluster_shape_below_one_rejected_at_entry(self, shape, monkeypatch):
        # (-2, -3) multiplies out to the 6 clients, so only the sign check
        # stops it before a round with no chains to aggregate
        clients, _, test = tiny_problem()
        widths = widths_trained_on(monkeypatch)
        with pytest.raises(DomainError, match=">= 1"):
            run_fedseq_lite(clients, test, tiny_config(), *shape)
        assert widths == []

    def test_client_and_test_errors_come_before_the_cluster_shape(self):
        clients, _, test = tiny_problem()
        with pytest.raises(EmptyInputError):
            run_fedseq_lite([], test, tiny_config(), -2, -3)
        narrow = LabeledDataset(np.zeros((4, 9)), one_hot([0, 1, 2, 3], 4), 4)
        with pytest.raises(ShapeError):
            run_fedseq_lite(clients, narrow, tiny_config(), -2, -3)
        with pytest.raises(ShapeError):
            run_fedseq_lite(clients, narrow, tiny_config(), 4, 2)


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
        # one support_size slot shipped per non-head client, at the run's price
        shipped = [e for e in result.ledger.events if e.kind == PAYLOAD_DISTILLED]
        assert len(shipped) == len(clients) - topo.n_heads()
        assert all(e.bits == TINY_KIP.support_size * result.bits_per_sample for e in shipped)

    def test_head_dataset_sizes(self):
        clients, result, cfg, _ = self.run_tiny()
        by_id = {c.client_id: c for c in clients}
        rebuilt = head_datasets(clients, result.topology, TINY_KIP, cfg.seed)
        for cluster, head in zip(result.topology.heterogeneous, result.topology.heads):
            own = by_id[head].data
            expected = own.n_rows() + (len(cluster) - 1) * TINY_KIP.support_size
            assert rebuilt[head].n_rows() == expected
            # the head's own rows come first, then its members' distilled rows
            assert np.array_equal(rebuilt[head].features[: own.n_rows()], own.features)

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
            distilled_sizes=(TINY_KIP.support_size,) * (len(clients) - result.topology.n_heads()),
        )
        assert result.ledger.total_bits() == cost_hfldd(c)

    def test_training_phase_equals_fedavg_over_heads(self):
        # stages 3 and 4 against an independent reference: fedavg over the
        # heads' datasets rebuilt from the topology alone
        clients, result, cfg, test = self.run_tiny()
        rebuilt = head_datasets(clients, result.topology, TINY_KIP, cfg.seed)
        heads = [ClientState(h, rebuilt[h]) for h in result.topology.heads]
        fa = run_fedavg(heads, test, tiny_config())
        assert models_equal(result.final_model, fa.final_model)
        assert [m.accuracy for m in result.metrics] == [m.accuracy for m in fa.metrics]

    def test_training_starts_holding_only_the_heads_datasets(self, monkeypatch):
        # When stage 4 starts, the heap above run_hfldd's entry is the heads'
        # datasets plus `slack` bytes of bookkeeping (ledger, topology); no
        # distilled support, pretrained model or soft label survives stages
        # 1-3. Two clients per cluster, so each cluster ships one support.
        slack = 16 << 10
        clients, probe, test = tiny_problem(dim=512)
        kip = KipConfig(20, 1e-6, 0.01, 5, 5)
        cfg = tiny_config(rounds=1, local_steps=1)
        one_support = kip.support_size * clients[0].data.dim() * 8
        assert slack * 4 < one_support
        rounds = fltrain._rounds
        seen = []

        def entered(heads, *args):
            gc.collect()
            live = tracemalloc.get_traced_memory()[0]
            seen.append(live - sum(h.data.features.nbytes + h.data.labels.nbytes for h in heads))
            return rounds(heads, *args)

        monkeypatch.setattr(fltrain, "_rounds", entered)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            run_hfldd(clients, probe, test, cfg, kip, 2)  # first-call caches
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            result = run_hfldd(clients, probe, test, cfg, kip, 2)
        finally:
            if started:
                tracemalloc.stop()
        assert all(len(c) == 2 for c in result.topology.heterogeneous)
        assert seen[-1] - base < slack

    def test_single_cluster_single_round_is_centralized_training(self):
        # every client alone in its own group forces one heterogeneous
        # cluster holding everyone; with one round the pipeline reduces to
        # plain training on the head's combined dataset
        clients, probe, test = tiny_problem()
        cfg = tiny_config(rounds=1)
        result = run_hfldd(clients, probe, test, cfg, TINY_KIP, len(clients))
        assert len(result.topology.heterogeneous) == 1
        head_id = result.topology.heads[0]
        dh = head_datasets(clients, result.topology, TINY_KIP, cfg.seed)[head_id]
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

    @pytest.mark.parametrize("support_size", [5, 2])
    def test_a_support_that_does_not_fill_its_slot_fails_distillation(
        self, support_size, monkeypatch
    ):
        # stage 3 fills fixed support_size slots. A support one row short
        # must not leave rows of the head's block uncopied, nor, at two
        # rows, broadcast its one row over the slot.
        real = fltrain.distill

        def short(d, kip, gamma, rng):
            out = real(d, kip, gamma, rng)
            return dataclasses.replace(out, data=out.data.subset(np.arange(kip.support_size - 1)))

        monkeypatch.setattr(fltrain, "distill", short)
        clients, probe, test = tiny_problem()
        kip = dataclasses.replace(TINY_KIP, support_size=support_size)
        with pytest.raises(StageError, match="does not fill its") as err:
            run_hfldd(clients, probe, test, tiny_config(), kip, 3)
        assert err.value.stage == "distillation"
        assert isinstance(err.value.cause, ShapeError)

    def test_distillation_failure_names_its_stage(self):
        clients, probe, test = tiny_problem()
        greedy = KipConfig(10_000, 1e-6, 0.01, 5, 5)
        with pytest.raises(StageError) as err:
            run_hfldd(clients, probe, test, tiny_config(), greedy, 3)
        assert err.value.stage == "distillation"


def labeled(features, classes, gen):
    labels = gen.integers(0, classes, size=features.shape[0])
    return LabeledDataset(features, one_hot(labels, classes), classes)


def widths_trained_on(monkeypatch):
    """Record the feature width of every dataset fltrain.local_train sees."""
    widths = []
    real = fltrain.local_train

    def spy(m, d, *rest):
        widths.append(d.dim())
        return real(m, d, *rest)

    monkeypatch.setattr(fltrain, "local_train", spy)
    return widths


class TestRowSpanTraining:
    """Training a client in the row span of its data (fltrain._local_trainer)
    against `local_train` on the data itself."""

    def test_rule_on_the_benchmark_shapes(self):
        # 160-row 1024-d clients over 3 rounds of 2 passes, and pretraining's
        # 10 passes, take the row span
        assert fltrain._row_span_pays(160, 1024, 64, 3, 2)
        assert fltrain._row_span_pays(160, 1024, 64, 1, 10)
        # hfldd's 880-row heads and crowd's 40-row 32-d clients do not
        assert not fltrain._row_span_pays(880, 1024, 64, 3, 2)
        assert not fltrain._row_span_pays(40, 32, 64, 3, 2)
        # nor does one pass a call: the lift costs what the pass saves
        assert not fltrain._row_span_pays(160, 1024, 64, 50, 1)

    # (calls, passes, batch, mu) of one round of fedavg and fedprox over 3
    # rounds, and of hfldd's pretraining
    SHAPES = {
        "fedavg": (3, 2, 16, 0.0),
        "fedprox": (3, 2, 16, 0.5),
        "pretrain": (1, 10, 64, 0.0),
    }

    @pytest.mark.parametrize("shape", SHAPES)
    def test_full_rank_client_matches_local_train(self, shape, monkeypatch):
        calls, passes, batch, mu = self.SHAPES[shape]
        gen = SeededRng(11).generator()
        d = labeled(gen.standard_normal((160, 1024)), 10, gen)
        m = init_mlp((1024, 64, 64, 10), SeededRng(11, 1))
        before = m.params.tobytes()
        sgd = SgdConfig(0.05, batch, pass_steps(160, batch, passes))
        ref = local_train(m, d, sgd, SeededRng(11, 2), mu)
        widths = widths_trained_on(monkeypatch)
        cfg = tiny_config(learning_rate=0.05)
        got = fltrain._local_trainer(cfg, d, 64, calls, batch, passes)(m, SeededRng(11, 2), mu)
        assert widths == [160]
        assert m.params.tobytes() == before
        assert got.sizes == ref.sizes
        assert np.abs(got.params - ref.params).max() <= 1e-12 * np.abs(ref.params).max()

    RANK_DEFICIENT = {
        "one-distinct-row": lambda gen: np.repeat(gen.standard_normal((1, 48)), 12, axis=0),
        "repeated-rows": lambda gen: gen.standard_normal((3, 48))[np.arange(12) % 3],
        "cond-1e6": lambda gen: conditioned(30, 12, 1e6, gen),
        "cond-1e6-wide": lambda gen: conditioned(12, 30, 1e6, gen),
    }

    @pytest.mark.parametrize("mu", [0.0, 0.5])
    @pytest.mark.parametrize("name", RANK_DEFICIENT)
    def test_rank_deficient_client_matches_local_train(self, name, mu):
        gen = SeededRng(5).generator()
        f = self.RANK_DEFICIENT[name](gen)
        d = labeled(f, 3, gen)
        dim = f.shape[1]
        m = init_mlp((dim, 8, 3), SeededRng(5, 1))
        sgd = SgdConfig(0.2, 4, 24)
        got = fltrain._row_span_trainer(d, sgd)(m, SeededRng(5, 2), mu)
        ref = local_train(m, d, sgd, SeededRng(5, 2), mu)
        rank = np.linalg.matrix_rank(f)
        u, sv, _ = np.linalg.svd(f.T, full_matrices=False)
        cond = sv[0] / sv[rank - 1]
        tol = 1e-12 + 1e-15 * cond
        assert np.abs(got.params - ref.params).max() <= tol * np.abs(ref.params).max()
        # the first layer moved only inside the row span of the data
        cut = dim * 8
        step = (got.params[:cut] - m.params[:cut]).reshape(dim, 8)
        span = u[:, :rank]
        off_span = step - span @ (span.T @ step)
        assert np.abs(off_span).max() <= tol * np.abs(step).max()

    @pytest.mark.parametrize("rows, dim", [(40, 32), (880, 1024)])
    def test_clients_the_rule_leaves_out_return_local_train_bytes(self, rows, dim, monkeypatch):
        gen = SeededRng(3).generator()
        d = labeled(gen.standard_normal((rows, dim)), 10, gen)
        m = init_mlp((dim, 64, 64, 10), SeededRng(3, 1))
        sgd = SgdConfig(0.01, 16, pass_steps(rows, 16, 2))
        ref = local_train(m, d, sgd, SeededRng(3, 2), 0.5)
        widths = widths_trained_on(monkeypatch)
        cfg = tiny_config(learning_rate=0.01)
        got = fltrain._local_trainer(cfg, d, 64, 3, 16, 2)(m, SeededRng(3, 2), 0.5)
        assert widths == [dim]
        assert got.params.tobytes() == ref.params.tobytes()


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


def run_algorithm(name, clients, probe, test, cfg, **bits):
    if name == "fedavg":
        return run_fedavg(clients, test, cfg, **bits)
    if name == "fedprox":
        return run_fedprox(clients, test, cfg, **bits)
    if name == "fedseq":
        return run_fedseq_lite(clients, test, cfg, 2, 3, **bits)
    return run_hfldd(clients, probe, test, cfg, TINY_KIP, 3, **bits)


ALGORITHM_NAMES = ["fedavg", "fedprox", "fedseq", "hfldd"]
# tiny_problem arguments whose clients train directly or in the row span,
# and a fedavg learning rate that keeps round 1 finite and diverges in round 2
DIVERGING = {
    "direct": ({}, 60.0),
    "row-span": ({"dim": 256, "samples_per_client": 20}, 100.0),
}


# test sets that disagree with tiny_problem's 8-d, 4-class clients
MISMATCHED_TESTS = {
    "width": lambda: LabeledDataset(np.zeros((4, 9)), one_hot([0, 1, 2, 3], 4), 4),
    "classes": lambda: LabeledDataset(np.zeros((5, 8)), one_hot([0, 1, 2, 3, 4], 5), 5),
    "fewer-classes": lambda: LabeledDataset(np.zeros((3, 8)), one_hot([0, 1, 2], 3), 3),
}


# bit prices that are not integers in [1, 2^63); bool is rejected as CostModel
# rejects it. None is bits_per_sample's default, the data's width in float64s.
BAD_BIT_PRICES = [0, -32, 1.5, 2.5, 32.0, True, 2**63, "32"]


class TestEntryChecks:
    @pytest.mark.parametrize("bad", MISMATCHED_TESTS)
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_mismatched_test_set_rejected_before_training(self, name, bad, monkeypatch):
        clients, probe, _ = tiny_problem()
        widths = widths_trained_on(monkeypatch)
        with pytest.raises(ShapeError, match="test dimensions"):
            run_algorithm(name, clients, probe, MISMATCHED_TESTS[bad](), tiny_config())
        assert widths == []

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_empty_test_set_rejected_before_training(self, name, monkeypatch):
        clients, probe, _ = tiny_problem()
        widths = widths_trained_on(monkeypatch)
        # the test set rejects zero rows where it is made
        with pytest.raises(EmptyInputError, match="at least one row"):
            empty = LabeledDataset(np.zeros((0, 8)), np.zeros((0, 4)), 4)
            run_algorithm(name, clients, probe, empty, tiny_config())
        assert widths == []

    @pytest.mark.parametrize("bits", [*BAD_BIT_PRICES, None], ids=repr)
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_bad_bits_per_param_rejected_before_training(self, name, bits, monkeypatch):
        # 0 used to fail in round 1's ledger, and 2.5 and 1.5 were truncated
        # by the ledger and then failed the audit's integer check
        clients, probe, test = tiny_problem()
        widths = widths_trained_on(monkeypatch)
        with pytest.raises(DomainError, match=r"^bits_per_param\b"):
            run_algorithm(name, clients, probe, test, tiny_config(), bits_per_param=bits)
        assert widths == []

    @pytest.mark.parametrize("bits", BAD_BIT_PRICES, ids=repr)
    def test_bad_bits_per_sample_rejected_before_training(self, bits, monkeypatch):
        # 0 used to fail only after pretraining, clustering and distillation
        clients, probe, test = tiny_problem()
        widths = widths_trained_on(monkeypatch)
        with pytest.raises(DomainError, match=r"^bits_per_sample\b"):
            run_algorithm("hfldd", clients, probe, test, tiny_config(), bits_per_sample=bits)
        assert widths == []

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_client_errors_come_before_the_bit_price(self, name):
        _, probe, test = tiny_problem()
        with pytest.raises(EmptyInputError, match="no clients"):
            run_algorithm(name, [], probe, test, tiny_config(), bits_per_param=0)

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_numpy_integer_bit_prices_are_charged_exactly(self, name):
        clients, probe, test = tiny_problem()
        bits = {"bits_per_param": np.int64(16)}
        if name == "hfldd":
            bits["bits_per_sample"] = np.uint32(100)
        got = run_algorithm(name, clients, probe, test, tiny_config(), **bits)
        plain = {k: int(v) for k, v in bits.items()}
        want = run_algorithm(name, clients, probe, test, tiny_config(), **plain)
        assert got.ledger.events == want.ledger.events


def logged_traffic(ledger):
    """Round -> multiset of (sender, receiver, kind, bits) in the ledger."""
    out = {}
    for e in ledger.events:
        out.setdefault(e.round_index, Counter())[(e.sender, e.receiver, e.kind, e.bits)] += 1
    return out


def expected_traffic(name, clients, probe, cfg, result):
    """Round -> the multiset each algorithm's protocol prescribes: every
    trainer uploads, fetches from round 2 on, and fedseq's chains relay the
    model from member to member; hfldd adds round 0's soft labels and
    distilled sets, then trains its heads like fedavg."""
    bits = result.final_model.parameter_count() * 32
    trainers = [f"client-{c.client_id}" for c in clients]
    out = {}
    if name == "hfldd":
        topo = result.topology
        soft = probe.n_rows() * clients[0].data.class_count * 32
        distilled = TINY_KIP.support_size * clients[0].data.dim() * 64
        out[0] = Counter([(c, "server", PAYLOAD_SOFT_LABELS, soft) for c in trainers])
        for cluster, head in zip(topo.heterogeneous, topo.heads):
            for member in cluster:
                if member != head:
                    out[0][(f"client-{member}", f"client-{head}", PAYLOAD_DISTILLED, distilled)] += 1
        trainers = [f"client-{h}" for h in topo.heads]
    for t in range(1, cfg.rounds + 1):
        if name == "fedseq":
            # run_algorithm runs fedseq as 2 chains of 3 over the 6 clients
            perm = SeededRng(cfg.seed, streams.SEQ_PARTITION | t).generator().permutation(6)
            chains = [
                [f"seq-{o}"] + [f"client-{clients[p].client_id}" for p in perm[3 * o : 3 * o + 3]]
                for o in range(2)
            ]
        else:
            chains = [[c] for c in trainers]
        events = []
        for chain in chains:
            if t > 1:
                events.append(("server", chain[0]))
            events += list(zip(chain, chain[1:])) + [(chain[-1], "server")]
        out[t] = Counter((a, b, PAYLOAD_MODEL, bits) for a, b in events)
    return out


class TestTrafficPattern:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_each_round_logs_the_protocol_transmissions(self, name):
        clients, probe, test = tiny_problem()
        cfg = tiny_config(prox_mu=0.1)
        result = run_algorithm(name, clients, probe, test, cfg)
        assert logged_traffic(result.ledger) == expected_traffic(name, clients, probe, cfg, result)


def reachable(value):
    """`value` and everything reachable from it through dataclass fields,
    dicts, lists and tuples."""
    yield value
    if isinstance(value, dict):
        children = value.values()
    elif isinstance(value, (list, tuple)):
        children = value
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        children = [getattr(value, f.name) for f in dataclasses.fields(value)]
    else:
        return
    for child in children:
        yield from reachable(child)


class TestResultShape:
    def test_a_result_holds_only_what_the_run_decided(self):
        # hfldd's distilled set sizes follow from its topology and
        # [distill] support_size, so the result does not repeat them
        assert [f.name for f in dataclasses.fields(RunResult)] == [
            "metrics", "ledger", "final_model", "topology", "bits_per_sample",
        ]

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_a_result_holds_no_dataset(self, name):
        # a run reports its curve, its traffic and its model; the datasets
        # it trained on do not outlive it
        clients, probe, test = tiny_problem()
        result = run_algorithm(name, clients, probe, test, tiny_config())
        values = list(reachable(result))
        assert not [v for v in values if isinstance(v, LabeledDataset)]
        largest = result.final_model.params.size
        assert all(v.size <= largest for v in values if isinstance(v, np.ndarray))


class TestRoundLifetime:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_a_rounds_uploads_are_freed_before_its_evaluation(self, name, monkeypatch):
        # the server needs only the average, so no upload of a round may
        # sit under the test-set forward of that round's evaluation
        refs, evaluated = [], []
        original_aggregate, original_metrics = fltrain.aggregate, fltrain._round_metrics

        def aggregate_(models, weights):
            models = list(models)
            refs[:] = [weakref.ref(m) for m in models]
            return original_aggregate(models, weights)

        def round_metrics(t, *args):
            gc.collect()
            assert refs and all(r() is None for r in refs), f"round {t}"
            evaluated.append(t)
            return original_metrics(t, *args)

        monkeypatch.setattr(fltrain, "aggregate", aggregate_)
        monkeypatch.setattr(fltrain, "_round_metrics", round_metrics)
        clients, probe, test = tiny_problem()
        cfg = tiny_config(prox_mu=0.1)
        run_algorithm(name, clients, probe, test, cfg)
        assert evaluated == list(range(1, cfg.rounds + 1))


class TestNumericFailuresAndPurity:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_client_data_is_never_written(self, name):
        # Clients hold row views of one partition block, so any in-place
        # write by an algorithm would reach that block; read-only arrays
        # turn such a write into an error.
        clients, probe, test = tiny_problem()
        for d in [c.data for c in clients] + [probe, test]:
            d.features.setflags(write=False)
            d.labels.setflags(write=False)
        result = run_algorithm(name, clients, probe, test, tiny_config(prox_mu=0.1))
        assert len(result.metrics) == 3

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_inputs_not_mutated_in_the_row_span(self, name, monkeypatch):
        # 20-row 256-d clients take the row span in every training call;
        # the data and the starting model are read-only and must come out
        # with the same bytes
        clients, probe, test = tiny_problem(dim=256, samples_per_client=20)
        for d in [c.data for c in clients] + [probe, test]:
            d.features.setflags(write=False)
            d.labels.setflags(write=False)
        before = [fields(c) for c in clients]
        starts = []
        real = fltrain.initial_model

        def read_only_start(*args):
            m = real(*args)
            m.params.setflags(write=False)
            starts.append((m, m.params.tobytes()))
            return m

        monkeypatch.setattr(fltrain, "initial_model", read_only_start)
        widths = widths_trained_on(monkeypatch)
        result = run_algorithm(name, clients, probe, test, tiny_config(prox_mu=0.1))
        assert len(result.metrics) == 3
        assert widths and max(widths) <= 40
        assert [fields(c) for c in clients] == before
        assert starts and all(m.params.tobytes() == b for m, b in starts)

    @pytest.mark.parametrize("shape", DIVERGING)
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_divergence_names_the_training_round_without_warnings(self, name, shape, monkeypatch):
        clients, probe, test = tiny_problem(**DIVERGING[shape][0])
        cfg = tiny_config(learning_rate=1e200, prox_mu=0.1, pretrain_steps=0)
        widths = widths_trained_on(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(StageError) as err:
                run_algorithm(name, clients, probe, test, cfg)
        # the call that diverged ran in the row span, or on the raw rows
        assert (widths[-1] < clients[0].data.dim()) == (shape == "row-span")
        assert err.value.stage == "training"
        assert err.value.round_index == 1
        assert "round 1" in str(err.value) and "diverged" in str(err.value)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("shape", DIVERGING)
    def test_divergence_in_a_later_round_names_that_round(self, shape, monkeypatch):
        problem, rate = DIVERGING[shape]
        clients, _, test = tiny_problem(**problem)
        widths = widths_trained_on(monkeypatch)
        # finite for a round, then the parameters blow up
        with pytest.raises(StageError) as err:
            run_fedavg(clients, test, tiny_config(learning_rate=rate, rounds=6))
        # the call that diverged ran in the row span, or on the raw rows
        assert (widths[-1] < clients[0].data.dim()) == (shape == "row-span")
        assert err.value.stage == "training"
        assert err.value.round_index == 2

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_any_failure_in_a_round_names_the_training_round(self, name, monkeypatch):
        # an untyped error from local training is staged like divergence
        real = fltrain.local_train

        def fail_in_round_2(m, d, sgd, rng, *rest):
            if streams.train(2, 0) <= rng.stream < streams.train(3, 0):
                raise ValueError("injected")
            return real(m, d, sgd, rng, *rest)

        monkeypatch.setattr(fltrain, "local_train", fail_in_round_2)
        clients, probe, test = tiny_problem()
        with pytest.raises(StageError) as err:
            run_algorithm(name, clients, probe, test, tiny_config(prox_mu=0.1))
        assert err.value.stage == "training"
        assert err.value.round_index == 2
        assert isinstance(err.value.cause, ValueError)
        assert str(err.value.cause) == "injected"

    def test_any_failure_in_clustering_names_clustering(self, monkeypatch):
        def broken(*args):
            raise RuntimeError("injected")

        monkeypatch.setattr(fltrain, "build_topology", broken)
        clients, probe, test = tiny_problem()
        with pytest.raises(StageError) as err:
            run_hfldd(clients, probe, test, tiny_config(), TINY_KIP, 3)
        assert err.value.stage == "clustering"
        assert err.value.round_index is None
        assert isinstance(err.value.cause, RuntimeError)

    @pytest.mark.parametrize("shape", DIVERGING)
    def test_pretraining_divergence_names_label_collection(self, shape, monkeypatch):
        clients, probe, test = tiny_problem(**DIVERGING[shape][0])
        widths = widths_trained_on(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(StageError) as err:
                run_hfldd(clients, probe, test, tiny_config(learning_rate=1e200), TINY_KIP, 3)
        assert (widths[-1] < clients[0].data.dim()) == (shape == "row-span")
        assert err.value.stage == "label-collection"
        assert "pretrained model" in str(err.value)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
