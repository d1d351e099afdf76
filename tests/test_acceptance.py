"""Acceptance suite: one test per behavioral guarantee, at fixed tolerances.

Each test prints a `criterion N: PASS/FAIL` line with the measured numbers
before asserting, so a red run still reports every criterion (run with -s to
see the lines on success). The benchmark problems here are intentionally
larger than the unit-test fixtures; the full suite takes a few minutes.
"""

import json
import time

import numpy as np

from hfldd.cli import main
from hfldd.datagen import class_means, one_hot, sample_classes, split_train_test
from hfldd.distill import KipConfig, distill, kip_gradient, kip_loss
from hfldd.fltrain import RunConfig, run_fedavg, run_hfldd
from hfldd.metrics import (
    ConvergenceParams,
    CostModel,
    bits_to_megabytes,
    convergence_bound,
    cost_fedavg,
)
from hfldd.numkernel import SeededRng, rbf_gamma, rbf_kernel, ridge_solve
from hfldd.topology import build_topology

from helpers import benchmark_config, benchmark_kip, build_problem, tiny_problem
from test_model import fd_instance, max_backward_fd_error

SEEDS = (1, 2, 3, 4, 5)


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def _benchmark_records(classes_per_client):
    """Run the paired benchmark for every seed; keep only the curves."""
    records = []
    for seed in SEEDS:
        clients, probe, test = build_problem(seed, classes_per_client)
        fa = run_fedavg(clients, test, benchmark_config(seed))
        hf = run_hfldd(
            clients, probe, test, benchmark_config(seed), benchmark_kip(), 10
        )
        records.append(
            (
                [(m.accuracy, m.cumulative_bits) for m in fa.metrics],
                [(m.accuracy, m.cumulative_bits) for m in hf.metrics],
            )
        )
    return records


class TestAccuracyBenchmarks:
    def test_criterion_1_label_skew_accuracy_gap(self):
        start = time.perf_counter()
        records = _benchmark_records(classes_per_client=1)
        elapsed = time.perf_counter() - start
        gaps = [hf[-1][0] - fa[-1][0] for fa, hf in records]
        mean_gap = float(np.mean(gaps))
        ok = mean_gap >= 0.15 and elapsed <= 600.0
        detail = (
            f"single-class clients: mean final-accuracy gap {mean_gap:+.4f} "
            f"(per seed {[round(g, 3) for g in gaps]}), need >= +0.15; "
            f"{elapsed:.0f}s of 600s budget"
        )
        _report(1, ok, detail)
        assert ok, detail

    def test_criterion_2_iid_accuracy_parity(self):
        records = _benchmark_records(classes_per_client=10)
        gaps = [hf[-1][0] - fa[-1][0] for fa, hf in records]
        mean_abs = float(np.mean(np.abs(gaps)))
        worst = float(np.max(np.abs(gaps)))
        ok = worst <= 0.05
        detail = (
            f"uniform clients: |final-accuracy gap| mean {mean_abs:.4f}, "
            f"worst {worst:.4f} (per seed {[round(g, 3) for g in gaps]}), tolerance 0.05"
        )
        _report(2, ok, detail)
        assert ok, detail

    def test_criterion_4_traffic_to_shared_accuracy(self):
        records = _benchmark_records(classes_per_client=2)
        rows = []
        ok = True
        for fa, hf in records:
            target = min(max(a for a, _ in fa), max(a for a, _ in hf))
            fa_bits = next(b for a, b in fa if a >= target)
            hf_bits = next(b for a, b in hf if a >= target)
            rows.append((hf_bits, fa_bits))
            ok = ok and hf_bits < fa_bits
        ratios = [f"{h / f:.3f}" for h, f in rows]
        detail = (
            "bits to the best accuracy both reach, clustered/parallel ratio per seed "
            f"{ratios}; need strictly < 1 everywhere"
        )
        _report(4, ok, detail)
        assert ok, detail


class TestCostCalculator:
    def test_criterion_3_reference_cost_and_ledger_audit(self):
        c = CostModel(n_clients=100, rounds=17, model_params=44426, bits_per_param=32)
        mb = bits_to_megabytes(cost_fedavg(c))
        reference = 593.15
        rel = abs(mb - reference) / reference

        clients, _, test = tiny_problem()
        cfg = RunConfig(
            rounds=3,
            local_steps=2,
            pretrain_steps=2,
            learning_rate=0.05,
            batch_size=8,
            prox_mu=0.0,
            seed=7,
        )
        result = run_fedavg(clients, test, cfg)
        desk = CostModel(
            n_clients=len(clients),
            rounds=cfg.rounds,
            model_params=result.final_model.parameter_count(),
            bits_per_param=32,
        )
        desk_exact = result.ledger.total_bits() == cost_fedavg(desk)

        ok = rel <= 0.05 and desk_exact
        detail = (
            f"100 clients x 17 rounds x 44426 params: {mb:.4f} MB vs {reference} MB "
            f"reference ({rel * 100:.2f}% off, tolerance 5%); "
            f"desk-scale ledger equals the closed form: {desk_exact}"
        )
        _report(3, ok, detail)
        assert ok, detail


def _kip_instance(case):
    gen = SeededRng(500, case).generator()
    d = int(gen.integers(2, 5))
    c = int(gen.integers(2, 4))
    xs = gen.standard_normal((int(gen.integers(2, 5)), d))
    ys = gen.standard_normal((xs.shape[0], c))
    xt = gen.standard_normal((int(gen.integers(4, 9)), d))
    yt = one_hot(gen.integers(0, c, size=xt.shape[0]), c)
    lam = float(10.0 ** gen.uniform(-4, -1))
    gamma = float(gen.uniform(0.3, 1.5))
    return xs, ys, xt, yt, lam, gamma


def _kip_fd_error(xs, ys, xt, yt, lam, gamma, eps=1e-6):
    g = kip_gradient(xs, ys, xt, yt, lam, gamma)
    worst = 0.0
    it = np.nditer(xs, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = xs[idx]
        xs[idx] = orig + eps
        up = kip_loss(xs, ys, xt, yt, lam, gamma)
        xs[idx] = orig - eps
        down = kip_loss(xs, ys, xt, yt, lam, gamma)
        xs[idx] = orig
        numeric = (up - down) / (2 * eps)
        rel = abs(g[idx] - numeric) / max(abs(g[idx]) + abs(numeric), 1e-3)
        worst = max(worst, rel)
    return worst


class TestGradientChecks:
    def test_criterion_5_analytic_gradients_match_finite_differences(self):
        start = time.perf_counter()
        mlp_worst = 0.0
        for seed in range(20):
            m, x, y = fd_instance(seed)
            mlp_worst = max(mlp_worst, max_backward_fd_error(m, x, y))
        kip_worst = 0.0
        for case in range(20):
            kip_worst = max(kip_worst, _kip_fd_error(*_kip_instance(case)))
        elapsed = time.perf_counter() - start
        ok = mlp_worst <= 1e-4 and kip_worst <= 1e-3 and elapsed <= 60.0
        detail = (
            f"20 network instances, worst relative error {mlp_worst:.2e} (tolerance 1e-4); "
            f"20 distillation instances, worst {kip_worst:.2e} (tolerance 1e-3); "
            f"{elapsed:.1f}s of 60s budget"
        )
        _report(5, ok, detail)
        assert ok, detail


def _topology_invariants_hold(topo, n):
    if sorted(i for c in topo.homogeneous for i in c) != list(range(n)):
        return False
    if sorted(i for c in topo.heterogeneous for i in c) != list(range(n)):
        return False
    for het in topo.heterogeneous:
        for ho in topo.homogeneous:
            if len(set(het) & set(ho)) > 1:
                return False
    if len(topo.heterogeneous) != max(len(c) for c in topo.homogeneous):
        return False
    if len(topo.heads) != len(topo.heterogeneous):
        return False
    return all(h in set(c) for h, c in zip(topo.heads, topo.heterogeneous))


class TestTopologyInvariants:
    def test_criterion_6_randomized_and_constructed_topologies(self):
        gen = SeededRng(606, 0).generator()
        randomized_ok = True
        for case in range(200):
            n = int(gen.integers(4, 17))
            k = int(gen.integers(2, min(n, 6) + 1))
            rows = int(gen.integers(3, 8))
            classes = int(gen.integers(2, 6))
            soft = []
            for _ in range(n):
                m = gen.dirichlet(np.full(classes, 0.5), size=rows)
                m = np.clip(m, 1e-6, None)
                soft.append(m / m.sum(axis=1, keepdims=True))
            topo = build_topology(
                soft, k, SeededRng(case, 1), SeededRng(case, 2), SeededRng(case, 3)
            )
            randomized_ok = randomized_ok and _topology_invariants_hold(topo, n)

        # twelve clients holding one class each, four classes, k = class count:
        # the homogeneous clusters must be the class groups and every
        # heterogeneous cluster must then hold one client of each class
        soft = []
        for i in range(12):
            row = np.full(4, 0.01)
            row[i % 4] = 0.97
            soft.append(np.tile(row, (5, 1)))
        topo = build_topology(soft, 4, SeededRng(60, 1), SeededRng(60, 2), SeededRng(60, 3))
        groups_ok = sorted(topo.homogeneous) == [
            (0, 4, 8),
            (1, 5, 9),
            (2, 6, 10),
            (3, 7, 11),
        ]
        coverage_ok = len(topo.heterogeneous) == 3 and all(
            sorted(i % 4 for i in het) == [0, 1, 2, 3] for het in topo.heterogeneous
        )
        ok = randomized_ok and groups_ok and coverage_ok
        detail = (
            f"200 randomized cases hold all grouping invariants: {randomized_ok}; "
            f"single-class construct recovers the class groups ({groups_ok}) and "
            f"every regrouped cluster covers all classes ({coverage_ok})"
        )
        _report(6, ok, detail)
        assert ok, detail


def _krr_accuracy(support_x, support_y, test, lam, gamma):
    alpha = ridge_solve(rbf_kernel(support_x, support_x, gamma), support_y, lam)
    scores = rbf_kernel(test.features, support_x, gamma) @ alpha
    return float(np.mean(np.argmax(scores, axis=1) == test.label_indices()))


class TestDistillationQuality:
    def test_criterion_7_distilled_beats_random_coreset(self):
        distilled, coreset = [], []
        traces_ok = True
        for seed in SEEDS:
            means = class_means(2, 2, 2.5, SeededRng(seed, 20 << 48))
            pool = sample_classes(means, 100, SeededRng(seed, 21 << 48))
            train, test = (
                pool.subset(rows)
                for rows in split_train_test(pool.n_rows(), 0.3, SeededRng(seed, 22 << 48))
            )
            gamma = rbf_gamma(train.features)
            kip = KipConfig(4, 1e-6, 0.1, 300, 10)
            ds = distill(train, kip, gamma, SeededRng(seed, 23 << 48))
            traces_ok = traces_ok and ds.loss_trace[-1] <= ds.loss_trace[0]
            distilled.append(
                _krr_accuracy(ds.data.features, ds.data.labels, test, kip.ridge_lambda, gamma)
            )

            gen = SeededRng(seed, 24 << 48).generator()
            labs = train.label_indices()
            idx = np.concatenate(
                [gen.choice(np.flatnonzero(labs == c), size=2, replace=False) for c in (0, 1)]
            )
            core = train.subset(idx)
            coreset.append(_krr_accuracy(core.features, core.labels, test, kip.ridge_lambda, gamma))
        mean_d, mean_c = float(np.mean(distilled)), float(np.mean(coreset))
        ok = mean_d > mean_c and traces_ok
        detail = (
            f"4-point supports, kernel regression accuracy: distilled {mean_d:.4f} vs "
            f"random class-balanced coreset {mean_c:.4f} (mean over {len(SEEDS)} seeds, "
            f"need strictly greater); final loss <= initial in every trace: {traces_ok}"
        )
        _report(7, ok, detail)
        assert ok, detail


class TestConvergenceBound:
    def test_criterion_8_bound_arithmetic_and_decay(self):
        p = ConvergenceParams(
            smoothness=1.0,
            strong_convexity=1.0,
            noise_bounds=(0.0,),
            gradient_bound=1.0,
            cluster_divergence=0.1,
            distill_divergence=0.0,
            local_steps=2,
            weights=(1.0,),
            init_gap=1.0,
        )
        hand = convergence_bound(p, 3)
        hand_ok = abs(hand - 2.12) <= 1e-12
        values = [convergence_bound(p, t) for t in range(0, 2000, 50)]
        monotone_ok = all(a > b for a, b in zip(values, values[1:]))
        t = 10**6
        ratio = convergence_bound(p, 2 * t) / convergence_bound(p, t)
        decay_ok = abs(ratio - 0.5) <= 1e-3
        ok = hand_ok and monotone_ok and decay_ok
        detail = (
            f"hand case at t=3: {hand!r} vs 2.12 (tolerance 1e-12); "
            f"strictly decreasing over t in [0, 2000): {monotone_ok}; "
            f"doubling ratio at t=1e6: {ratio:.6f} vs 0.5 (tolerance 1e-3)"
        )
        _report(8, ok, detail)
        assert ok, detail


REPLAY_CONFIG = """
[experiment]
seed = 9
algorithm = hfldd
output_dir = {out}

[data]
classes = 3
per_class = 80
dim = 8
separation = 4.0
test_fraction = 0.25
probe_size = 12

[partition]
clients = 6
classes_per_client = 2
samples_per_client = 20

[train]
rounds = 3
local_steps = 1
pretrain_steps = 1
learning_rate = 0.05
batch_size = 8
pretrain_batch = 16
hidden = 8

[distill]
support_size = 2
learning_rate = 0.01
iterations = 50
target_batch = 4

[cluster]
k = 3
"""


class TestRunReproducibility:
    def test_criterion_9_manifest_replays_are_byte_identical(self, tmp_path):
        first = tmp_path / "first"
        cfg = tmp_path / "experiment.ini"
        cfg.write_text(REPLAY_CONFIG.format(out=first), encoding="utf-8")
        assert main(["run", str(cfg)]) == 0
        manifest = first / "manifest.json"

        replays = []
        for name in ("replay_a", "replay_b"):
            out = tmp_path / name
            assert main(["run", "--from-manifest", str(manifest), "--out", str(out)]) == 0
            replays.append((out / "metrics.csv").read_bytes())
        original = (first / "metrics.csv").read_bytes()
        ok = replays[0] == replays[1] == original and len(original) > 0
        rounds = json.loads(manifest.read_text())["config"]["train"]["rounds"]
        detail = (
            f"full-pipeline run replayed twice from its manifest: metrics files "
            f"byte-identical across all three runs ({len(original)} bytes, {rounds} rounds)"
        )
        _report(9, ok, detail)
        assert ok, detail
