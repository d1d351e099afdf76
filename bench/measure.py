"""Measurement for the hfldd benchmark: timed set-ups, the closed loop of
simulator calls, the correctness bookkeeping, and the traced run's
per-layer figures. `run.py` is the entry point; it sets the BLAS thread
count and the import path before this module is imported.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import time

import numpy as np
import scipy

import tracer as tr
import workloads
from hfldd import cli
from hfldd.errors import HflddError
from hfldd.metrics import complexity_estimates
from hfldd.topology import DEFAULT_KMEANS_ITERS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
# Problem builds per repetition. Set-up is timed throughout the run, not in
# one block before it, so that a burst of host speed does not shift every
# sample at once.
SETUPS_PER_REP = 3


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def env_stamp() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, ValueError):
        blas_name = blas_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": blas_threads(),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


class Outcome:
    """Attempted and failed simulator calls, plus each algorithm's first digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first: dict = {}

    def check(self, xc, result):
        algorithm = xc.algorithm
        self.attempted += 1
        problems = workloads.gate(xc, result)
        digest = workloads.metrics_digest(result.metrics)
        first = self.first.setdefault(algorithm, (digest, result))
        if first[0] != digest:
            problems.append(f"metrics digest {digest} != first repetition's {first[0]}")
        self.failed += bool(problems)
        self.failures.extend(f"{algorithm}: {p}" for p in problems)

    def error(self, algorithm, e):
        self.attempted += 1
        self.failed += 1
        self.failures.append(f"{algorithm}: {type(e).__name__}: {e}")


def run_rep(configs, problem, outcome, tracer=None):
    """Both algorithms once; returns {algorithm: wall seconds} and the results."""
    times, results = {}, {}
    for algorithm, xc in configs.items():
        t0 = time.perf_counter()
        try:
            with tracer.installed() if tracer else contextlib.nullcontext():
                result = workloads.run_algorithm(xc, problem)
        except HflddError as e:
            outcome.error(algorithm, e)
            continue
        times[algorithm] = time.perf_counter() - t0
        results[algorithm] = result
        outcome.check(xc, result)
    return times, results


def timed_setups(xc, n, tracer=None):
    """Build the problem n times; returns the last build and each one's seconds."""
    times, problem = [], None
    for _ in range(n):
        problem = None  # free the previous problem before building the next
        t0 = time.perf_counter()
        with tracer.installed() if tracer else contextlib.nullcontext():
            problem = cli._build_problem(xc)
        times.append(time.perf_counter() - t0)
    return problem, times


def closed_loop(seconds, rep):
    """Call rep() until the next call would likely overrun `seconds`."""
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rep()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return len(durations)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(w, seed, seconds, outcome):
    configs = w.configs(seed)
    setup_times, reps = [], []

    def rep():
        problem, times = timed_setups(configs[w.parallel], SETUPS_PER_REP)
        setup_times.extend(times)
        reps.append(run_rep(configs, problem, outcome)[0])

    n_reps = closed_loop(seconds, rep)
    by_alg = {a: [r[a] for r in reps if a in r] for a in w.algorithms}
    run_s = [sum(r.values()) for r in reps if len(r) == len(w.algorithms)]
    if not run_s:
        raise RuntimeError("no repetition completed both algorithms")
    first = {a: outcome.first[a][1] for a in w.algorithms}
    report = {
        a: {
            "wall_s": by_alg[a],
            "final_accuracy": first[a].metrics[-1].accuracy,
            "ledger_bits": first[a].ledger.total_bits(),
            "metrics_sha256": workloads.metrics_digest(first[a].metrics),
        }
        for a in w.algorithms
    }
    print(f"repetitions: {n_reps}")
    print("algorithms: " + json.dumps(report, sort_keys=True))
    par, clu = w.parallel, w.clustered
    print(f"bits_ratio: {report[clu]['ledger_bits'] / report[par]['ledger_bits']!r} ({clu}/{par})")
    # Run times are means, not medians: the host's speed flips between two
    # levels for seconds at a time, and a median of about ten calls jumps
    # between them. Set-up, with about thirty samples, takes the median.
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "run_s": metric(statistics.mean(run_s), "s"),
        "parallel_s": metric(statistics.mean(by_alg[par]), "s"),
        "clustered_s": metric(statistics.mean(by_alg[clu]), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def layer_metrics(spans, counts, results) -> dict:
    """Per-layer figures of one traced repetition."""
    s = tr.summarize(spans)
    get = lambda name, key: s.get(name, {}).get(key, 0)
    kinds = {"model": 0, "soft-labels": 0, "distilled-data": 0}
    events = 0
    for r in results.values():
        events += len(r.ledger.events)
        for kind, bits in r.ledger.bits_by_kind().items():
            kinds[kind] += bits
    gradients = get("distill.kip_gradient", "calls")
    return {
        "model.backward.calls": (get("model.backward", "calls"), "count"),
        "model.backward.self_s": (get("model.backward", "self_s"), "s"),
        "model.sgd_step.self_s": (get("model.sgd_step", "self_s"), "s"),
        "model.forward.self_s": (get("model.forward", "self_s"), "s"),
        "fltrain.local_train.calls": (get("fltrain.local_train", "calls"), "count"),
        "fltrain.local_train.total_s": (get("fltrain.local_train", "total_s"), "s"),
        "fltrain.aggregate.calls": (get("fltrain.aggregate", "calls"), "count"),
        "fltrain.aggregate.self_s": (get("fltrain.aggregate", "self_s"), "s"),
        "fltrain.eval.self_s": (get("fltrain.eval", "self_s"), "s"),
        **{f"fltrain.stage.{k}": (v, "s") for k, v in tr.hfldd_stages(spans).items()},
        "distill.distill.calls": (get("distill.distill", "calls"), "count"),
        "distill.distill.total_s": (get("distill.distill", "total_s"), "s"),
        "distill.kip_gradient.calls": (gradients, "count"),
        "distill.kip_gradient.self_s": (get("distill.kip_gradient", "self_s"), "s"),
        "distill.kip_loss.calls": (get("distill.kip_loss", "calls"), "count"),
        "distill.solves_per_step": (
            get("numkernel.ridge_solve", "calls") / gradients if gradients else 0.0, "ratio"),
        "numkernel.rbf_kernel.calls": (get("numkernel.rbf_kernel", "calls"), "count"),
        "numkernel.rbf_kernel.self_s": (get("numkernel.rbf_kernel", "self_s"), "s"),
        "numkernel.ridge_solve.calls": (get("numkernel.ridge_solve", "calls"), "count"),
        "numkernel.ridge_solve.self_s": (get("numkernel.ridge_solve", "self_s"), "s"),
        "numkernel.as_matrix.calls": (counts["numkernel.as_matrix"], "count"),
        "topology.build_similarity.self_s": (get("topology.build_similarity", "self_s"), "s"),
        "topology.kl_divergence.calls": (counts["topology.kl_divergence"], "count"),
        "topology.kmeans_rows.self_s": (get("topology.kmeans_rows", "self_s"), "s"),
        "metrics.ledger.events": (events, "count"),
        "metrics.ledger.model_bits": (kinds["model"], "bit"),
        "metrics.ledger.soft_label_bits": (kinds["soft-labels"], "bit"),
        "metrics.ledger.distilled_bits": (kinds["distilled-data"], "bit"),
        "datagen.sample_classes.self_s": (get("datagen.sample_classes", "self_s"), "s"),
        "datagen.partition_label_skew.self_s": (get("datagen.partition_label_skew", "self_s"), "s"),
    }


def per_layer(w, seed, seconds, outcome):
    configs = w.configs(seed)
    rows, overheads, first_spans = [], [], []

    def pair():
        t = tr.Tracer()
        problem, _ = timed_setups(configs[w.parallel], 1, tracer=t)
        plain, _ = run_rep(configs, problem, outcome)
        traced, results = run_rep(configs, problem, outcome, tracer=t)
        if len(plain) == len(traced) == len(w.algorithms):
            overheads.append(sum(traced.values()) - sum(plain.values()))
            rows.append(layer_metrics(t.spans, t.counts, results))
            if not first_spans:
                first_spans.extend(t.spans)
                if "hfldd" in results:
                    print_hfldd(configs["hfldd"], results["hfldd"], t.spans)

    n_reps = closed_loop(seconds, pair)
    if not rows:
        raise RuntimeError("no traced repetition completed both algorithms")
    print(f"repetitions: {n_reps} untraced/traced pairs")
    print(f"spans: {write_spans(w, seed, first_spans)}")
    out = {
        name: metric(statistics.median(r[name][0] for r in rows), unit)
        for name, (_, unit) in rows[0].items()
    }
    out["trace.overhead_s"] = metric(statistics.median(overheads), "s")
    return out


def print_hfldd(xc, result, spans):
    """Traced seconds per role beside metrics.complexity_estimates, and the
    stage times beside the traced run_hfldd time they should account for."""
    estimates = complexity_estimates(
        workloads.cost_model(xc, result),
        kmeans_iters=DEFAULT_KMEANS_ITERS,
        pretrain_steps=xc.run.pretrain_steps,
        pretrain_batch=xc.run.pretrain_batch,
        local_steps=xc.run.local_steps,
        batch_size=xc.run.batch_size,
        kip_iters=xc.kip.iterations,
    )
    roles = tr.hfldd_roles(spans)
    table = {role: {"estimated_ops": estimates[role], "traced_s": roles[role]} for role in estimates}
    print("roles: " + json.dumps(table))
    stages = tr.hfldd_stages(spans)
    hfldd_s = sum(e - s for n, s, e, _ in spans if n == "fltrain.run_hfldd")
    print("stages: " + json.dumps({**stages, "sum_s": sum(stages.values()), "hfldd_s": hfldd_s}))


def write_spans(w, seed, spans) -> str:
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = spans[0][1] if spans else 0.0
    doc = {
        "env": env_stamp(),
        "fields": ["name", "start_s", "end_s", "parent"],
        "names": names,
        "spans": [[index[n], a - t0, b - t0, p] for n, a, b, p in spans],
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{w.name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, separators=(",", ":"))
    return os.path.relpath(path, ROOT)
