"""Per-stage heap of one simulator call, as tracemalloc sees it.

    python3 tools/stage_memory.py --workload paired-skew1 --seed 1 [--root DIR]

Builds the benchmark workload's problem from the checkout at --root
(default: this repository), runs each of its two algorithms once to warm
up, then once more with every `fltrain._stage` wrapped. For each stage it
prints, in MiB above the heap at the call's entry (the problem excluded),
the live heap when the stage starts and ends and the peak inside it, with
the training rounds folded into one row (the largest of each figure over
the rounds), and the whole call's peak. The "round evaluation" row is the
live heap when each round's `_round_metrics` starts, folded the same way;
reading it leaves the round's peak as it is. The last line is all of it as
JSON.

`peak_rss_mb` in the benchmark also moves with how much freed heap the C
allocator keeps; tracemalloc counts only the Python-visible allocations.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
import tracemalloc

MIB = float(1 << 20)
FIGURES = ("live_start", "live_end", "peak")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    return p.parse_args(argv)


def stage_table(fltrain, call):
    """([(stage, live at start, live at end, peak inside)], the call's peak)
    for one call(), in MiB above the live heap at its entry. The round
    evaluation row has only its live start; the others are None."""
    rows = {}
    top = 0
    original, metrics = fltrain._stage, fltrain._round_metrics
    evaluation = []

    def fold_peak():
        nonlocal top
        top = max(top, tracemalloc.get_traced_memory()[1])

    @contextlib.contextmanager
    def traced(name, round_index=None):
        fold_peak()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        try:
            with original(name, round_index):
                yield
        finally:
            end, peak = tracemalloc.get_traced_memory()
            label = name if round_index is None else "training rounds"
            row = [(start - base) / MIB, (end - base) / MIB, (peak - base) / MIB]
            rows[label] = [max(x, y) for x, y in zip(rows.get(label, row), row)]

    def evaluated(*args):
        evaluation.append(tracemalloc.get_traced_memory()[0])
        return metrics(*args)

    gc.collect()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    fltrain._stage, fltrain._round_metrics = traced, evaluated
    try:
        call()
    finally:
        fltrain._stage, fltrain._round_metrics = original, metrics
    fold_peak()
    table = [(label, *(round(v, 2) for v in row)) for label, row in rows.items()]
    if evaluation:
        table.append(("round evaluation", round((max(evaluation) - base) / MIB, 2), None, None))
    return table, round((top - base) / MIB, 2)


def mib(v, width):
    return f"{'-' if v is None else f'{v:.2f}':>{width}}"


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(args.root, "src"), os.path.join(args.root, "bench")]
    import workloads
    from hfldd import cli, fltrain

    w = workloads.WORKLOADS[args.workload]
    configs = w.configs(args.seed)
    tracemalloc.start()
    problem = cli._build_problem(configs[w.parallel])
    out = {"workload": w.name, "seed": args.seed, "algorithms": {}}
    for a in w.algorithms:
        call = lambda: workloads.run_algorithm(configs[a], problem)
        call()
        table, peak = stage_table(fltrain, call)
        out["algorithms"][a] = {
            "stages_mib": {
                label: {k: v for k, v in zip(FIGURES, row) if v is not None} for label, *row in table
            },
            "call_peak_mib": peak,
        }
        print(f"{a}: peak {peak:.2f} MiB above entry")
        print(f"  {'stage':<18} {'live start':>10} {'live end':>9} {'peak':>7}")
        for label, s, e, p in table:
            print(f"  {label:<18} {mib(s, 10)} {mib(e, 9)} {mib(p, 7)}")
    tracemalloc.stop()
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
