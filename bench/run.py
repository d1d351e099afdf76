"""hfldd benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload paired-skew1 --seed 1 --seconds 40 --trace 0

The workload's configuration is made from --seed. A closed loop then runs
repetitions until --seconds is spent: each one builds the problem (several
times, to time set-up) and runs the two simulator calls back to back.
Every call passes the correctness gate in
`workloads.gate`, and every repetition must reproduce the first one's
metrics.csv digest. Earlier stdout lines give the environment, each
algorithm's figures and digests, and (traced) the measured cost per role;
the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end figures from untraced
repetitions: the median set-up time and the mean run times. With --trace 1
untraced and traced repetitions alternate; the metrics are per-layer counts
and self times (medians over traced repetitions), and trace.overhead_s is
traced minus untraced run time. The first traced repetition's spans are
written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# One BLAS thread, whatever the caller's environment says: the matrices here
# are small (16-row batches, 80-point kernels), and a second thread adds CPU
# time, not speed, while it exposes the run to contention from other
# processes. The variables must be set before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "hfldd", "__init__.py")):
        print(f"error: no hfldd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    print("env: " + json.dumps(measure.env_stamp(), sort_keys=True))
    print(f"workload: {w.name} seed {args.seed} trace {args.trace}")
    outcome = measure.Outcome()
    run = measure.per_layer if args.trace else measure.end_to_end
    try:
        metrics = run(w, args.seed, args.seconds, outcome)
    except RuntimeError as e:
        metrics, error = None, e
    for f in outcome.failures:
        print(f"failed: {f}", file=sys.stderr)
    if metrics is None:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
