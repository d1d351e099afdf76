"""The benchmark's six simulator runs reproduce pinned metrics.csv bytes.

The configurations come from `bench/workloads.py` itself, so these are the
runs `bench/run.py` measures. A change that moves a digest on purpose updates
the pin here and says which digest moved, and why, in CHANGES.md.
"""

import os
import sys

import pytest

from hfldd import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

SEED = 1
PINNED = {
    ("paired-skew1", "fedavg"): "bdf4b49ebbd50b5c402e0d3708e6b20fb18f15a0cdafb5f473a059a7ef8a9651",
    ("paired-skew1", "hfldd"): "9a3e6e20f89c1311d3a4c0f7ca76514efb55dd37bad6e043176958e72ac4a86e",
    ("crowd-250", "fedavg"): "5f22dab93601d3ab2cb683a247e21271127e16f8926d05c838e2cbc97ec79b0e",
    ("crowd-250", "hfldd"): "f7bdd7811a2e1ca90e62176380e3c3df1d8c7310f319a7feae3819a15df17c09",
    ("prox-seq", "fedprox"): "e20ce6d3daa1c998d290ff0c57e5249245ff9442539541cee172139ed40ab834",
    ("prox-seq", "fedseq"): "b20dafe6f80def4ec2151c01ffcca587fe9a50e80d83aa74f3f4aca9bf1b499a",
}


def test_every_benchmark_run_is_pinned():
    runs = {(w.name, a) for w in workloads.WORKLOADS.values() for a in w.algorithms}
    assert runs == set(PINNED)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_metrics_digests_match_the_pins(name):
    w = workloads.WORKLOADS[name]
    configs = w.configs(SEED)
    problem = cli._build_problem(configs[w.parallel])
    for algorithm, xc in configs.items():
        result = workloads.run_algorithm(xc, problem)
        assert workloads.gate(xc, result) == []
        assert workloads.metrics_digest(result.metrics) == PINNED[(name, algorithm)], algorithm
