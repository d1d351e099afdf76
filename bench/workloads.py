"""Benchmark workloads: `hfldd run` configurations, the simulator dispatch,
and the correctness gate applied to every simulator call.

Each workload is the sections of an `hfldd run` INI file (only the keys that
differ from the command-line defaults). Configurations and problems are
built by the command-line tool's own functions, so any run of the benchmark
can be reproduced with `hfldd run`: render the file with `ini_text`.
"""

from __future__ import annotations

import hashlib
import importlib
import math
from dataclasses import dataclass

cli = importlib.import_module("hfldd.cli")
errors = importlib.import_module("hfldd.errors")
fltrain = importlib.import_module("hfldd.fltrain")
hmetrics = importlib.import_module("hfldd.metrics")


@dataclass(frozen=True)
class Workload:
    """One benchmark problem plus the pair of algorithms run on it.

    `parallel` trains every client each round (fedavg or fedprox);
    `clustered` groups clients first (hfldd heads or fedseq chains).
    `sections` holds the INI keys, as strings, that differ from the
    defaults of `hfldd run`.
    """

    name: str
    parallel: str
    clustered: str
    sections: dict

    @property
    def algorithms(self) -> tuple[str, str]:
        return (self.parallel, self.clustered)

    def raw(self, seed: int, algorithm: str) -> dict:
        experiment = {"seed": str(seed), "algorithm": algorithm, "output_dir": f"runs/{self.name}"}
        return {"experiment": experiment, **self.sections}

    def configs(self, seed: int) -> dict:
        """{algorithm: cli.ExperimentConfig}, parsed as `hfldd run` parses the file."""
        return {
            a: cli._experiment_from_echo(cli._normalize(self.raw(seed, a)))
            for a in self.algorithms
        }


# The settings of the paired acceptance runs (support 80, k = 10, batch 16),
# with schedules much shorter than their 50 rounds and 300 KIP iterations. A
# shared 2-core host changes speed by up to 1.8x in bursts of seconds, so a
# run's figure is the median of many short calls, not one long call. On
# paired-skew1, distillation keeps about two thirds of hfldd's time, as in
# the full schedule.
_PAIRED = {
    "data": {"per_class": "448", "dim": "1024", "separation": "5.5"},
    "partition": {"clients": "20", "samples_per_client": "160"},
    "train": {"rounds": "3", "batch_size": "16"},
    "distill": {"support_size": "80", "iterations": "60"},
    "cluster": {"k": "10"},
}


def _with(base: dict, **sections) -> dict:
    names = dict.fromkeys([*base, *sections])
    return {s: {**base.get(s, {}), **sections.get(s, {})} for s in names}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paired-skew1", "fedavg", "hfldd", _with(
            _PAIRED, partition={"classes_per_client": "1"},
        )),
        # 250 clients x 2 classes x 20 rows use 1000 training rows per class.
        # split_train_test is random per class, so per_class carries a 1.5x
        # margin over 1000 / (1 - test_fraction); the exact amount can raise
        # CapacityError in partition_label_skew. 250 clients, not more, keep
        # an hfldd call near 3 s so that a run holds about ten repetitions;
        # the O(N^2) similarity loop is still half of it.
        Workload("crowd-250", "fedavg", "hfldd", _with(
            _PAIRED,
            data={"per_class": "1875", "dim": "32"},
            partition={"clients": "250", "classes_per_client": "2", "samples_per_client": "40"},
            distill={"support_size": "10", "iterations": "10"},
        )),
        # prox_mu must be positive: with mu = 0 run_fedprox takes the fedavg
        # path and the proximal local loop is never run.
        Workload("prox-seq", "fedprox", "fedseq", _with(
            _PAIRED,
            partition={"classes_per_client": "2"},
            train={"prox_mu": "0.01", "seq_clusters": "4", "seq_cluster_size": "5"},
        )),
    )
}


def ini_text(w: Workload, seed: int, algorithm: str) -> str:
    """The `hfldd run` configuration file that reproduces one algorithm of `w`."""
    lines = []
    for section, keys in w.raw(seed, algorithm).items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in sorted(keys.items()))
        lines.append("")
    return "\n".join(lines)


def run_algorithm(xc, problem):
    """One simulator call, dispatched the way `hfldd run` dispatches it.

    Entry points are looked up on `fltrain` at call time so that a tracer
    which replaced them sees the call.
    """
    clients, probe, test = problem
    if xc.algorithm == "fedavg":
        return fltrain.run_fedavg(clients, test, xc.run, xc.bits_per_param)
    if xc.algorithm == "fedprox":
        return fltrain.run_fedprox(clients, test, xc.run, xc.bits_per_param)
    if xc.algorithm == "fedseq":
        return fltrain.run_fedseq_lite(
            clients, test, xc.run, xc.seq_clusters, xc.seq_cluster_size, xc.bits_per_param
        )
    return fltrain.run_hfldd(
        clients, probe, test, xc.run, xc.kip, xc.k, xc.bits_per_param,
        xc.bits_per_sample or xc.data["dim"] * 64,
    )


def cost_model(xc, result):
    """The closed-form inputs for a finished run, as `hfldd run` audits it."""
    return cli._cost_model_for(xc, result, result.final_model.parameter_count())


def metrics_digest(metrics) -> str:
    """sha256 of the run directory's metrics.csv text."""
    return hashlib.sha256(cli._metrics_csv(metrics).encode("utf-8")).hexdigest()


def gate(xc, result) -> list[str]:
    """Every reason the run's outputs are wrong; empty when they are right."""
    problems = []
    report = hmetrics.ledger_audit(result.ledger, cost_model(xc, result), xc.algorithm)
    if report.discrepancy_bits != 0:
        problems.append(
            f"ledger {report.ledger_bits} bits != closed form {report.closed_form_bits}"
        )
    if len(result.metrics) != xc.run.rounds:
        problems.append(f"{len(result.metrics)} metric rows for {xc.run.rounds} rounds")
    for m in result.metrics:
        if not (math.isfinite(m.accuracy) and 0.0 <= m.accuracy <= 1.0):
            problems.append(f"round {m.round_index}: accuracy {m.accuracy!r}")
        if not math.isfinite(m.loss):
            problems.append(f"round {m.round_index}: loss {m.loss!r}")
    if xc.algorithm == "hfldd":
        try:
            result.topology.validate()
        except errors.HflddError as e:
            problems.append(f"topology: {e}")
    return problems
