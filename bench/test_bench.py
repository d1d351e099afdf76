"""Tests of the benchmark's own code: tracer arithmetic and restoration,
traced runs, the INI rendering of workloads, and the correctness gate.

    python3 -m pytest -q bench/test_bench.py
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest

import tracer
import workloads
from hfldd import cli


def tiny(w):
    """A seconds-scale copy of `w` with the same algorithms and skew."""
    return workloads.Workload(w.name, w.parallel, w.clustered, workloads._with(
        w.sections,
        data={"per_class": "100", "dim": "8", "probe_size": "20"},
        partition={"clients": "20", "samples_per_client": "20"},
        train={"rounds": "2"},
        distill={"support_size": "4", "iterations": "3"},
        cluster={"k": "3"},
    ))


TINY = {name: tiny(w) for name, w in workloads.WORKLOADS.items()}


def test_self_time_of_nested_spans():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("d", 2.0, 3.0, 1),
        ("c", 5.0, 7.0, 0),
        ("e", 11.0, 12.0, -1),
    ]
    assert tracer.self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.0]
    s = tracer.summarize(spans)
    assert s["a"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert s["d"]["self_s"] == 1.0


def test_self_time_counts_overlapping_children_once():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 6.0, 0), ("c", 4.0, 12.0, 0)]
    assert tracer.self_times(spans)[0] == 1.0


def test_hfldd_stages_partition_the_run():
    spans = [
        ("fltrain.run_hfldd", 0.0, 20.0, -1),
        ("fltrain.local_train", 0.5, 1.5, 0),
        ("topology.build_topology", 2.0, 3.0, 0),
        ("topology.build_similarity", 2.0, 2.5, 2),
        ("distill.distill", 3.0, 8.0, 0),
        ("distill.distill", 8.0, 12.0, 0),
        ("fltrain.local_train", 13.0, 19.0, 0),
    ]
    assert tracer.hfldd_stages(spans) == {
        "label_s": 2.0, "cluster_s": 1.0, "distill_s": 9.0, "train_s": 7.0,
    }
    roles = tracer.hfldd_roles(spans)
    assert roles["member_pretrain"] == 1.0
    assert roles["server_similarity"] == 0.5
    assert roles["member_distill"] == 9.0
    assert roles["head_training"] == 6.0


def _bindings():
    return {
        (mod, attr): getattr(tracer.module(mod), attr)
        for table in (tracer.SPANS, tracer.COUNTS)
        for sites in table.values()
        for mod, attr in sites
    }


def test_every_site_is_wrapped_then_restored():
    before = _bindings()
    t = tracer.Tracer()
    with t.installed():
        during = _bindings()
    assert all(during[k] is not before[k] for k in before)
    assert _bindings() == before


def test_sites_are_restored_when_the_run_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.Tracer().installed():
            raise RuntimeError("boom")
    assert _bindings() == before


def test_distill_site_is_the_module_not_the_reexported_function():
    assert tracer.module("distill").__name__ == "hfldd.distill"


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_matches_untraced_and_sees_every_layer(name):
    w = TINY[name]
    configs = w.configs(3)
    xc = configs[w.clustered]
    p = cli._build_problem(xc)
    plain = {a: workloads.run_algorithm(c, p) for a, c in configs.items()}
    t = tracer.Tracer()
    with t.installed():
        cli._build_problem(xc)
        traced = {a: workloads.run_algorithm(c, p) for a, c in configs.items()}
    for a, c in configs.items():
        assert workloads.metrics_digest(plain[a].metrics) == workloads.metrics_digest(
            traced[a].metrics
        )
        assert workloads.gate(c, traced[a]) == []
    s = tracer.summarize(t.spans)
    assert s["datagen.sample_classes"]["calls"] == 2
    assert s["datagen.partition_label_skew"]["calls"] == 1
    assert s["model.backward"]["calls"] > 0
    assert s["fltrain.aggregate"]["calls"] == xc.run.rounds * len(configs)
    n = xc.partition.n_clients
    # Every client trains locally in every round of the parallel algorithm.
    assert s["fltrain.local_train"]["calls"] >= n * xc.run.rounds
    if w.clustered == "hfldd":
        heads = len(traced["hfldd"].topology.heads)
        assert s["distill.kip_gradient"]["calls"] == (n - heads) * xc.kip.iterations
        assert t.counts["topology.kl_divergence"] == n * (n - 1)
        stages = tracer.hfldd_stages(t.spans)
        hfldd_s = s["fltrain.run_hfldd"]["total_s"]
        assert 0.9 * hfldd_s <= sum(stages.values()) <= hfldd_s
    else:
        assert "distill.distill" not in s
        assert "topology.build_topology" not in s


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_ini_text_loads_as_the_same_configuration(name, tmp_path):
    w = workloads.WORKLOADS[name]
    for algorithm, xc in w.configs(5).items():
        path = tmp_path / f"{algorithm}.ini"
        path.write_text(workloads.ini_text(w, 5, algorithm))
        assert cli.load_config(str(path)) == xc


def test_gate_flags_a_wrong_ledger():
    w = TINY["paired-skew1"]
    xc = w.configs(2)["fedavg"]
    result = workloads.run_algorithm(xc, cli._build_problem(xc))
    assert workloads.gate(xc, result) == []
    result.ledger.record(1, "client-0", "server", "model", 8)
    assert any("closed form" in m for m in workloads.gate(xc, result))
