"""Command-line surface: config parsing, run outputs, replay, compare, cost.

Every invocation goes through main(argv) so the tests cover argument wiring
and exit codes exactly as a shell user would see them.
"""

import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import hfldd
from hfldd import cli, fltrain
from hfldd.cli import ExperimentConfig, load_config, load_manifest, main
from hfldd.datagen import PartitionSpec
from hfldd.distill import KipConfig
from hfldd.errors import ConfigError, ManifestError
from hfldd.fltrain import run_fedavg, run_hfldd
from hfldd.metrics import (
    CostModel,
    bits_to_megabytes,
    cost_fedavg,
    cost_fedseq,
    cost_hfldd,
    ledger_audit,
)
from hfldd.numkernel import SeededRng

from test_datagen import write_idx_pair

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def config_text(out_dir, algorithm="fedavg", train_extra="", **overrides):
    values = dict(
        seed=5,
        classes=3,
        per_class=60,
        dim=4,
        probe_size=9,
        clients=4,
        classes_per_client=2,
        samples_per_client=20,
        rounds=2,
        support_size=2,
        k=2,
    )
    values.update(overrides)
    return f"""
[experiment]
seed = {values['seed']}
algorithm = {algorithm}
output_dir = {out_dir}

[data]
classes = {values['classes']}
per_class = {values['per_class']}
dim = {values['dim']}
separation = 4.0
test_fraction = 0.25
probe_size = {values['probe_size']}

[partition]
clients = {values['clients']}
classes_per_client = {values['classes_per_client']}
samples_per_client = {values['samples_per_client']}

[train]
rounds = {values['rounds']}
local_steps = 1
pretrain_steps = 1
learning_rate = 0.05
batch_size = 8
pretrain_batch = 16
hidden = 8
{train_extra}

[distill]
support_size = {values['support_size']}
learning_rate = 0.01
iterations = 10
target_batch = 4

[cluster]
k = {values['k']}
"""


def idx_config_text(tmp_path, out_dir):
    """An hfldd config over 180 8x8 IDX images in 3 classes; [data] dim is 16,
    a synthetic-data key the IDX loader ignores."""
    gen = SeededRng(3).generator()
    labels = [i % 3 for i in range(180)]
    img, lab = write_idx_pair(tmp_path, gen.integers(0, 256, size=(180, 8, 8)), labels)
    return config_text(out_dir, algorithm="hfldd", dim=16).replace(
        "[data]\n", f"[data]\nkind = idx\nimages = {img}\nlabels = {lab}\n"
    )


def run_per_blas_thread_count(argv_for):
    """Run `python *argv_for(threads)` with OpenBLAS on 1 thread and, on a
    multi-core host, on 2; returns {threads: stdout}."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hfldd.__file__)))
    stdout = {}
    for threads in sorted({1, min(2, os.cpu_count() or 1)}):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        stdout[threads] = subprocess.run(
            [sys.executable, *argv_for(threads)],
            env=env,
            check=True,
            capture_output=True,
            timeout=300,
        ).stdout
    return stdout


# `hfldd run` on a build whose OpenBLAS thread counts hfldd cannot set: with
# the controls removed, every stage runs at the caller's OPENBLAS_NUM_THREADS.
UNMANAGED_RUN = """
import sys
from hfldd import cli, numkernel
numkernel.BLAS_THREADS.clear()
numkernel.BLAS_PINNED = False
sys.exit(cli.main(["run", *sys.argv[1:]]))
"""


def unmanaged_metrics_per_thread_count(cfg, out):
    """metrics.csv bytes of an unmanaged `hfldd run cfg` per OpenBLAS thread
    count that run_per_blas_thread_count sets; out(threads) is the run dir."""
    runs = run_per_blas_thread_count(
        lambda threads: ["-c", UNMANAGED_RUN, cfg, "--out", str(out(threads))]
    )
    for threads in runs:
        manifest = json.loads((out(threads) / "manifest.json").read_text())
        assert manifest["blas_threads"] == "unmanaged"
    return [(out(threads) / "metrics.csv").read_bytes() for threads in runs]


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def traced_build(xc):
    """cli._build_problem(xc) and the peak bytes tracemalloc saw it add."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        problem = cli._build_problem(xc)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    return problem, peak


def problem_sha256(problem) -> str:
    clients, probe, test = problem
    h = hashlib.sha256()
    for d in [c.data for c in clients] + [probe, test]:
        h.update(d.features.tobytes())
        h.update(d.labels.tobytes())
    return h.hexdigest()


def problem_bytes(problem) -> int:
    clients, probe, test = problem
    return sum(d.features.nbytes + d.labels.nbytes for d in [c.data for c in clients] + [probe, test])


class TestBuildProblem:
    """A build plans every row from labels and row counts, then makes each
    block once, so it never holds a copy of the sample pool. A synthetic
    build peaks below the problem it returns plus two class draws (one
    class's draw and one bounded gather); an IDX build below the loaded
    images plus the problem. Holding the pool and its train/test split
    would take about twice the synthetic bound."""

    def test_synthetic_build_peaks_at_its_problem_plus_two_class_draws(self, tmp_path):
        text = config_text(
            tmp_path / "unused", classes=10, per_class=100, dim=1024, clients=20,
            classes_per_client=1, samples_per_client=30, probe_size=20,
        )
        problem, peak = traced_build(load_config(write_config(tmp_path, "wide.ini", text)))
        class_draw = 100 * 1024 * 8
        assert peak < problem_bytes(problem) + 2 * class_draw
        clients, probe, test = problem
        assert sum(c.data.n_rows() for c in clients) == 600 and test.n_rows() == 250
        # drawing only the planned rows must not move a bit of the problem
        assert problem_sha256(problem) == (
            "8bf48e999780e7016a46ec67270f00a68e11209c48f152f6521ea72ef4320ea6"
        )
        # the clients and the test set are disjoint row views of one block
        parts = [c.data for c in clients] + [test]
        assert len({id(p.features.base) for p in parts}) == 1
        assert parts[0].features.base is not None
        for i, p in enumerate(parts):
            assert p.features.flags.c_contiguous and p.labels.flags.c_contiguous
            for q in parts[i + 1 :]:
                assert not np.shares_memory(p.features, q.features)
                assert not np.shares_memory(p.labels, q.labels)

    def test_idx_build_peaks_at_the_loaded_images_plus_its_problem(self, tmp_path):
        n = 1500
        images = SeededRng(12).generator().integers(0, 256, size=(n, 28, 28))
        img, lab = write_idx_pair(tmp_path, images, [i % 10 for i in range(n)])
        text = config_text(
            tmp_path / "unused", classes=10, clients=20, classes_per_client=1,
            samples_per_client=40, probe_size=20,
        ).replace("[data]\n", f"[data]\nkind = idx\nimages = {img}\nlabels = {lab}\n")
        problem, peak = traced_build(load_config(write_config(tmp_path, "idx.ini", text)))
        # the loaded dataset (pixels as float64, one-hot labels), plus eight
        # bytes per loaded row for each of the row plans and index temporaries
        loaded = n * (28 * 28 + 10) * 8
        assert peak < loaded + problem_bytes(problem) + 8 * 8 * n
        # how the loader holds the bytes must not move a bit of the problem
        assert problem_sha256(problem) == (
            "252a2c280aab7a4073361540c2aa02a2a390a2374fecad5b5c37b4e5a3658f84"
        )

    def test_probe_shift_moves_only_the_probe_whatever_its_sign(self, tmp_path):
        def build(shift):
            text = config_text(tmp_path / "unused").replace(
                "[data]\n", f"[data]\nprobe_shift = {shift}\n"
            )
            clients, probe, test = cli._build_problem(load_config(write_config(tmp_path, "p.ini", text)))
            rest = [c.data for c in clients] + [test]
            return probe, b"".join(d.features.tobytes() + d.labels.tobytes() for d in rest)

        (p0, rest0), (p1, rest1) = build(0), build(-1)
        # shift 0 is the unshifted probe, bit for bit; -1 used to mean no shift
        assert hashlib.sha256(p0.features.tobytes() + p0.labels.tobytes()).hexdigest() == (
            "d5c7d82b1a7a7e1ab6d9723afc09ebbcd88dd37f979569227735c737d7bd954c"
        )
        assert not np.array_equal(p1.features, p0.features)
        assert np.array_equal(p1.labels, p0.labels)
        # the shift has its own stream, so the clients and the test set stay
        assert rest1 == rest0


class TestConfigLoading:
    def test_defaults_fill_missing_sections(self, tmp_path):
        path = write_config(tmp_path, "min.ini", "[experiment]\noutput_dir = out\n")
        xc = load_config(path)
        assert xc.algorithm == "hfldd"
        assert xc.seed == 0
        assert xc.partition.n_clients == 20
        assert xc.run.rounds == 300
        assert xc.kip.iterations == 3000
        assert xc.k == 10
        assert xc.data["classes"] == 10
        # the schema derives these two echo strings from RunConfig's defaults
        defaults = {f.name: f.default for f in fields(fltrain.RunConfig)}
        assert xc.run.pretrain_batch == defaults["pretrain_batch"] == 64
        assert xc.run.hidden_sizes == defaults["hidden_sizes"] == (64, 64)
        assert (xc.echo["train"]["pretrain_batch"], xc.echo["train"]["hidden"]) == ("64", "64,64")

    def test_seed_has_one_copy(self, tmp_path):
        # The experiment seed lives in RunConfig only: replacing it there
        # moves the generated data as well as the training streams.
        base = load_config(write_config(tmp_path, "a.ini", config_text(tmp_path / "a")))
        nine = load_config(write_config(tmp_path, "b.ini", config_text(tmp_path / "b", seed=9)))
        moved = replace(base, run=replace(base.run, seed=9))
        assert base.seed == 5 and moved.seed == 9
        clients, _, test = cli._build_problem(moved)
        clients9, _, test9 = cli._build_problem(nine)
        assert np.array_equal(test.features, test9.features)
        for c, c9 in zip(clients, clients9, strict=True):
            assert np.array_equal(c.data.features, c9.data.features)
        ran = run_fedavg(clients, test, moved.run).final_model.params
        assert np.array_equal(ran, run_fedavg(clients9, test9, nine.run).final_model.params)
        clients5, _, test5 = cli._build_problem(base)
        assert not np.array_equal(ran, run_fedavg(clients5, test5, base.run).final_model.params)

    def test_missing_output_dir(self, tmp_path):
        path = write_config(tmp_path, "bad.ini", "[experiment]\nseed = 1\n")
        with pytest.raises(ConfigError, match="output_dir"):
            load_config(path)

    def test_unknown_section(self, tmp_path):
        path = write_config(
            tmp_path, "bad.ini", "[experiment]\noutput_dir = out\n[throughput]\nx = 1\n"
        )
        with pytest.raises(ConfigError, match="throughput"):
            load_config(path)

    def test_unknown_key(self, tmp_path):
        path = write_config(
            tmp_path, "bad.ini", "[experiment]\noutput_dir = out\nlearning_rate = 1\n"
        )
        with pytest.raises(ConfigError, match="learning_rate"):
            load_config(path)

    def test_unparseable_value(self, tmp_path):
        path = write_config(
            tmp_path, "bad.ini", "[experiment]\noutput_dir = out\n[train]\nrounds = soon\n"
        )
        with pytest.raises(ConfigError, match="rounds"):
            load_config(path)

    def test_bad_algorithm_choice(self, tmp_path):
        path = write_config(
            tmp_path, "bad.ini", "[experiment]\noutput_dir = out\nalgorithm = gossip\n"
        )
        with pytest.raises(ConfigError, match="gossip"):
            load_config(path)

    def test_semantic_violation_is_config_error(self, tmp_path):
        # more classes per client than classes exist
        path = write_config(
            tmp_path, "bad.ini", config_text("out", classes_per_client=5, classes=3)
        )
        with pytest.raises(ConfigError):
            load_config(path)

    def test_fedseq_shape_checked(self, tmp_path):
        text = config_text("out", algorithm="fedseq", train_extra="seq_clusters = 3\nseq_cluster_size = 2")
        path = write_config(tmp_path, "bad.ini", text)
        with pytest.raises(ConfigError, match="seq_clusters"):
            load_config(path)

    def test_hfldd_k_bounds_checked(self, tmp_path):
        path = write_config(tmp_path, "bad.ini", config_text("out", algorithm="hfldd", k=9))
        with pytest.raises(ConfigError, match="cluster k"):
            load_config(path)

    def test_idx_kind_needs_paths(self, tmp_path):
        path = write_config(
            tmp_path, "bad.ini", "[experiment]\noutput_dir = out\n[data]\nkind = idx\n"
        )
        with pytest.raises(ConfigError, match="idx"):
            load_config(path)

    def test_inline_comments_stripped(self, tmp_path):
        path = write_config(
            tmp_path,
            "ok.ini",
            "[experiment]\noutput_dir = out\n[train]\nrounds = 7  # keep it quick\n",
        )
        assert load_config(path).run.rounds == 7

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.ini"))

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"[experiment]\noutput_dir = out\n\xff\xfe\n")
        with pytest.raises(ConfigError):
            load_config(str(path))


def schema_fields() -> list[tuple[str, str, str]]:
    """(section, key, field) for every field a `_SCHEMA` entry names."""
    return [
        (section, key, field)
        for section, keys in cli._SCHEMA.items()
        for key, (_, _, *named) in keys.items()
        for field in named
    ]


class TestSchemaFields:
    """Each `_SCHEMA` entry is its key's one declaration: a config field
    added without a key, or a key naming a field that is not there, fails."""

    def test_every_config_field_is_filled_by_exactly_one_key(self):
        nested = {"data", "partition", "run", "kip", "echo"}
        expected = (
            [f"partition.{f.name}" for f in fields(PartitionSpec)]
            + [f"run.{f.name}" for f in fields(fltrain.RunConfig)]
            + [f"kip.{f.name}" for f in fields(KipConfig)]
            + [f"xc.{f.name}" for f in fields(ExperimentConfig) if f.name not in nested]
        )
        filled = [field for *_, field in schema_fields() if not field.startswith("data.")]
        assert sorted(filled) == sorted(expected)

    def test_each_data_field_has_its_keys_name(self):
        data = [(section, key, field) for section, key, field in schema_fields()
                if field.startswith("data.")]
        assert data == [("data", key, f"data.{key}") for key in cli._SCHEMA["data"]]

    def test_classes_also_fills_the_partition_class_count(self, tmp_path):
        xc = load_config(write_config(tmp_path, "a.ini", config_text("out", classes=3)))
        assert xc.data["classes"] == xc.partition.total_classes == 3


class TestManifestFixture:
    """`fixtures/replay/manifest.json` was written by `hfldd run` on the INI
    beside it at an earlier version of the package. It loads as that INI
    does, and replays its run: compared with a fresh run, not stored bytes,
    because the digits depend on the CPU's kernels."""

    ini = str(FIXTURES / "replay" / "run.ini")
    manifest = str(FIXTURES / "replay" / "manifest.json")

    def test_loads_as_its_config(self):
        assert load_manifest(self.manifest) == load_config(self.ini)

    def test_replay_matches_a_fresh_run(self, tmp_path):
        fresh, replay = tmp_path / "fresh", tmp_path / "replay"
        assert main(["run", self.ini, "--out", str(fresh)]) == 0
        assert main(["run", "--from-manifest", self.manifest, "--out", str(replay)]) == 0
        assert (replay / "metrics.csv").read_bytes() == (fresh / "metrics.csv").read_bytes()


class TestRunCommand:
    def test_fedavg_outputs(self, tmp_path, capsys):
        out = tmp_path / "run_fa"
        cfg = write_config(tmp_path, "fa.ini", config_text(out))
        assert main(["run", cfg]) == 0
        names = sorted(os.listdir(out))
        assert names == ["cost.json", "manifest.json", "metrics.csv"]
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "round,accuracy,loss,cumulative_bits"
        assert len(lines) == 3
        report = json.loads((out / "cost.json").read_text())
        assert report["algorithm"] == "fedavg"
        assert report["discrepancy_bits"] == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema"] == "hfldd-run-manifest-v1"
        assert manifest["seed"] == 5
        assert "run complete" in capsys.readouterr().out

    def test_hfldd_outputs_include_topology(self, tmp_path):
        out = tmp_path / "run_hf"
        cfg = write_config(tmp_path, "hf.ini", config_text(out, algorithm="hfldd"))
        assert main(["run", cfg]) == 0
        names = sorted(os.listdir(out))
        assert names == ["cost.json", "manifest.json", "metrics.csv", "topology.json"]
        topo = json.loads((out / "topology.json").read_text())
        assert topo["seed"] == 5
        assert sorted(i for c in topo["homogeneous"] for i in c) == [0, 1, 2, 3]
        report = json.loads((out / "cost.json").read_text())
        assert report["algorithm"] == "hfldd"
        assert report["discrepancy_bits"] == 0
        assert set(report["by_kind"]) == {"model", "soft-labels", "distilled-data"}

    @pytest.mark.parametrize("algorithm", ["fedavg", "hfldd"])
    def test_an_unused_chain_shape_is_not_audited(self, tmp_path, algorithm):
        # only fedseq runs chains; 2 x 5 does not fit 4 clients, and the
        # closed form of another algorithm does not read it
        out = tmp_path / "run"
        text = config_text(out, algorithm, train_extra="seq_clusters = 2\nseq_cluster_size = 5")
        assert main(["run", write_config(tmp_path, "c.ini", text)]) == 0
        assert json.loads((out / "cost.json").read_text())["discrepancy_bits"] == 0

    @pytest.mark.parametrize(
        "algorithm, digest",
        [
            ("fedavg", "e7fdf4eab4077a652b7c4a37ac199888ae9f98dc8d964722eb61ecc980477f4e"),
            ("hfldd", "340a655e5a717b39498e8c0daa13775a47f305603059dd43c0e94ccbe913a784"),
        ],
        ids=["fedavg", "hfldd"],
    )
    def test_cost_json_text_is_pinned(self, tmp_path, algorithm, digest):
        # every CostReport field once, keys sorted at both levels; the
        # digests were taken when cost.json was built key by key
        out = tmp_path / "run"
        assert main(["run", write_config(tmp_path, "c.ini", config_text(out, algorithm=algorithm))]) == 0
        text = (out / "cost.json").read_text(encoding="utf-8")
        doc = json.loads(text)
        assert list(doc) == [
            "algorithm", "by_kind", "closed_form_bits", "discrepancy_bits", "ledger_bits",
            "megabytes_decimal", "relative_discrepancy",
        ]
        assert list(doc["by_kind"]) == ["distilled-data", "model", "soft-labels"]
        assert doc["megabytes_decimal"] == bits_to_megabytes(doc["ledger_bits"])
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_idx_distilled_rows_cost_their_pixel_count(self, tmp_path):
        # [data] dim is a synthetic-data key; an 8x8 IDX row has 64 features
        out = tmp_path / "run_idx"
        text = idx_config_text(tmp_path, out)
        assert main(["run", write_config(tmp_path, "idx.ini", text)]) == 0
        report = json.loads((out / "cost.json").read_text())
        members = 4 - len(json.loads((out / "topology.json").read_text())["heads"])
        assert members > 0
        assert report["by_kind"]["distilled-data"] == members * 2 * 64 * 64
        assert report["discrepancy_bits"] == 0

    def test_audit_prices_rows_at_what_the_run_charged(self, tmp_path):
        # a caller (the benchmark harness, say) picks its own price per
        # distilled row; the CLI's closed form must use the same price
        xc = load_config(write_config(tmp_path, "idx.ini", idx_config_text(tmp_path, "unused")))
        clients, probe, test = cli._build_problem(xc)
        price = 16 * 64
        result = run_hfldd(clients, probe, test, xc.run, xc.kip, xc.k, xc.bits_per_param, price)
        assert result.bits_per_sample == price
        cost = cli._cost_model_for(xc, result, result.final_model.parameter_count())
        report = ledger_audit(result.ledger, cost, "hfldd")
        members = xc.partition.n_clients - result.topology.n_heads()
        assert report.by_kind["distilled-data"] == members * xc.kip.support_size * price > 0
        assert report.discrepancy_bits == 0

    @pytest.mark.parametrize(
        "algorithm, old, new",
        [
            ("fedprox", "[train]\n", "[train]\nprox_mu = nan\n"),
            ("fedavg", "learning_rate = 0.05", "learning_rate = inf"),
            ("hfldd", "[distill]\n", "[distill]\nridge_lambda = nan\n"),
            # probe_shift > 0 is false for NaN, which used to mean "no shift"
            ("fedavg", "[data]\n", "[data]\nprobe_shift = nan\n"),
        ],
        ids=["prox_mu", "learning_rate", "ridge_lambda", "probe_shift"],
    )
    def test_non_finite_knob_exits_2(self, tmp_path, capsys, algorithm, old, new):
        out = tmp_path / "never"
        text = config_text(out, algorithm=algorithm)
        assert old in text
        cfg = write_config(tmp_path, "bad.ini", text.replace(old, new))
        assert main(["run", cfg]) == 2
        assert not out.exists()
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "algorithm, extra, stage",
        [
            ("fedavg", "", "[training]"),
            ("fedprox", "prox_mu = 0.01", "[training]"),
            ("fedseq", "seq_clusters = 2\nseq_cluster_size = 2", "[training]"),
            # without pretraining, hfldd first trains in its head rounds
            ("hfldd", "", "[training]"),
            ("hfldd", "", "[label-collection]"),
        ],
        ids=["fedavg", "fedprox", "fedseq", "hfldd", "hfldd-pretraining"],
    )
    def test_divergence_exits_3_naming_stage_and_round(self, tmp_path, capsys, algorithm, extra, stage):
        out = tmp_path / "never"
        text = config_text(out, algorithm=algorithm, train_extra=extra, dim=8)
        text = text.replace("learning_rate = 0.05", "learning_rate = 1e200")
        if stage == "[training]":
            text = text.replace("pretrain_steps = 1", "pretrain_steps = 0")
        cfg = write_config(tmp_path, "diverge.ini", text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", cfg]) == 3
        err = capsys.readouterr().err
        assert stage in err and "diverged" in err
        if stage == "[training]":
            assert "round 1" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    @pytest.mark.parametrize(
        "algorithm, extra, stage",
        [
            ("fedavg", "", "[training]"),
            ("fedprox", "prox_mu = 0.01", "[training]"),
            ("fedseq", "seq_clusters = 2\nseq_cluster_size = 2", "[training]"),
            ("hfldd", "", "[label-collection]"),
        ],
        ids=["fedavg", "fedprox", "fedseq", "hfldd"],
    )
    def test_model_too_large_to_allocate_exits_3_naming_the_stage(
        self, tmp_path, capsys, algorithm, extra, stage
    ):
        # numpy refuses the 28 PiB starting model before touching memory
        out = tmp_path / "never"
        text = config_text(out, algorithm=algorithm, train_extra=extra)
        assert "hidden = 8" in text
        cfg = write_config(tmp_path, "huge.ini", text.replace("hidden = 8", "hidden = 1000000000000000"))
        assert main(["run", cfg]) == 3
        err = capsys.readouterr().err
        assert stage in err and "allocate" in err
        assert not out.exists()

    def test_distillation_divergence_exits_3_naming_the_stage(self, tmp_path, capsys):
        # the support stays finite but too large to square, so without the
        # check only the head training would overflow, in [training]
        out = tmp_path / "never"
        text = config_text(out, algorithm="hfldd", dim=8)
        assert "[distill]\nsupport_size = 2\nlearning_rate = 0.01" in text
        text = text.replace("learning_rate = 0.01", "learning_rate = 1e200")
        cfg = write_config(tmp_path, "diverge.ini", text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", cfg]) == 3
        err = capsys.readouterr().err
        assert "[distillation]" in err and "diverged" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    @pytest.mark.parametrize(
        "algorithm, separation, extra",
        [("fedseq", "1e30", "seq_clusters = 2\nseq_cluster_size = 3"), ("hfldd", "1e50", "")],
        ids=["fedseq", "hfldd"],
    )
    def test_finite_model_with_non_finite_outputs_exits_3_as_divergence(
        self, tmp_path, capsys, algorithm, separation, extra
    ):
        # round 1's global model is finite, but its outputs on rows this far
        # apart overflow to NaN probabilities, which the round's loss rejects
        out = tmp_path / "never"
        text = (
            f"[experiment]\nseed = 1\nalgorithm = {algorithm}\noutput_dir = {out}\n"
            f"[data]\nper_class = 60\nseparation = {separation}\n"
            "[partition]\nclients = 6\nsamples_per_client = 20\n"
            f"[train]\nrounds = 2\n{extra}\n"
            "[distill]\nsupport_size = 4\niterations = 5\n"
            "[cluster]\nk = 3\n"
        )
        assert main(["run", write_config(tmp_path, "diverge.ini", text)]) == 3
        err = capsys.readouterr().err
        assert "[training]" in err and "round 1" in err and "diverged" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line", ["bits_per_param = 0", "bits_per_param = -32", "bits_per_sample = -8"],
        ids=["param-zero", "param-negative", "sample-negative"],
    )
    def test_bad_bit_price_exits_2_before_training(self, tmp_path, capsys, line):
        out = tmp_path / "never"
        cfg = write_config(tmp_path, "bad.ini", config_text(out, algorithm="hfldd", train_extra=line))
        assert main(["run", cfg]) == 2
        assert not (out / "metrics.csv").exists()
        assert line.split()[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("test_fraction", "0"), ("test_fraction", "1"), ("test_fraction", "-0.5"),
            ("probe_size", "0"), ("separation", "0"), ("separation", "-2"),
            ("classes", "0"), ("per_class", "0"), ("dim", "0"),
        ],
    )
    def test_bad_data_value_exits_2_before_the_build(self, tmp_path, capsys, monkeypatch, key, value):
        monkeypatch.setattr(cli, "_build_problem", lambda xc: pytest.fail("problem was built"))
        out = tmp_path / "never"
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", config_text(out), count=1, flags=re.M)
        assert main(["run", write_config(tmp_path, "bad.ini", text)]) == 2
        assert not out.exists()
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "algorithm, line",
        [
            # -2 clusters of -2 clients multiply out to the 4 clients
            ("fedseq", "seq_clusters = -2\nseq_cluster_size = -2"),
            ("fedavg", "seq_clusters = -2"),
            ("fedavg", "seq_cluster_size = -2"),
            ("hfldd", "seq_clusters = -2"),
            ("hfldd", "seq_cluster_size = -2"),
            ("hfldd", f"bits_per_param = {2**63}"),
            ("hfldd", f"bits_per_sample = {2**63}"),
            ("fedavg", f"seq_cluster_size = {2**63}"),
        ],
        ids=[
            "fedseq-negative-shape", "fedavg-seq_clusters", "fedavg-seq_cluster_size",
            "hfldd-seq_clusters", "hfldd-seq_cluster_size", "bits_per_param-2^63",
            "bits_per_sample-2^63", "seq_cluster_size-2^63",
        ],
    )
    def test_train_count_outside_its_domain_exits_2_before_the_build(
        self, tmp_path, capsys, monkeypatch, algorithm, line
    ):
        # the cost audit takes counts in [0, 2^63); a run must not train first
        monkeypatch.setattr(cli, "_build_problem", lambda xc: pytest.fail("problem was built"))
        out = tmp_path / "never"
        text = config_text(out, algorithm=algorithm, train_extra=line)
        assert main(["run", write_config(tmp_path, "bad.ini", text)]) == 2
        assert not out.exists()
        assert line.split()[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "per_class, test_fraction, message",
        [
            # 9 rows: the test set takes round(8.91) = 9 of them
            (3, "0.99", "leaves no training data"),
            # 105 rows: the test set takes 26, and 4 clients need 80 of the 79 left
            (35, "0.25", "the partition needs 80 rows"),
        ],
        ids=["no-training-row", "partition-outgrows-the-split"],
    )
    def test_split_the_config_decides_exits_2_before_the_build(
        self, tmp_path, capsys, monkeypatch, per_class, test_fraction, message
    ):
        monkeypatch.setattr(cli, "_build_problem", lambda xc: pytest.fail("problem was built"))
        out = tmp_path / "never"
        text = config_text(out, per_class=per_class).replace(
            "test_fraction = 0.25", f"test_fraction = {test_fraction}"
        )
        assert main(["run", write_config(tmp_path, "bad.ini", text)]) == 2
        assert not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["pool-too-large", "class-exhausted", "missing-idx-file"])
    def test_build_failure_exits_3_naming_the_build(self, tmp_path, capsys, kind):
        out = tmp_path / "never"
        if kind == "pool-too-large":
            # numpy refuses the pool's label array at once, allocating nothing
            text = config_text(out, per_class=10**15)
        elif kind == "class-exhausted":
            # 81 training rows cover the 4 clients' 80, but 3 shards of 10
            # rows fall on class 0, which holds about 27: known only once
            # the split has dealt the rows
            text = config_text(out, per_class=36)
        else:
            absent = tmp_path / "absent.idx"
            text = re.sub("^images = .*$", f"images = {absent}", idx_config_text(tmp_path, out), flags=re.M)
        assert main(["run", write_config(tmp_path, "bad.ini", text)]) == 3
        assert not out.exists()
        assert "error [build]" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, seed):
        # the streams take seeds modulo 2^64, so these would replay 0 and 2^64 - 1
        out = tmp_path / "never"
        text = config_text(out).replace("seed = 5", f"seed = {seed}")
        assert main(["run", write_config(tmp_path, "bad.ini", text)]) == 2
        assert not out.exists()
        assert "seed" in capsys.readouterr().err
        top = config_text(tmp_path / "top").replace("seed = 5", f"seed = {(1 << 64) - 1}")
        assert load_config(write_config(tmp_path, "top.ini", top)).seed == (1 << 64) - 1

    def test_hfldd_support_larger_than_a_client_exits_2_before_the_build(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "_build_problem", lambda xc: pytest.fail("problem was built"))
        out = tmp_path / "never"
        text = config_text(out, algorithm="hfldd", support_size=21)
        assert main(["run", write_config(tmp_path, "bad.ini", text)]) == 2
        assert not out.exists()
        assert "support_size" in capsys.readouterr().err
        # a support as large as a client is still a valid configuration
        fits = config_text(out, algorithm="hfldd", support_size=20)
        assert load_config(write_config(tmp_path, "fits.ini", fits)).kip.support_size == 20
        # other algorithms never distill, so the support size does not bind them
        fedavg = config_text(out, support_size=21)
        assert load_config(write_config(tmp_path, "fedavg.ini", fedavg)).kip.support_size == 21

    # a zero size, or a blank item: a typo, not a skipped layer
    @pytest.mark.parametrize("value", ["0,64", "64,,64", "64,", ",64", "64, ,64"])
    def test_bad_hidden_list_exits_2_before_the_build(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setattr(cli, "_build_problem", lambda xc: pytest.fail("problem was built"))
        out = tmp_path / "never"
        text = config_text(out).replace("hidden = 8", f"hidden = {value}")
        assert main(["run", write_config(tmp_path, "bad.ini", text)]) == 2
        assert not out.exists()
        assert "hidden" in capsys.readouterr().err
        # a value that is blank as a whole is the empty tuple: no hidden layer
        blank = config_text(out).replace("hidden = 8", "hidden =")
        assert load_config(write_config(tmp_path, "blank.ini", blank)).run.hidden_sizes == ()

    def test_same_config_reproduces_metrics_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = write_config(tmp_path, "hf.ini", config_text(out1, algorithm="hfldd"))
        assert main(["run", cfg]) == 0
        assert main(["run", cfg, "--out", str(out2)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "topology.json").read_bytes() == (out2 / "topology.json").read_bytes()

    def test_manifest_replay_reproduces_metrics_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = write_config(tmp_path, "fa.ini", config_text(out1))
        assert main(["run", cfg]) == 0
        assert main(["run", "--from-manifest", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        # the replayed manifest echoes the same configuration
        a = json.loads((out1 / "manifest.json").read_text())
        b = json.loads((out2 / "manifest.json").read_text())
        assert a["config"] == b["config"]

    @pytest.mark.parametrize(
        "section, key", [("train", "learning_rat"), ("bogus", None)], ids=["key", "section"]
    )
    def test_manifest_with_unknown_names_exits_2(self, tmp_path, capsys, section, key):
        # a replay checks its echo against the same schema as a config file
        out1 = tmp_path / "a"
        assert main(["run", write_config(tmp_path, "fa.ini", config_text(out1))]) == 0
        doc = json.loads((out1 / "manifest.json").read_text())
        doc["config"].setdefault(section, {})[key or "x"] = "5.0"
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc), encoding="utf-8")
        out2 = tmp_path / "b"
        assert main(["run", "--from-manifest", str(edited), "--out", str(out2)]) == 2
        assert not out2.exists()
        assert (key or section) in capsys.readouterr().err

    def test_manifest_names_the_package_commit_not_the_working_directory(
        self, tmp_path, monkeypatch
    ):
        other = tmp_path / "other"
        other.mkdir()
        git = lambda *a: subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *a],
            cwd=other, check=True, capture_output=True, text=True,
        ).stdout.strip()
        git("init", "-q")
        git("commit", "-q", "--allow-empty", "-m", "other")
        other_head = git("rev-parse", "HEAD")
        monkeypatch.chdir(other)
        out = tmp_path / "run"
        assert main(["run", write_config(tmp_path, "fa.ini", config_text(out))]) == 0
        described = json.loads((out / "manifest.json").read_text())["git_describe"]
        assert described is None or not other_head.startswith(described.removesuffix("-dirty"))

    def test_config_error_exits_2_without_outputs(self, tmp_path, capsys):
        out = tmp_path / "never"
        cfg = write_config(tmp_path, "bad.ini", config_text(out, classes_per_client=5))
        assert main(["run", cfg]) == 2
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_runtime_error_exits_3_with_stage_tag(self, tmp_path, capsys):
        # a support larger than a client is a configuration error (exit 2);
        # a step size that makes the support diverge is known only at run time
        out = tmp_path / "never"
        text = config_text(out, algorithm="hfldd").replace(
            "learning_rate = 0.01", "learning_rate = 1e200"
        )
        cfg = write_config(tmp_path, "bad.ini", text)
        assert main(["run", cfg]) == 3
        assert not out.exists()
        assert "[distillation]" in capsys.readouterr().err

    def test_partial_outputs_removed_on_write_failure(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "cost.json").mkdir()  # write will fail after metrics.csv lands
        cfg = write_config(tmp_path, "fa.ini", config_text(out))
        assert main(["run", cfg]) == 3
        assert not (out / "metrics.csv").exists()
        assert "error" in capsys.readouterr().err

    def test_run_needs_a_source(self, capsys):
        assert main(["run"]) == 2
        assert "config path or --from-manifest" in capsys.readouterr().err

    def test_bad_manifest_exits_2(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text("{\"schema\": \"other\"}", encoding="utf-8")
        assert main(["run", "--from-manifest", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_manifest_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text("[]", encoding="utf-8")
        assert main(["run", "--from-manifest", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_metrics_independent_of_blas_threads(self, tmp_path):
        # 1024-d features make the evaluation products large enough for
        # OpenBLAS to split them across threads
        cfg = write_config(
            tmp_path, "hf.ini", config_text(tmp_path / "unused", algorithm="hfldd", dim=1024)
        )
        outputs = unmanaged_metrics_per_thread_count(cfg, lambda t: tmp_path / f"threads{t}")
        assert all(o == outputs[0] for o in outputs)

    @pytest.mark.parametrize("algorithm", ["hfldd", "fedprox"])
    def test_row_span_metrics_independent_of_blas_threads(self, tmp_path, algorithm):
        # 20-row 1024-d clients with 2 passes over 3 rounds, and 10 passes of
        # pretraining, train in the row span of their data (hidden = 8): the
        # basis, projection and lift products run on every thread count
        assert fltrain._row_span_pays(20, 1024, 8, 3, 2)
        assert fltrain._row_span_pays(20, 1024, 8, 1, 10)
        text = config_text(
            tmp_path / "unused", algorithm=algorithm, train_extra="prox_mu = 0.1",
            dim=1024, rounds=3,
        )
        text = text.replace("local_steps = 1", "local_steps = 2")
        cfg = write_config(
            tmp_path, "span.ini", text.replace("pretrain_steps = 1", "pretrain_steps = 10")
        )
        outputs = unmanaged_metrics_per_thread_count(cfg, lambda t: tmp_path / f"threads{t}")
        assert all(o == outputs[0] for o in outputs)

    def test_distilled_support_independent_of_blas_threads(self):
        # One member at the paired benchmark's shape (160 rows, 1024-d,
        # support 80): the QR that sets distill's coordinates and every
        # step's products are large enough to be split across threads.
        script = (
            "import sys\n"
            "from hfldd.datagen import LabeledDataset, one_hot\n"
            "from hfldd.distill import KipConfig, distill\n"
            "from hfldd.numkernel import SeededRng, rbf_gamma\n"
            "gen = SeededRng(4, 0).generator()\n"
            "labels = gen.integers(0, 2, size=160)\n"
            "x = gen.standard_normal((2, 1024))[labels] * 2.0 + gen.standard_normal((160, 1024))\n"
            "d = LabeledDataset(x, one_hot(labels, 2), 2)\n"
            "ds = distill(d, KipConfig(80, 1e-6, 0.004, 20, 10), rbf_gamma(x), SeededRng(4, 1))\n"
            "sys.stdout.buffer.write(ds.data.features.tobytes())\n"
        )
        outputs = list(run_per_blas_thread_count(lambda threads: ["-c", script]).values())
        assert len(outputs[0]) == 80 * 1024 * 8
        assert all(o == outputs[0] for o in outputs)

    def test_manifest_loader_errors(self, tmp_path):
        missing = tmp_path / "absent.json"
        with pytest.raises(ManifestError):
            load_manifest(str(missing))
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json", encoding="utf-8")
        with pytest.raises(ManifestError):
            load_manifest(str(garbled))
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ManifestError):
            load_manifest(str(binary))
        no_config = tmp_path / "no_config.json"
        no_config.write_text(json.dumps({"schema": "hfldd-run-manifest-v1"}), encoding="utf-8")
        with pytest.raises(ManifestError):
            load_manifest(str(no_config))
        for section in (["x"], {"hidden": 8}):
            bad_echo = tmp_path / "bad_echo.json"
            doc = {"schema": "hfldd-run-manifest-v1", "config": {"train": section}}
            bad_echo.write_text(json.dumps(doc), encoding="utf-8")
            with pytest.raises(ManifestError):
                load_manifest(str(bad_echo))


# Runs an hfldd config three times from a caller that imported numpy first:
# as given, with distill failing inside its stage, and with the thread-count
# controls removed. Both OpenBLAS getters are read where the stages call the
# wrapped functions, and before and after each run; prints them as JSON.
PIN_SCRIPT = """
import json, sys
import numpy
from hfldd import cli, fltrain, numkernel

cfg, out = sys.argv[1:]
getters = [get for get, _ in numkernel.BLAS_THREADS]
seen, fail = {}, []

def read():
    return [get() for get in getters]

def watch(name, f, key=None):
    def wrapped(*a, **kw):
        seen.setdefault(key(*a) if key else name, []).append(read())
        if fail and name == "distill":
            raise RuntimeError("injected")
        return f(*a, **kw)
    return wrapped

cli._build_problem = watch("build", cli._build_problem)
fltrain.soft_labels = watch("soft_labels", fltrain.soft_labels)
fltrain.local_train = watch("local_train", fltrain.local_train)
fltrain.build_topology = watch("build_topology", fltrain.build_topology)
fltrain.distill = watch("distill", fltrain.distill)
fltrain._round_metrics = watch("round", fltrain._round_metrics, key=lambda t, *a: f"round {t}")
report = {"before": read()}
report["exit"] = cli.main(["run", cfg, "--out", out + "/pinned"])
report["after"], report["seen"], seen = read(), seen, {}
fail.append(1)
report["failed_exit"] = cli.main(["run", cfg, "--out", out + "/failed"])
report["after_failure"] = read()
fail.clear()
numkernel.BLAS_THREADS.clear()
numkernel.BLAS_PINNED = False
report["unmanaged_exit"] = cli.main(["run", cfg, "--out", out + "/unmanaged"])
print(json.dumps(report))
"""


class TestBlasThreadPin:
    """Every run stage pins both OpenBLAS builds, numpy's and scipy's, to one
    thread and hands the caller's counts back, whatever was imported first."""

    ROUNDS = 3

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """{threads: (report, out dir)} for each OPENBLAS_NUM_THREADS that
        run_per_blas_thread_count sets, 2 last on a multi-core host."""
        tmp = tmp_path_factory.mktemp("pin")
        # 20-row 256-d clients train in their rows' span
        text = config_text(tmp / "unused", algorithm="hfldd", dim=256, rounds=self.ROUNDS)
        cfg = write_config(tmp, "pin.ini", text)
        out = lambda threads: tmp / f"t{threads}"
        stdout = run_per_blas_thread_count(lambda threads: ["-c", PIN_SCRIPT, cfg, str(out(threads))])
        return {t: (json.loads(raw.splitlines()[-1]), out(t)) for t, raw in stdout.items()}

    def test_every_stage_reads_one_thread_on_both_builds(self, runs):
        report, _ = runs[max(runs)]
        assert report["exit"] == 0
        seen = report["seen"]
        rounds = [f"round {t}" for t in range(1, self.ROUNDS + 1)]
        assert sorted(seen) == sorted(
            ["build", "soft_labels", "build_topology", "distill", "local_train", *rounds]
        )
        assert all(reading == [1, 1] for readings in seen.values() for reading in readings)

    def test_caller_counts_come_back_after_a_run_and_a_failed_one(self, runs):
        threads = max(runs)
        report, out = runs[threads]
        assert report["before"] == [threads, threads]
        assert report["after"] == report["before"]
        assert report["failed_exit"] == 3
        assert not (out / "failed").exists()
        assert report["after_failure"] == report["before"]

    def test_metrics_match_a_one_thread_run(self, runs):
        csv = [(out / "pinned" / "metrics.csv").read_bytes() for _, out in runs.values()]
        assert csv[-1] == csv[0]

    def test_manifest_records_the_pin(self, runs):
        report, out = runs[max(runs)]
        manifest = lambda run: json.loads((out / run / "manifest.json").read_text())
        assert manifest("pinned")["blas_threads"] == 1
        assert report["unmanaged_exit"] == 0
        assert manifest("unmanaged")["blas_threads"] == "unmanaged"
        csv = [(out / run / "metrics.csv").read_bytes() for run in ("pinned", "unmanaged")]
        assert csv[0] == csv[1]


class TestCompareCommand:
    def make_run(self, tmp_path, name):
        out = tmp_path / name
        cfg = write_config(tmp_path, f"{name}.ini", config_text(out))
        assert main(["run", cfg]) == 0
        return out

    def test_self_comparison_ratio_is_unity(self, tmp_path, capsys):
        a = self.make_run(tmp_path, "a")
        b = self.make_run(tmp_path, "b")
        curves = tmp_path / "curves.csv"
        assert main(["compare", str(a), str(b), "--curves-out", str(curves)]) == 0
        output = capsys.readouterr().out
        rows = [l for l in output.splitlines() if l.startswith(str(a)) or l.startswith(str(b))]
        assert len(rows) == 2
        assert all(r.endswith("1.00X") for r in rows)
        lines = curves.read_text().splitlines()
        assert lines[0] == "run,algorithm,round,accuracy,loss,cumulative_bits"
        assert len(lines) == 1 + 2 * 2  # two runs, two rounds each

    @staticmethod
    def hand_run(tmp_path, name, rows):
        out = tmp_path / name
        out.mkdir()
        (out / "manifest.json").write_text('{"algorithm": "fedavg"}', encoding="utf-8")
        (out / "metrics.csv").write_text(
            "round,accuracy,loss,cumulative_bits\n" + "".join(r + "\n" for r in rows),
            encoding="utf-8",
        )
        return str(out)

    @pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
    def test_non_finite_target_exits_2(self, tmp_path, capsys, target):
        # --target nan used to read "not reached" for every run and exit 0
        runs = [self.hand_run(tmp_path, n, ["1,0.5,1.0,100"]) for n in "ab"]
        assert main(["compare", *runs, f"--target={target}"]) == 2
        assert "--target must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["2,nan,1.0,200", "2,0.5,inf,200", "2,-inf,1.0,200"])
    def test_non_finite_metrics_row_exits_2(self, tmp_path, capsys, row):
        a = self.hand_run(tmp_path, "a", ["1,0.5,1.0,100"])
        b = self.hand_run(tmp_path, "b", ["1,0.5,1.0,100", row])
        assert main(["compare", a, b]) == 2
        assert "bad metrics row" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, rule",
        [
            (["-3,0.5,1.0,100"], "round must be 1, got -3"),
            (["2,0.5,1.0,100"], "round must be 1, got 2"),
            (["1,0.5,1.0,100", "1,0.6,1.0,200"], "round must be 2, got 1"),
            (["1,0.5,1.0,100", "3,0.6,1.0,200"], "round must be 2, got 3"),
            (["1,7.5,1.0,100"], "accuracy must be <= 1"),
            (["1,-0.1,1.0,100"], "accuracy must be finite and >= 0"),
            (["1,0.5,-2.0,100"], "loss must be finite and >= 0"),
            (["1,0.5,1.0,100", "2,0.6,1.0,20"], "cumulative_bits must be >= 100"),
        ],
        ids=[
            "negative-round",
            "first-round-2",
            "repeated-round",
            "skipped-round",
            "accuracy-above-1",
            "negative-accuracy",
            "negative-loss",
            "bits-decrease",
        ],
    )
    def test_metrics_row_hfldd_run_never_writes_exits_2(self, tmp_path, capsys, rows, rule):
        # finite rows that used to load: compare then printed rounds and
        # ratios for a curve no run produced
        a = self.hand_run(tmp_path, "a", ["1,0.5,1.0,100"])
        b = self.hand_run(tmp_path, "b", rows)
        assert main(["compare", a, b]) == 2
        err = capsys.readouterr().err
        assert f"bad metrics row {rows[-1]!r}" in err and rule in err

    @pytest.mark.parametrize(
        "manifest",
        ['{"algorithm": "fed,avg"}', "{}", '{"algorithm": null}', '{"algorithm": ["fedavg"]}'],
        ids=["comma", "absent", "null", "list"],
    )
    def test_manifest_hfldd_run_never_writes_exits_2(self, tmp_path, capsys, manifest):
        # "fed,avg" used to add a column to the table and to the curves
        # file, and a manifest without an algorithm printed "?"
        a = self.hand_run(tmp_path, "a", ["1,0.5,1.0,100"])
        b = self.hand_run(tmp_path, "b", ["1,0.5,1.0,100"])
        (tmp_path / "b" / "manifest.json").write_text(manifest, encoding="utf-8")
        curves = tmp_path / "curves.csv"
        assert main(["compare", a, b, "--curves-out", str(curves)]) == 2
        captured = capsys.readouterr()
        assert f"has manifest algorithm {json.loads(manifest).get('algorithm')!r}" in captured.err
        assert captured.out == "" and not curves.exists()

    def test_unreachable_target_reported(self, tmp_path, capsys):
        a = self.make_run(tmp_path, "a")
        b = self.make_run(tmp_path, "b")
        assert main(["compare", str(a), str(b), "--target", "2.0"]) == 0
        assert "not reached" in capsys.readouterr().out

    def test_default_curves_land_in_first_run_dir(self, tmp_path, capsys):
        a = self.make_run(tmp_path, "a")
        b = self.make_run(tmp_path, "b")
        assert main(["compare", str(a), str(b)]) == 0
        capsys.readouterr()
        assert (a / "compare_curves.csv").is_file()

    def test_missing_run_dir_exits_2(self, tmp_path, capsys):
        a = self.make_run(tmp_path, "a")
        assert main(["compare", str(a), str(tmp_path / "ghost")]) == 2
        assert "error" in capsys.readouterr().err

    def test_short_metrics_row_exits_2(self, tmp_path, capsys):
        a = self.make_run(tmp_path, "a")
        b = self.make_run(tmp_path, "b")
        with open(b / "metrics.csv", "a", encoding="utf-8") as f:
            f.write("3,0.5,0.25\n")
        assert main(["compare", str(a), str(b)]) == 2
        assert "bad metrics row" in capsys.readouterr().err

    def test_non_utf8_run_files_exit_2(self, tmp_path, capsys):
        a = self.make_run(tmp_path, "a")
        for name in ("manifest.json", "metrics.csv"):
            b = self.make_run(tmp_path, f"b_{name}")
            with open(b / name, "ab") as f:
                f.write(b"\xff\xfe")
            assert main(["compare", str(a), str(b)]) == 2
            assert "cannot be read" in capsys.readouterr().err

    def test_curves_into_missing_directory_exits_3(self, tmp_path, capsys):
        a = self.make_run(tmp_path, "a")
        b = self.make_run(tmp_path, "b")
        curves = tmp_path / "absent" / "curves.csv"
        assert main(["compare", str(a), str(b), "--curves-out", str(curves)]) == 3
        assert "error" in capsys.readouterr().err

    def test_single_dir_rejected(self, tmp_path, capsys):
        a = self.make_run(tmp_path, "a")
        assert main(["compare", str(a)]) == 2
        assert "at least two" in capsys.readouterr().err


class TestCostCommand:
    def test_matches_closed_forms(self, capsys):
        argv = [
            "cost",
            "--clients", "3",
            "--heads", "2",
            "--homogeneous", "2",
            "--rounds", "2",
            "--model-params", "10",
            "--probe-size", "4",
            "--classes", "2",
            "--bits-per-param", "8",
            "--bits-per-sample", "8",
            "--seq-clusters", "1",
            "--seq-cluster-size", "3",
            "--distilled-sizes", "5",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        c = CostModel(
            n_clients=3,
            n_heads=2,
            n_homogeneous=2,
            rounds=2,
            seq_clusters=1,
            seq_cluster_size=3,
            model_params=10,
            probe_size=4,
            class_count=2,
            bits_per_param=8,
            bits_per_sample=8,
            distilled_sizes=(5,),
        )
        assert f"fedavg,{cost_fedavg(c)}," in out
        assert f"hfldd,{cost_hfldd(c)}," in out
        assert f"fedseq,{cost_fedseq(c)}," in out

    TOPOLOGIES_NO_RUN_PRODUCES = {
        # training traffic for five heads on two clients
        "more-heads-than-clients": (
            ["--clients", "2", "--heads", "5", "--rounds", "3", "--model-params", "10",
             "--distilled-sizes", "4"],
            "n_heads must be <= n_clients (2), got 5",
        ),
        # 3 supports charged where 16 members ship one each
        "too-few-sizes": (
            ["--clients", "20", "--heads", "4", "--rounds", "50", "--model-params", "70410",
             "--probe-size", "100", "--classes", "10", "--bits-per-sample", "65536",
             "--distilled-sizes", "10,10,10"],
            "distilled_sizes must hold 16 sizes",
        ),
        "sizes-without-heads": (
            ["--clients", "3", "--rounds", "2", "--model-params", "10", "--distilled-sizes", "5"],
            "distilled_sizes must hold 0 sizes",
        ),
        # fedseq charged for 10 clients where 3 train
        "chains-over-other-clients": (
            ["--clients", "3", "--rounds", "2", "--model-params", "10", "--seq-clusters", "2",
             "--seq-cluster-size", "5"],
            "seq_clusters * seq_cluster_size must equal n_clients (3) or both be 0, got 2 * 5",
        ),
        "more-homogeneous-clusters-than-clients": (
            ["--clients", "3", "--rounds", "2", "--model-params", "10", "--homogeneous", "9"],
            "n_homogeneous must be <= n_clients (3), got 9",
        ),
    }

    @pytest.mark.parametrize("case", TOPOLOGIES_NO_RUN_PRODUCES)
    def test_topology_no_run_produces_exits_2(self, tmp_path, capsys, case):
        flags, rule = self.TOPOLOGIES_NO_RUN_PRODUCES[case]
        assert main(["cost", *flags]) == 2
        captured = capsys.readouterr()
        assert rule in captured.err and captured.out == ""
        # the same inputs in a cost JSON: rejected the same way
        doc_path = tmp_path / "cost.json"
        assert main(["cost", "--clients", "3", "--rounds", "2", "--model-params", "10",
                     "--json", str(doc_path)]) == 0
        doc = json.loads(doc_path.read_text())
        for flag, value in zip(flags[::2], flags[1::2]):
            key = flag[2:].replace("-", "_")
            counts = [int(v) for v in value.split(",")]
            doc["inputs"][key] = counts if key == "distilled_sizes" else counts[0]
        doc_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["cost", "--from-json", str(doc_path)]) == 2
        captured = capsys.readouterr()
        assert rule in captured.err and captured.out == ""

    def test_zero_bits_per_param_exits_2(self, capsys):
        argv = ["cost", "--clients", "3", "--rounds", "2", "--model-params", "10",
                "--bits-per-param", "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "bits_per_param must be >= 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("sizes", ["4,,5", "4,", ",5"])
    def test_blank_distilled_size_exits_2(self, capsys, sizes):
        argv = ["cost", "--clients", "3", "--rounds", "2", "--model-params", "10"]
        with pytest.raises(SystemExit) as exited:
            main([*argv, "--distilled-sizes", sizes])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert "--distilled-sizes" in captured.err and captured.out == ""
        assert f"expected comma-separated integers, got '{sizes}'" in captured.err
        assert "_parse" not in captured.err
        # a blank list is the empty tuple, the flag's default
        assert main([*argv, "--distilled-sizes", ""]) == 0
        blank = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == blank

    def test_json_is_standard_when_fedavg_costs_nothing(self, tmp_path, capsys):
        doc_path = tmp_path / "c.json"
        argv = ["cost", "--clients", "2", "--rounds", "0", "--model-params", "5",
                "--json", str(doc_path)]
        assert main(argv) == 0
        assert "hfldd_over_fedavg=n/a" in capsys.readouterr().out

        def reject(name):
            raise ValueError(f"{name} is not standard JSON")

        results = json.loads(doc_path.read_text(), parse_constant=reject)["results"]
        assert results["fedavg_bits"] == 0 and results["hfldd_over_fedavg"] is None

    def test_missing_required_flags(self, capsys):
        assert main(["cost", "--clients", "3"]) == 2
        err = capsys.readouterr().err
        assert "--rounds" in err and "--model-params" in err

    def test_json_round_trip(self, tmp_path, capsys):
        doc_path = tmp_path / "cost.json"
        base = ["cost", "--clients", "3", "--rounds", "2", "--model-params", "10",
                "--bits-per-param", "8", "--json", str(doc_path)]
        assert main(base) == 0
        first = capsys.readouterr().out
        doc = json.loads(doc_path.read_text())
        assert doc["results"]["fedavg_bits"] == 720
        assert main(["cost", "--from-json", str(doc_path)]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "key, value",
        [("clients", 2.5), ("heads", True), ("clients", float("nan")), ("distilled_sizes", [1.5])],
        ids=["float", "bool", "nan", "float-size"],
    )
    def test_json_counts_must_be_integers(self, tmp_path, capsys, key, value):
        doc_path = tmp_path / "cost.json"
        argv = ["cost", "--clients", "3", "--rounds", "2", "--model-params", "10",
                "--json", str(doc_path)]
        assert main(argv) == 0
        doc = json.loads(doc_path.read_text())
        doc["inputs"][key] = value
        doc_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["cost", "--from-json", str(doc_path)]) == 2
        captured = capsys.readouterr()
        assert "must be an integer" in captured.err
        assert captured.out == ""

    def test_bad_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"inputs\": {\"clients\": 1}}", encoding="utf-8")
        assert main(["cost", "--from-json", str(path)]) == 2
        assert "cost parameters" in capsys.readouterr().err

    def test_json_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        assert main(["cost", "--from-json", str(path)]) == 2
        assert "cost parameters" in capsys.readouterr().err

    def test_json_into_missing_directory_exits_3(self, tmp_path, capsys):
        doc_path = tmp_path / "absent" / "cost.json"
        argv = ["cost", "--clients", "3", "--rounds", "2", "--model-params", "10",
                "--json", str(doc_path)]
        assert main(argv) == 3
        assert "error" in capsys.readouterr().err
