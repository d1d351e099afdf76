"""Fuzzed readers: the IDX image/label pair, the run manifest, a run
directory's metrics.csv and the cost JSON, and the run configuration.

Whatever bytes these files hold, the library raises only `HflddError`
subclasses and the command line exits with 0, 2 or 3. Any other exception
escapes `main` and fails the test, as does any numpy RuntimeWarning (an
error under the suite's warning filter).
"""

import contextlib
import io
import json
import re
import shutil
import struct

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from hfldd import cli
from hfldd.cli import MANIFEST_SCHEMA, load_manifest, main
from hfldd.datagen import load_idx
from hfldd.errors import HflddError
from hfldd.fltrain import ALGORITHMS

from test_cli import config_text, write_config
from test_datagen import write_idx_pair

FUZZ = settings(max_examples=60, deadline=None)

# A JSON nesting deeper than the interpreter's recursion limit.
DEEP_JSON = "[" * 100_000

# Strings that probe each schema parser: ints, finite floats, lists, choices
# and the values around them.
VALUE_STRINGS = st.sampled_from([
    "0", "1", "-1", "2", "3", "0.5", "-0.5", "nan", "inf", "1e400", "9" * 5000, "",
    "x", "1,2", "8,-1", "0,0", "fedavg", "fedprox", "fedseq", "hfldd", "idx", "synthetic",
]) | st.text(max_size=6)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@st.composite
def idx_pairs(draw, max_rows=5, label_values=st.integers(0, 255)):
    """(image bytes, label bytes): a valid pair, then up to two header fields
    replaced (the upper half of each is negative if read as signed) and at
    most one file cut short, extended or swapped for noise."""
    n = draw(st.integers(0, max_rows))
    size = n * draw(st.integers(0, 3)) * draw(st.integers(0, 3))
    head = {"img_magic": 0x803, "n": n, "rows": 1, "cols": size // max(n, 1),
            "lab_magic": 0x801, "n_lab": n}
    for name in draw(st.lists(st.sampled_from(sorted(head)), max_size=2)):
        head[name] = draw(st.integers(0, 8) | st.integers(0, 2**32 - 1))
    img = struct.pack(">IIII", head["img_magic"], head["n"], head["rows"], head["cols"])
    img += draw(st.binary(min_size=size, max_size=size))
    lab = struct.pack(">II", head["lab_magic"], head["n_lab"])
    lab += bytes(draw(st.lists(label_values, min_size=n, max_size=n)))
    pair = [img, lab]
    fault = draw(st.sampled_from(["none", "cut", "extend", "noise"]))
    which = draw(st.integers(0, 1))
    if fault == "cut":
        pair[which] = pair[which][: draw(st.integers(0, len(pair[which])))]
    elif fault == "extend":
        pair[which] += draw(st.binary(min_size=1, max_size=4))
    elif fault == "noise":
        pair[which] = draw(st.binary(max_size=24))
    return tuple(pair)


def _write_pair(scratch, pair):
    img, lab = scratch / "img.idx", scratch / "lab.idx"
    img.write_bytes(pair[0])
    lab.write_bytes(pair[1])
    return str(img), str(lab)


class TestIdxPair:
    @given(pair=idx_pairs())
    @example(pair=(struct.pack(">iiii", 0x803, 0, -2, 3), struct.pack(">ii", 0x801, 0)))
    @example(pair=(struct.pack(">iiii", 0x803, 0, -1, 1), struct.pack(">ii", 0x801, 0)))
    @FUZZ
    def test_loader_returns_pixels_or_raises_typed(self, scratch, pair):
        img, lab = _write_pair(scratch, pair)
        try:
            d = load_idx(img, lab)
        except HflddError:
            return
        n, rows, cols = struct.unpack(">III", pair[0][4:16])
        raw = np.frombuffer(pair[0][16:], dtype=np.uint8).reshape(n, rows * cols)
        assert np.array_equal(d.features, raw / 255.0)
        assert np.array_equal(d.label_indices(), np.frombuffer(pair[1][8:], dtype=np.uint8))

    @given(pair=idx_pairs(max_rows=30, label_values=st.integers(0, 1)))
    @settings(max_examples=30, deadline=None)
    def test_run_exits_0_2_or_3(self, scratch, pair):
        img, lab = _write_pair(scratch, pair)
        out = scratch / "run"
        shutil.rmtree(out, ignore_errors=True)
        text = config_text(
            out, algorithm="hfldd", classes=2, clients=2, classes_per_client=1,
            samples_per_client=2, probe_size=2, support_size=1, k=2,
        ).replace("[data]\n", f"[data]\nkind = idx\nimages = {img}\nlabels = {lab}\n")
        assert main(["run", write_config(scratch, "idx.ini", text)]) in (0, 2, 3)


def _sections():
    keys = sorted({key for keys in cli._SCHEMA.values() for key in keys})
    return st.dictionaries(
        st.sampled_from(sorted(cli._SCHEMA)) | st.text(max_size=5),
        st.dictionaries(st.sampled_from(keys) | st.text(max_size=5), VALUE_STRINGS, max_size=6)
        | JSON_VALUES,
        max_size=5,
    )


MANIFESTS = st.fixed_dictionaries(
    {"schema": st.just(MANIFEST_SCHEMA) | JSON_VALUES, "config": _sections() | JSON_VALUES},
    optional={"algorithm": st.sampled_from(ALGORITHMS) | JSON_VALUES},
) | JSON_VALUES


MANIFEST_BYTES = (
    MANIFESTS.map(json.dumps) | st.text(max_size=20) | st.just(DEEP_JSON)
).map(str.encode) | st.binary(max_size=24)


class TestManifest:
    @given(manifest=MANIFEST_BYTES)
    @example(manifest=DEEP_JSON.encode())
    @FUZZ
    def test_loader_parses_or_raises_typed(self, scratch, manifest):
        path = scratch / "manifest.json"
        path.write_bytes(manifest)
        try:
            load_manifest(str(path))
        except HflddError:
            # a manifest the loader rejects is a configuration error
            assert main(["run", "--from-manifest", str(path)]) == 2


METRIC_FIELDS = st.sampled_from(
    ["0", "1", "-1", "0.5", "nan", "inf", "1e999", "", "x", "9" * 400, "9" * 5000]
) | st.text(max_size=4)
METRIC_ROWS = st.lists(METRIC_FIELDS, min_size=1, max_size=5).map(",".join)
HEADER = "round,accuracy,loss,cumulative_bits"


@st.composite
def metrics_files(draw):
    header = draw(st.just(HEADER) | st.text(max_size=8))
    rows = draw(st.lists(METRIC_ROWS, max_size=4))
    text = draw(st.sampled_from(["\n", "\r\n"])).join([header, *rows])
    return draw(st.just(text.encode("utf-8")) | st.binary(max_size=24))


class TestRunDirectory:
    @given(manifest=MANIFEST_BYTES, metrics=metrics_files())
    @example(manifest=b"{}", metrics=f"{HEADER}\n1,0.5,0.1,{'9' * 400}".encode())
    @example(manifest=b'{"algorithm": "fedavg"}', metrics=f"{HEADER}\n1,0.5,0.1,8".encode())
    @example(manifest=DEEP_JSON.encode(), metrics=f"{HEADER}\n1,0.5,0.1,8".encode())
    @FUZZ
    def test_reader_and_compare(self, scratch, manifest, metrics):
        run_dir = scratch / "rundir"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir()
        (run_dir / "manifest.json").write_bytes(manifest)
        (run_dir / "metrics.csv").write_bytes(metrics)
        try:
            _, rows = cli._load_run_dir(str(run_dir))
        except HflddError:
            assert main(["compare", str(run_dir), str(run_dir)]) == 2
        else:
            assert rows
            assert main(["compare", str(run_dir), str(run_dir)]) == 0


COST_KEYS = sorted(cli._COST_KEYS.values())
COST_VALUES = st.integers() | st.lists(st.integers(), max_size=3) | JSON_VALUES


@st.composite
def cost_documents(draw):
    inputs = {key: draw(st.integers(0, 40)) for key in COST_KEYS if key != "distilled_sizes"}
    inputs["distilled_sizes"] = draw(st.lists(st.integers(0, 40), max_size=3))
    inputs["bits_per_param"] = draw(st.integers(1, 64))
    for key in draw(st.lists(st.sampled_from(COST_KEYS) | st.text(max_size=5), max_size=3)):
        inputs[key] = draw(COST_VALUES)
    for key in draw(st.lists(st.sampled_from(COST_KEYS), max_size=2)):
        inputs.pop(key, None)
    doc = draw(st.just({"inputs": inputs}) | st.fixed_dictionaries({"inputs": JSON_VALUES}) | JSON_VALUES)
    return draw(st.just(json.dumps(doc)) | st.text(max_size=20))


class TestCostJson:
    @given(text=cost_documents())
    @example(text=DEEP_JSON)
    @example(text=json.dumps({"inputs": {**{k: 1 for k in COST_KEYS}, "distilled_sizes": [],
                                         "clients": 10**400}}))
    @FUZZ
    def test_cost_exits_0_or_2(self, scratch, text):
        path = scratch / "cost.json"
        path.write_text(text, encoding="utf-8")
        assert main(["cost", "--from-json", str(path)]) in (0, 2)


# Per schema key: values its parser accepts, at and near the domain's edges
# and at sizes a run finishes in milliseconds (at most 6 clients, dim 8, 2
# rounds and 5 KIP iterations), then values it rejects. "pair" and "absent"
# stand for a valid IDX file (24 2x2 images in 3 classes) and a missing one.
BIG = str(2**63)
EDGES = {
    "experiment": {
        "seed": (["0", "1", str(2**64 - 1)], ["-1", str(2**64)]),
        "algorithm": (["hfldd", "fedavg", "fedprox", "fedseq"], ["gossip"]),
        "output_dir": (["set by the test"], []),
    },
    "data": {
        "kind": (["synthetic", "synthetic", "idx"], ["IDX"]),
        "classes": (["1", "2", "3"], ["0", "-1"]),
        "per_class": (["1", "2", "6", "12", "1000000000000000"], ["0", BIG]),
        "dim": (["1", "8"], ["0", BIG]),
        "separation": (["1e-300", "4", "1e200"], ["0", "-1", "inf", "nan"]),
        "test_fraction": (["1e-9", "0.25", "0.99"], ["0", "1", "nan"]),
        "probe_size": (["1", "4", "40"], ["0", BIG]),
        "probe_shift": (["0", "-1", "1"], ["nan", "inf"]),
        "images": (["pair", "absent"], [""]),
        "labels": (["pair", "absent"], [""]),
    },
    "partition": {
        "clients": (["1", "2", "4", "6"], ["0", "-1"]),
        "classes_per_client": (["1", "2"], ["0"]),
        "samples_per_client": (["1", "2", "5"], ["0"]),
    },
    "train": {
        "rounds": (["1", "2"], ["0"]),
        "local_steps": (["1", "2"], ["0"]),
        "pretrain_steps": (["0", "1"], ["-1"]),
        "learning_rate": (["1e-300", "0.05", "1e200"], ["0", "inf", "nan"]),
        "batch_size": (["1", "8"], ["0"]),
        "pretrain_batch": (["1", "16"], ["0"]),
        "hidden": (["", "1", "4,4"], ["0", "x"]),
        "prox_mu": (["0", "0.01", "1e200"], ["-1", "inf"]),
        "bits_per_param": (["1", "32", str(2**63 - 1)], ["0", BIG]),
        "bits_per_sample": (["0", "8", str(2**63 - 1)], ["-1", BIG]),
        "seq_clusters": (["0", "1", "2", "3"], ["-2", BIG]),
        "seq_cluster_size": (["0", "1", "2", "3"], ["-2", BIG]),
    },
    "distill": {
        "support_size": (["1", "2", "5"], ["0"]),
        "ridge_lambda": (["1e-300", "1e-6", "1e200"], ["0", "nan"]),
        "learning_rate": (["1e-300", "0.01", "1e200"], ["0", "-1"]),
        "iterations": (["0", "1", "5"], ["-1"]),
        "target_batch": (["1", "4"], ["0"]),
    },
    "cluster": {
        "k": (["1", "2", "3", "6"], ["x", "1.5"]),
    },
}
EDGE_KEYS = [(section, key) for section, keys in EDGES.items() for key in keys]


@st.composite
def schema_configs(draw):
    """{section: {key: value}} with every schema key: a shape that passes
    the rules relating keys, then up to two keys redrawn from all of their
    edge values, accepted or rejected."""
    config = {s: {k: draw(st.sampled_from(v[0])) for k, v in keys.items()} for s, keys in EDGES.items()}
    clients, classes = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    per_client = draw(st.integers(1, classes))
    rows = draw(st.integers(per_client, 5))
    seq_clusters = draw(st.sampled_from([d for d in range(1, clients + 1) if clients % d == 0]))
    config["data"].update(
        classes=str(classes), per_class=str(-(-2 * clients * rows // classes)),
        test_fraction="0.25", images="pair", labels="pair",
    )
    config["partition"].update(
        clients=str(clients), classes_per_client=str(per_client), samples_per_client=str(rows)
    )
    config["train"].update(seq_clusters=str(seq_clusters), seq_cluster_size=str(clients // seq_clusters))
    config["distill"]["support_size"] = str(draw(st.integers(1, rows)))
    config["cluster"]["k"] = str(draw(st.integers(2, clients)))
    for section, key in draw(st.lists(st.sampled_from(EDGE_KEYS), max_size=2)):
        config[section][key] = draw(st.sampled_from(sum(EDGES[section][key], [])))
    return config


class TestSchema:
    def test_edges_cover_the_schema(self):
        assert {s: list(k) for s, k in EDGES.items()} == {s: list(k) for s, k in cli._SCHEMA.items()}

    @given(config=schema_configs())
    @settings(max_examples=300, deadline=None)
    def test_run_exits_0_2_or_3_as_documented(self, scratch, config):
        """Exit 0 leaves an audited run, exit 2 no output directory and
        exit 3 names the failing stage."""
        out = scratch / "schema-run"
        shutil.rmtree(out, ignore_errors=True)
        files = {
            "pair": write_idx_pair(scratch, np.arange(96).reshape(24, 2, 2), [i % 3 for i in range(24)]),
            "absent": (str(scratch / "absent"),) * 2,
        }
        for i, key in enumerate(("images", "labels")):
            value = config["data"][key]
            config["data"][key] = files[value][i] if value in files else value
        config["experiment"]["output_dir"] = str(out)
        text = "\n".join(
            f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for section, keys in config.items()
        )
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", write_config(scratch, "schema.ini", text)])
        event(f"exit {code}", err.getvalue()[:60])
        if code == 0:
            assert json.loads((out / "cost.json").read_text())["discrepancy_bits"] == 0
        elif code == 2:
            assert not out.exists()
        else:
            assert code == 3
            assert re.match(r"error \[[a-z-]+\]: ", err.getvalue()), err.getvalue()
