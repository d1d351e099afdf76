"""Command-line interface: configured runs, run comparison, cost calculator.

Configuration is an INI file with a strict schema; unknown sections or keys
are rejected so a typo cannot silently fall back to a default. Every run
directory is self-describing: its manifest echoes the full configuration and
can be replayed with `run --from-manifest` to reproduce the metrics file
byte for byte.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__, numkernel, streams
from .datagen import (
    PartitionSpec,
    class_means,
    load_idx,
    make_probe_dataset,
    partition_label_skew,
    pool_labels,
    sample_classes,
    shift_means,
    split_sizes,
    split_train_test,
)
from .distill import KipConfig
from .errors import CapacityError, ConfigError, DomainError, HflddError, ManifestError, StageError
from .fltrain import (
    ALGORITHMS,
    ClientState,
    RunConfig,
    _stage,
    run_fedavg,
    run_fedprox,
    run_fedseq_lite,
    run_hfldd,
)
from .metrics import (
    DEFAULT_BITS_PER_PARAM,
    CostModel,
    bits_to_megabytes,
    cost_fedavg,
    cost_fedseq,
    cost_hfldd,
    ledger_audit,
)
from .numkernel import SeededRng, check_count, check_real

MANIFEST_SCHEMA = "hfldd-run-manifest-v1"
METRICS_HEADER = "round,accuracy,loss,cumulative_bits"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _parse_intlist(v: str) -> tuple[int, ...]:
    """Comma-separated integers. A blank value is the empty tuple; a blank
    item (`64,,64`, `64,`) fails `int`, so a typo is not skipped."""
    return tuple(int(p) for p in v.split(",")) if v.strip() else ()


def _intlist_arg(v: str) -> tuple[int, ...]:
    """`_parse_intlist` as an argparse type: argparse reports a ValueError
    with the type function's name, so a bad list says what was expected."""
    try:
        return _parse_intlist(v)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {v!r}") from None


def _parse_count(lo: int):
    return lambda v: check_count("value", int(v), lo)


def _parse_open(lo: float, hi: float):
    return lambda v: check_real("value", float(v), above=lo, below=hi)


_parse_finite = _parse_open(-math.inf, math.inf)


def _parse_choice(*allowed):
    def parse(v: str):
        if v not in allowed:
            raise ValueError(f"must be one of {allowed}, got {v!r}")
        return v

    return parse


# Section -> key -> (parser, default). A None default marks a required key.
_SCHEMA = {
    "experiment": {
        "seed": (int, "0"),
        "algorithm": (_parse_choice(*ALGORITHMS), "hfldd"),
        "output_dir": (str, None),
    },
    "data": {
        "kind": (_parse_choice("synthetic", "idx"), "synthetic"),
        "classes": (_parse_count(1), "10"),
        "per_class": (_parse_count(1), "200"),
        "dim": (_parse_count(1), "16"),
        "separation": (_parse_open(0, math.inf), "6.0"),
        "test_fraction": (_parse_open(0, 1), "0.2"),
        "probe_size": (_parse_count(1), "100"),
        "probe_shift": (_parse_finite, "1.0"),
        "images": (str, ""),
        "labels": (str, ""),
    },
    "partition": {
        "clients": (int, "20"),
        "classes_per_client": (int, "1"),
        "samples_per_client": (int, "40"),
    },
    "train": {
        "rounds": (int, "300"),
        "local_steps": (int, "2"),
        "pretrain_steps": (int, "10"),
        "learning_rate": (_parse_finite, "0.01"),
        "batch_size": (int, "32"),
        "pretrain_batch": (int, str(RunConfig.pretrain_batch)),
        "hidden": (_parse_intlist, ",".join(map(str, RunConfig.hidden_sizes))),
        "prox_mu": (_parse_finite, "0.0"),
        "bits_per_param": (_parse_count(1), str(DEFAULT_BITS_PER_PARAM)),
        "bits_per_sample": (_parse_count(0), "0"),
        "seq_clusters": (_parse_count(0), "0"),
        "seq_cluster_size": (_parse_count(0), "0"),
    },
    "distill": {
        "support_size": (int, "20"),
        "ridge_lambda": (_parse_finite, "1e-6"),
        "learning_rate": (_parse_finite, "0.004"),
        "iterations": (int, "3000"),
        "target_batch": (int, "10"),
    },
    "cluster": {
        "k": (int, "10"),
    },
}


@dataclass
class ExperimentConfig:
    """Fully validated experiment description plus its normalized text echo."""

    algorithm: str
    output_dir: str
    data: dict
    partition: PartitionSpec
    run: RunConfig
    kip: KipConfig
    k: int
    bits_per_param: int
    bits_per_sample: int
    seq_clusters: int
    seq_cluster_size: int
    echo: dict

    @property
    def seed(self) -> int:
        """The experiment seed; `run.seed` is its one copy."""
        return self.run.seed


def _read_config_file(path: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as f:
            parser.read_file(f)
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except configparser.Error as e:
        raise ConfigError(f"cannot parse config {path}: {e}") from e
    return {section: dict(parser.items(section)) for section in parser.sections()}


def _normalize(raw: dict) -> dict:
    """Overlay the given values on the schema defaults; reject unknown
    sections and keys and missing required keys. The result echoes every
    key as a string."""
    for section, keys in raw.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in keys:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
    echo: dict[str, dict[str, str]] = {}
    for section, keys in _SCHEMA.items():
        echo[section] = {}
        for key, (parse, default) in keys.items():
            value = raw.get(section, {}).get(key, default)
            if value is None:
                raise ConfigError(f"missing required key '{key}' in section [{section}]")
            try:
                parse(value)
            except (ValueError, DomainError) as e:
                raise ConfigError(f"bad value for [{section}] {key}: {e}") from e
            echo[section][key] = value
    return echo


def _experiment_from_echo(echo: dict) -> ExperimentConfig:
    get = lambda s, k: _SCHEMA[s][k][0](echo[s][k])
    algorithm = get("experiment", "algorithm")
    data = {k: get("data", k) for k in _SCHEMA["data"]}
    try:
        partition = PartitionSpec(
            n_clients=get("partition", "clients"),
            classes_per_client=get("partition", "classes_per_client"),
            total_classes=get("data", "classes"),
            samples_per_client=get("partition", "samples_per_client"),
        )
        run = RunConfig(
            rounds=get("train", "rounds"),
            local_steps=get("train", "local_steps"),
            pretrain_steps=get("train", "pretrain_steps"),
            learning_rate=get("train", "learning_rate"),
            batch_size=get("train", "batch_size"),
            prox_mu=get("train", "prox_mu"),
            seed=get("experiment", "seed"),
            pretrain_batch=get("train", "pretrain_batch"),
            hidden_sizes=get("train", "hidden"),
        )
        kip = KipConfig(
            support_size=get("distill", "support_size"),
            ridge_lambda=get("distill", "ridge_lambda"),
            learning_rate=get("distill", "learning_rate"),
            iterations=get("distill", "iterations"),
            target_batch=get("distill", "target_batch"),
        )
        # an IDX file's row count is known only once the build reads it
        if data["kind"] == "synthetic":
            n_train, _ = split_sizes(data["classes"] * data["per_class"], data["test_fraction"])
            need = partition.n_clients * partition.samples_per_client
            if need > n_train:
                raise CapacityError(f"the partition needs {need} rows, the split leaves {n_train}")
    except HflddError as e:
        raise ConfigError(str(e)) from e
    k = get("cluster", "k")
    seq_clusters = get("train", "seq_clusters")
    seq_cluster_size = get("train", "seq_cluster_size")
    if data["kind"] == "idx" and (not data["images"] or not data["labels"]):
        raise ConfigError("idx data needs both 'images' and 'labels' paths")
    if algorithm == "fedseq" and seq_clusters * seq_cluster_size != partition.n_clients:
        raise ConfigError(
            "seq_clusters * seq_cluster_size must equal the client count "
            f"({seq_clusters} * {seq_cluster_size} != {partition.n_clients})"
        )
    if algorithm == "hfldd" and not 2 <= k <= partition.n_clients:
        raise ConfigError(f"cluster k must be in [2, {partition.n_clients}], got {k}")
    if algorithm == "hfldd" and kip.support_size > partition.samples_per_client:
        # every member distills from its own samples_per_client rows
        raise ConfigError(
            f"[distill] support_size {kip.support_size} exceeds "
            f"[partition] samples_per_client {partition.samples_per_client}"
        )
    return ExperimentConfig(
        algorithm=algorithm,
        output_dir=get("experiment", "output_dir"),
        data=data,
        partition=partition,
        run=run,
        kip=kip,
        k=k,
        bits_per_param=get("train", "bits_per_param"),
        bits_per_sample=get("train", "bits_per_sample"),
        seq_clusters=seq_clusters,
        seq_cluster_size=seq_cluster_size,
        echo=echo,
    )


def load_config(path: str) -> ExperimentConfig:
    return _experiment_from_echo(_normalize(_read_config_file(path)))


def load_manifest(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise ManifestError(f"cannot read manifest {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # bad JSON, bad UTF-8 or too deep
        raise ManifestError(f"manifest {path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ManifestError(f"manifest {path} is not a JSON object")
    if doc.get("schema") != MANIFEST_SCHEMA:
        raise ManifestError(f"manifest {path} has schema {doc.get('schema')!r}")
    config = doc.get("config")
    if not isinstance(config, dict):
        raise ManifestError(f"manifest {path} is missing its config echo")
    for section, keys in config.items():
        if not (isinstance(keys, dict) and all(isinstance(v, str) for v in keys.values())):
            raise ManifestError(f"manifest {path}: config section {section!r} is not all strings")
    return _experiment_from_echo(_normalize(config))


def _build_problem(xc: ExperimentConfig):
    """Materialize (clients, probe, test) from the data section.

    Every row is planned from labels and row counts before any row is made:
    the train/test split, the label-skew partition and the probe pick are
    row plans. Each block is then made once, synthetic rows by drawing the
    pool class by class and keeping only the planned rows, IDX rows by one
    gather from the loaded images; the clients and the test set are row
    views of one block. No pool-sized copy is made.
    """
    d, spec = xc.data, xc.partition

    def rng(stream: int) -> SeededRng:
        return SeededRng(xc.seed, stream)

    if d["kind"] == "synthetic":
        means = class_means(d["classes"], d["dim"], d["separation"], rng(streams.MEANS))
        labels, class_count = pool_labels(d["classes"], d["per_class"]), d["classes"]
    else:
        full = load_idx(d["images"], d["labels"])
        labels, class_count = full.label_indices(), full.class_count
    train, test_rows = split_train_test(labels.shape[0], d["test_fraction"], rng(streams.SPLIT))
    plan = partition_label_skew(labels[train], class_count, spec, rng(streams.PARTITION))
    client_rows = train[plan]
    sizes = [spec.samples_per_client] * spec.n_clients + [test_rows.shape[0]]
    if d["kind"] == "synthetic":
        probe_means = shift_means(means, d["probe_shift"], rng(streams.SHIFT))
        per_class_probe = max(1, math.ceil(d["probe_size"] / d["classes"]))
        n_probe_pool = d["classes"] * per_class_probe
        pick = make_probe_dataset(n_probe_pool, d["probe_size"], rng(streams.PROBE))
        probe = sample_classes(probe_means, per_class_probe, rng(streams.PROBE_POOL), rows=pick)
        rows = np.concatenate([client_rows, test_rows])
        block = sample_classes(means, d["per_class"], rng(streams.POOL), rows=rows)
        parts = block.split_rows(sizes)
    else:
        pick = train[make_probe_dataset(train.shape[0], d["probe_size"], rng(streams.PROBE))]
        rows = np.concatenate([client_rows, test_rows, pick])
        parts = full.subset(rows).split_rows([*sizes, pick.shape[0]])
        probe = parts.pop()
    test = parts.pop()
    clients = [ClientState(i, part) for i, part in enumerate(parts)]
    return clients, probe, test


def _git_describe() -> str | None:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _metrics_csv(metrics) -> str:
    lines = [METRICS_HEADER]
    for m in metrics:
        lines.append(f"{m.round_index},{m.accuracy!r},{m.loss!r},{m.cumulative_bits}")
    return "\n".join(lines) + "\n"


def _cost_model_for(xc: ExperimentConfig, result, model_params: int) -> CostModel:
    # Each non-head member ships one [distill] support_size support; a row costs
    # what run_hfldd charged, so the closed form agrees with whoever chose it.
    # Only fedseq runs chains; another algorithm's config may carry an unused shape.
    n_heads = result.topology.n_heads() if result.topology else 0
    n_homog = len(result.topology.homogeneous) if result.topology else 0
    members = xc.partition.n_clients - n_heads if n_heads else 0
    chains = (xc.seq_clusters, xc.seq_cluster_size) if xc.algorithm == "fedseq" else (0, 0)
    return CostModel(
        n_clients=xc.partition.n_clients,
        n_heads=n_heads,
        n_homogeneous=n_homog,
        rounds=xc.run.rounds,
        seq_clusters=chains[0],
        seq_cluster_size=chains[1],
        model_params=model_params,
        probe_size=xc.data["probe_size"],
        class_count=xc.data["classes"],
        bits_per_param=xc.bits_per_param,
        bits_per_sample=result.bits_per_sample,
        distilled_sizes=(xc.kip.support_size,) * members,
    )


def cmd_run(args) -> None:
    if args.from_manifest:
        xc = load_manifest(args.from_manifest)
    elif args.config:
        xc = load_config(args.config)
    else:
        raise ConfigError("need a config path or --from-manifest")
    out_dir = args.out or xc.output_dir

    with _stage("build"):
        clients, probe, test = _build_problem(xc)
    if xc.algorithm == "fedavg":
        result = run_fedavg(clients, test, xc.run, xc.bits_per_param)
    elif xc.algorithm == "fedprox":
        result = run_fedprox(clients, test, xc.run, xc.bits_per_param)
    elif xc.algorithm == "fedseq":
        result = run_fedseq_lite(
            clients, test, xc.run, xc.seq_clusters, xc.seq_cluster_size, xc.bits_per_param
        )
    else:
        result = run_hfldd(
            clients, probe, test, xc.run, xc.kip, xc.k, xc.bits_per_param,
            xc.bits_per_sample or None,
        )
    model_params = result.final_model.parameter_count()
    report = ledger_audit(result.ledger, _cost_model_for(xc, result, model_params), xc.algorithm)

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "seed": xc.seed,
        "algorithm": xc.algorithm,
        "config": xc.echo,
        "git_describe": _git_describe(),
        "package_version": __version__,
        "model_params": model_params,
        # 1 when every stage pinned both OpenBLAS builds, numpy's and scipy's.
        "blas_threads": 1 if numkernel.BLAS_PINNED else "unmanaged",
    }
    files = [
        ("metrics.csv", _metrics_csv(result.metrics)),
        ("cost.json", json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"),
        ("manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n"),
    ]
    if result.topology is not None:
        files.append(("topology.json", result.topology.to_json(seed=xc.seed)))
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []
    try:
        for name, text in files:
            path = os.path.join(out_dir, name)
            with open(path, "w", encoding="utf-8") as f:
                written.append(path)
                f.write(text)
    except OSError:
        for path in written:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise
    print(f"run complete: {xc.algorithm}, {len(result.metrics)} rounds, outputs in {out_dir}")


def _load_run_dir(run_dir: str):
    manifest_path = os.path.join(run_dir, "manifest.json")
    metrics_path = os.path.join(run_dir, "metrics.csv")
    for path in (manifest_path, metrics_path):
        if not os.path.isfile(path):
            raise ManifestError(f"run directory {run_dir} is missing {os.path.basename(path)}")
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
        with open(metrics_path, "r", encoding="utf-8") as f:
            lines = [line.strip() for line in f]
    except (OSError, ValueError, RecursionError) as e:  # unreadable, bad UTF-8 or bad JSON
        raise ManifestError(f"run directory {run_dir} cannot be read: {e}") from e
    if not isinstance(manifest, dict):
        raise ManifestError(f"run directory {run_dir} has a manifest that is not a JSON object")
    algorithm = manifest.get("algorithm")
    if algorithm not in ALGORITHMS:
        raise ManifestError(
            f"run directory {run_dir} has manifest algorithm {algorithm!r}, not one of {ALGORITHMS}"
        )
    if lines[:1] != [METRICS_HEADER]:
        raise ManifestError(f"run directory {run_dir} has an unrecognized metrics header")
    rows = []
    for line in lines[1:]:
        # the rows `hfldd run` writes: rounds 1, 2, 3, ..., accuracy in
        # [0, 1], loss >= 0, and bits that never decrease
        try:
            r, acc, loss, bits = line.split(",")
            if int(r) != len(rows) + 1:
                raise DomainError(f"round must be {len(rows) + 1}, got {int(r)}")
            acc, loss = check_real("accuracy", float(acc), 0), check_real("loss", float(loss), 0)
            if acc > 1:
                raise DomainError(f"accuracy must be <= 1, got {acc!r}")
            bits = check_count("cumulative_bits", int(bits), rows[-1][3] if rows else 0)
        except (ValueError, DomainError) as e:
            raise ManifestError(
                f"run directory {run_dir} has a bad metrics row {line!r}: {e}"
            ) from e
        rows.append((len(rows) + 1, acc, loss, bits))
    if not rows:
        raise ManifestError(f"run directory {run_dir} has no metric rows")
    return algorithm, rows


def cmd_compare(args) -> None:
    if len(args.run_dirs) < 2:
        raise ConfigError("compare needs at least two run directories")
    runs = [(d, *_load_run_dir(d)) for d in args.run_dirs]

    if args.target is None:
        target = min(max(r[1] for r in rows) for _, _, rows in runs)
    else:
        try:
            target = check_real("--target", args.target)
        except DomainError as e:
            raise ConfigError(str(e)) from e

    reached: list[tuple[int, int] | None] = []
    for _, _, rows in runs:
        hit = next(((r, bits) for r, acc, _, bits in rows if acc >= target), None)
        reached.append(hit)
    base_bits = reached[0][1] if reached[0] else None

    print(f"target_accuracy={target!r}")
    print("run,algorithm,rounds_to_target,bits_to_target,megabytes,ratio")
    for (run_dir, algo, _), hit in zip(runs, reached):
        if hit is None:
            print(f"{run_dir},{algo},not reached,n/a,n/a,n/a")
            continue
        rounds, bits = hit
        if base_bits:
            ratio = f"{bits / base_bits:.2f}X"
        else:
            ratio = "n/a"
        print(f"{run_dir},{algo},{rounds},{bits},{bits_to_megabytes(bits):.4f},{ratio}")

    curves_path = args.curves_out or os.path.join(args.run_dirs[0], "compare_curves.csv")
    with open(curves_path, "w", encoding="utf-8") as f:
        f.write(f"run,algorithm,{METRICS_HEADER}\n")
        for run_dir, algo, rows in runs:
            for r, acc, loss, bits in rows:
                f.write(f"{run_dir},{algo},{r},{acc!r},{loss!r},{bits}\n")
    print(f"curves written to {curves_path}")


# Cost flags and cost JSON keys are the CostModel field names, except these.
_COST_FLAG = {
    "n_clients": "clients",
    "n_heads": "heads",
    "n_homogeneous": "homogeneous",
    "class_count": "classes",
}
_COST_KEYS = {f.name: _COST_FLAG.get(f.name, f.name) for f in fields(CostModel)}
_COST_REQUIRED = ("clients", "rounds", "model_params")


def _cost_output(inputs: dict) -> tuple[str, dict]:
    kw = {name: inputs[key] for name, key in _COST_KEYS.items()}
    kw["distilled_sizes"] = tuple(kw["distilled_sizes"])
    c = CostModel(**kw)
    fa, hf, fs = cost_fedavg(c), cost_hfldd(c), cost_fedseq(c)
    ratio = hf / fa if fa else None  # JSON null: there is no ratio to zero bits
    lines = [
        "algorithm,bits,megabytes",
        f"fedavg,{fa},{bits_to_megabytes(fa):.4f}",
        f"hfldd,{hf},{bits_to_megabytes(hf):.4f}",
        f"fedseq,{fs},{bits_to_megabytes(fs):.4f}",
        f"hfldd_over_fedavg={'n/a' if ratio is None else f'{ratio:.4f}'}",
    ]
    results = {
        "fedavg_bits": fa,
        "hfldd_bits": hf,
        "fedseq_bits": fs,
        "hfldd_over_fedavg": ratio,
    }
    return "\n".join(lines), results


def cmd_cost(args) -> None:
    if args.from_json:
        try:
            with open(args.from_json, "r", encoding="utf-8") as f:
                inputs = json.load(f)["inputs"]
        except (OSError, ValueError, RecursionError, KeyError, TypeError) as e:
            raise ConfigError(f"cannot load cost parameters: {e}") from e
    else:
        missing = [key for key in _COST_REQUIRED if getattr(args, key) is None]
        if missing:
            flags = ", ".join("--" + f.replace("_", "-") for f in missing)
            raise ConfigError(f"missing required flags: {flags}")
        inputs = {key: getattr(args, key) for key in _COST_KEYS.values()}
    try:
        table, results = _cost_output(inputs)
    except (HflddError, KeyError, TypeError) as e:
        raise ConfigError(f"bad cost parameters: {e}") from e
    print(table)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            f.write(json.dumps({"inputs": inputs, "results": results}, indent=2, sort_keys=True) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfldd",
        description="Deterministic simulator for clustered federated learning "
        "with dataset distillation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured experiment")
    p_run.add_argument("config", nargs="?", help="INI experiment configuration")
    p_run.add_argument("--from-manifest", help="replay a run from its manifest.json")
    p_run.add_argument("--out", help="override the configured output directory")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="tabulate completed runs against each other")
    p_cmp.add_argument("run_dirs", nargs="+", help="two or more run directories")
    p_cmp.add_argument("--target", type=float, help="target accuracy (default: best shared)")
    p_cmp.add_argument("--curves-out", help="path for the merged learning-curve CSV")
    p_cmp.set_defaults(func=cmd_compare)

    p_cost = sub.add_parser("cost", help="closed-form communication costs")
    for f in fields(CostModel):
        key = _COST_KEYS[f.name]
        listed = isinstance(f.default, tuple)
        p_cost.add_argument(
            "--" + key.replace("_", "-"),
            type=_intlist_arg if listed else int,
            default=None if key in _COST_REQUIRED else f.default,
            help="comma-separated distilled set sizes, one per member" if listed else None,
        )
    p_cost.add_argument("--json", help="also write inputs and results as JSON")
    p_cost.add_argument("--from-json", dest="from_json", help="load inputs from a cost JSON")
    p_cost.set_defaults(func=cmd_cost)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the one place a failure becomes an exit code: 2
    for bad input, 3 for any other package or OS error."""
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ConfigError, ManifestError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (HflddError, OSError) as e:
        stage = f" [{e.stage}]" if isinstance(e, StageError) else ""
        print(f"error{stage}: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
