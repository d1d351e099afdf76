"""Outside-in span tracer for the hfldd modules.

The tracer replaces functions in the package's module namespaces with
wrappers that record spans (name, start, end, parent), and restores the
originals on exit. Spans are kept in memory; `self_times` and `summarize`
turn them into per-layer counts and self times after the run.

Two details decide where a wrapper must go:

- A module that did `from .model import backward` calls its own binding of
  the name, so each calling namespace is wrapped, not only the defining one.
  That is why `model.backward` is wrapped in `model` (for `local_train`) and
  in `fltrain` (for the FedProx local loop), and why the problem builders
  are wrapped in `cli`, which builds the benchmark's problems.
- `hfldd/__init__.py` re-exports the function `distill` over the submodule
  name, so `import hfldd.distill as D` yields the function. Modules are
  resolved with `importlib.import_module`, which returns the module.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

# Span name -> (module, attribute) sites whose binding is replaced.
SPANS = {
    "datagen.class_means": [("cli", "class_means")],
    "datagen.sample_classes": [("cli", "sample_classes")],
    "datagen.shift_means": [("cli", "shift_means")],
    "datagen.split_train_test": [("cli", "split_train_test")],
    "datagen.make_probe_dataset": [("cli", "make_probe_dataset")],
    "datagen.partition_label_skew": [("cli", "partition_label_skew")],
    "fltrain.run_fedavg": [("fltrain", "run_fedavg")],
    "fltrain.run_fedprox": [("fltrain", "run_fedprox")],
    "fltrain.run_fedseq_lite": [("fltrain", "run_fedseq_lite")],
    "fltrain.run_hfldd": [("fltrain", "run_hfldd")],
    # Local training of every algorithm, the FedProx fork included.
    "fltrain.local_train": [("fltrain", "local_train"), ("fltrain", "_prox_local_train")],
    "fltrain.aggregate": [("fltrain", "aggregate")],
    # Per-round evaluation: test accuracy plus the weighted training loss.
    "fltrain.eval": [("fltrain", "accuracy"), ("fltrain", "dataset_loss")],
    "model.init_mlp": [("fltrain", "init_mlp")],
    "model.backward": [("model", "backward"), ("fltrain", "backward")],
    "model.sgd_step": [("model", "sgd_step"), ("fltrain", "sgd_step")],
    "model.forward": [("model", "forward")],
    "model.soft_labels": [("fltrain", "soft_labels")],
    "distill.distill": [("fltrain", "distill")],
    "distill.kip_gradient": [("distill", "kip_gradient")],
    "distill.kip_loss": [("distill", "kip_loss")],
    "numkernel.rbf_gamma": [("fltrain", "rbf_gamma")],
    "numkernel.rbf_kernel": [("distill", "rbf_kernel")],
    "numkernel.ridge_solve": [("distill", "ridge_solve")],
    "topology.build_topology": [("fltrain", "build_topology")],
    "topology.build_similarity": [("topology", "build_similarity")],
    "topology.kmeans_rows": [("topology", "kmeans_rows")],
    "topology.cluster_sampling": [("topology", "cluster_sampling")],
    "topology.elect_heads": [("topology", "elect_heads")],
}

# Functions called so often, and for so little work each, that a span would
# cost more than the call: they are counted only, and their time stays in
# the caller's self time.
COUNTS = {
    "numkernel.as_matrix": [
        ("numkernel", "as_matrix"),
        ("datagen", "as_matrix"),
        ("model", "as_matrix"),
        ("distill", "as_matrix"),
        ("topology", "as_matrix"),
    ],
    "topology.kl_divergence": [("topology", "kl_divergence")],
}


def module(name: str):
    return importlib.import_module(f"hfldd.{name}")


class Tracer:
    """Records spans as (name, start, end, parent index); parent -1 is a root.

    Spans are listed in the order they start. Counts of count-only functions
    are kept in `counts`.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every site in SPANS and COUNTS; restore them all on exit."""
        saved = []
        try:
            for table, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
                for name, sites in table.items():
                    for mod_name, attr in sites:
                        mod = module(mod_name)
                        original = getattr(mod, attr)
                        saved.append((mod, attr, original))
                        setattr(mod, attr, make(name, original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, summed duration, summed self time."""
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += own
    return out


def hfldd_stages(spans) -> dict[str, float]:
    """Stage times of every run_hfldd span, from the spans directly under it.

    label: run start to build_topology start; cluster: build_topology;
    distill: build_topology end to the end of the last distill call; train:
    the first local_train after distillation to the run's end. The short gap
    that assembles head datasets between distill and train is in no stage.
    """
    stages = {"label_s": 0.0, "cluster_s": 0.0, "distill_s": 0.0, "train_s": 0.0}
    kids: dict[int, list] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            kids.setdefault(parent, []).append((name, start, end))
    for idx, (name, start, end, _) in enumerate(spans):
        if name != "fltrain.run_hfldd":
            continue
        under = kids.get(idx, [])
        topo = next(s for s in under if s[0] == "topology.build_topology")
        distill_end = max((s[2] for s in under if s[0] == "distill.distill"), default=topo[2])
        train_start = min(
            (s[1] for s in under if s[0] == "fltrain.local_train" and s[1] >= distill_end),
            default=end,
        )
        stages["label_s"] += topo[1] - start
        stages["cluster_s"] += topo[2] - topo[1]
        stages["distill_s"] += distill_end - topo[2]
        stages["train_s"] += end - train_start
    return stages


# Span name -> role of metrics.complexity_estimates it is charged to.
ROLE_OF = {
    "topology.build_similarity": "server_similarity",
    "topology.kmeans_rows": "server_kmeans",
    "fltrain.aggregate": "server_aggregation",
    "model.soft_labels": "member_pretrain",
    "distill.distill": "member_distill",
}


def hfldd_roles(spans) -> dict[str, float]:
    """Traced seconds per role of metrics.complexity_estimates, inside hfldd.

    Pretraining is every local_train before clustering plus soft labels;
    head training is every local_train after it.
    """
    roles = dict.fromkeys((*ROLE_OF.values(), "head_training"), 0.0)
    root_of = []  # a parent always starts, so is listed, before its children
    for idx, (_, _, _, parent) in enumerate(spans):
        root_of.append(idx if parent < 0 else root_of[parent])
    topo_start = {
        root_of[idx]: start
        for idx, (name, start, _, _) in enumerate(spans)
        if name == "topology.build_topology"
    }
    for idx, (name, start, end, _) in enumerate(spans):
        root = root_of[idx]
        if spans[root][0] != "fltrain.run_hfldd":
            continue
        if name == "fltrain.local_train":
            role = "member_pretrain" if start < topo_start[root] else "head_training"
        else:
            role = ROLE_OF.get(name)
        if role:
            roles[role] += end - start
    return roles
