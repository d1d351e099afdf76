"""Training orchestration: the clustered distillation pipeline and the
FedAvg, FedProx, and FedSeq-lite baselines.

Every source of randomness is a distinct stream derived from the one run
seed, keyed by role, round, and client id (the layout is in `streams`).
Shared keys across algorithms are deliberate: the head-training phase of the
pipeline consumes exactly the streams a plain parallel run over the same
clients would, which makes the reduction relationships between algorithms
testable bit-for-bit.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import streams
from .datagen import LabeledDataset, concat_datasets
from .distill import KipConfig, distill
from .errors import (
    CapacityError,
    DomainError,
    EmptyInputError,
    ShapeError,
    StageError,
)
from .metrics import (
    DEFAULT_BITS_PER_FEATURE,
    DEFAULT_BITS_PER_PARAM,
    PAYLOAD_DISTILLED,
    PAYLOAD_MODEL,
    PAYLOAD_SOFT_LABELS,
    TransmissionLedger,
)
from .model import (
    MlpModel,
    SgdConfig,
    accuracy,
    backward,  # noqa: F401
    dataset_loss,
    init_mlp,
    local_train,
    sgd_step,  # noqa: F401
    soft_labels,
)
from .numkernel import QUIET, SeededRng, rbf_gamma
from .topology import ClusterTopology, build_topology

# bench/tracer.py wraps `backward`, `sgd_step` and `_prox_local_train` in this
# namespace by name. Nothing here calls them; they are plain bindings of the
# model's functions, so `model.local_train` stays the one training loop.
_prox_local_train = local_train

ALGORITHMS = ("hfldd", "fedavg", "fedprox", "fedseq")

DEFAULT_HIDDEN = (64, 64)


def pass_steps(n_rows: int, batch_size: int, passes: int) -> int:
    """Mini-batch steps in `passes` full passes over an n_rows dataset."""
    if n_rows < 1:
        raise EmptyInputError("cannot schedule passes over an empty dataset")
    per_pass = -(-n_rows // min(batch_size, n_rows))
    return passes * per_pass


def _pass_schedule(cfg: RunConfig, d, batch_size: int, passes: int) -> SgdConfig:
    """SGD over `passes` full passes of dataset d at the run's learning rate."""
    return SgdConfig(cfg.learning_rate, batch_size, pass_steps(d.n_rows(), batch_size, passes))


@dataclass
class RunConfig:
    """Knobs shared by every algorithm; prox_mu is ignored by all but
    FedProx. FedSeq-lite's cluster shape is an argument of run_fedseq_lite.

    local_steps and pretrain_steps count full passes over the trainer's own
    dataset, the way local work is matched between algorithms whose trainers
    hold datasets of very different sizes. One pass is ceil(n / batch) mini
    batch steps, so a trainer with more rows does proportionally more steps
    per round at the same setting.
    """

    rounds: int
    local_steps: int
    pretrain_steps: int
    learning_rate: float
    batch_size: int
    prox_mu: float
    seed: int
    pretrain_batch: int = 64
    hidden_sizes: tuple[int, ...] = DEFAULT_HIDDEN

    def __post_init__(self):
        if not 1 <= self.rounds < streams.MAX_ID:
            raise DomainError(f"rounds must be in [1, {streams.MAX_ID}), got {self.rounds}")
        if self.local_steps < 1:
            raise DomainError(f"local_steps must be >= 1, got {self.local_steps}")
        if self.pretrain_steps < 0:
            raise DomainError(f"pretrain_steps must be >= 0, got {self.pretrain_steps}")
        if not 0 < self.learning_rate < math.inf:
            raise DomainError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.batch_size < 1 or self.pretrain_batch < 1:
            raise DomainError("batch sizes must be >= 1")
        if any(h < 1 for h in self.hidden_sizes):
            raise DomainError(f"hidden layer sizes must be >= 1, got {self.hidden_sizes}")
        if not 0 <= self.prox_mu < math.inf:
            raise DomainError(f"prox_mu must be finite and nonnegative, got {self.prox_mu}")
        if not 0 <= self.seed < 1 << 64:
            raise DomainError(f"seed must be in [0, 2^64), got {self.seed}")


@dataclass
class ClientState:
    client_id: int
    data: LabeledDataset

    def __post_init__(self):
        if not 0 <= self.client_id < streams.MAX_ID:
            raise DomainError(f"client_id must be in [0, {streams.MAX_ID}), got {self.client_id}")


@dataclass(frozen=True)
class RoundMetrics:
    round_index: int
    accuracy: float
    loss: float
    cumulative_bits: int


@dataclass
class RunResult:
    """Per-round metrics plus the artifacts the caller needs to audit a run."""

    metrics: list[RoundMetrics]
    ledger: TransmissionLedger
    final_model: MlpModel
    topology: ClusterTopology | None = None
    head_data: dict[int, LabeledDataset] = field(default_factory=dict)
    distilled_sizes: tuple[int, ...] = ()
    bits_per_sample: int = 0  # the price run_hfldd charged per distilled row


def initial_model(cfg: RunConfig, dim: int, class_count: int) -> MlpModel:
    """The shared starting model every algorithm derives from the run seed."""
    return init_mlp((dim, *cfg.hidden_sizes, class_count), SeededRng(cfg.seed, streams.INIT))


def aggregate(models, weights) -> MlpModel:
    """Parameter-wise weighted average; weights are normalized to sum 1."""
    models = list(models)
    weights = [float(w) for w in weights]
    if not models:
        raise EmptyInputError("no models to aggregate")
    if len(models) != len(weights):
        raise DomainError(f"{len(models)} models but {len(weights)} weights")
    sizes = models[0].sizes
    for i, m in enumerate(models[1:], start=1):
        if m.sizes != sizes:
            raise ShapeError(f"model {i} architecture {m.sizes} != {sizes}")
    if not all(0 <= w < math.inf for w in weights):
        raise DomainError("aggregation weights must be finite and nonnegative")
    total = sum(weights)
    if not 0 < total < math.inf:
        raise DomainError("aggregation weights must sum to a finite positive value")
    out = np.zeros_like(models[0].params)
    for m, w in zip(models, weights):
        out += (w / total) * m.params
    return MlpModel(sizes, out)


def _round_metrics(t: int, model: MlpModel, test, clients, ledger) -> RoundMetrics:
    """Round t's row: test accuracy, the training loss over all clients
    weighted by their row counts, and the bits logged so far."""
    acc = accuracy(model, test)
    total = float(sum(c.data.n_rows() for c in clients))
    loss = sum(c.data.n_rows() / total * dataset_loss(model, c.data) for c in clients)
    return RoundMetrics(t, acc, loss, ledger.total_bits())


def _check_finite(model: MlpModel, what: str) -> None:
    if not np.isfinite(model.params).all():
        raise DomainError(f"{what} has non-finite parameters: training diverged")


@contextmanager
def _stage(name: str, round_index: int | None = None):
    """Run one stage, or one training round, with numpy's QUIET warnings off; any
    failure inside is a StageError naming it, unless a nested stage named it."""
    with np.errstate(**QUIET):
        try:
            yield
        except StageError:
            raise
        except Exception as e:
            raise StageError(name, e, round_index) from e


def _model_bits(model: MlpModel, bits_per_param: int) -> int:
    return model.parameter_count() * bits_per_param


def _check_clients(clients):
    if not clients:
        raise EmptyInputError("no clients")
    ids = [c.client_id for c in clients]
    if len(set(ids)) != len(ids):
        raise DomainError("client ids must be unique")
    dim = clients[0].data.dim()
    n_c = clients[0].data.class_count
    for c in clients:
        if c.data.dim() != dim or c.data.class_count != n_c:
            raise ShapeError(f"client {c.client_id} data dimensions differ from client {ids[0]}")
        if c.data.n_rows() == 0:
            raise EmptyInputError(f"client {c.client_id} has no data")
    return dim, n_c


def _parallel_rounds(
    clients,
    test,
    cfg: RunConfig,
    ledger: TransmissionLedger,
    bits_per_param: int,
    prox_mu: float = 0.0,
) -> tuple[list[RoundMetrics], MlpModel]:
    """Shared engine: T rounds of broadcast, local steps, weighted averaging.

    The first broadcast is free (the starting model is reproducible from the
    seed); uploads happen every round and downloads from round 2 on, so total
    model traffic is N * (2T - 1) transmissions. With prox_mu > 0 every local
    gradient gains a pull toward the round's global model.
    """
    dim, n_c = _check_clients(clients)
    model = initial_model(cfg, dim, n_c)
    bits = _model_bits(model, bits_per_param)
    weights = [c.data.n_rows() for c in clients]
    out = []
    for t in range(1, cfg.rounds + 1):
        with _stage("training", t):
            if t > 1:
                for c in clients:
                    ledger.record(t, "server", f"client-{c.client_id}", PAYLOAD_MODEL, bits)
            local_models = []
            for c in clients:
                sgd = _pass_schedule(cfg, c.data, cfg.batch_size, cfg.local_steps)
                rng = SeededRng(cfg.seed, streams.train(t, c.client_id))
                local_models.append(local_train(model, c.data, sgd, rng, prox_mu))
                ledger.record(t, f"client-{c.client_id}", "server", PAYLOAD_MODEL, bits)
            model = aggregate(local_models, weights)
            _check_finite(model, "the global model")
            out.append(_round_metrics(t, model, test, clients, ledger))
    return out, model


def run_fedavg(clients, test, cfg: RunConfig, bits_per_param: int = DEFAULT_BITS_PER_PARAM) -> RunResult:
    """Parallel training over all clients with sample-count weighting."""
    ledger = TransmissionLedger()
    metrics, model = _parallel_rounds(list(clients), test, cfg, ledger, bits_per_param)
    return RunResult(metrics, ledger, model)


def run_fedprox(clients, test, cfg: RunConfig, bits_per_param: int = DEFAULT_BITS_PER_PARAM) -> RunResult:
    """run_fedavg with a proximal pull toward the global model in each step.

    With prox_mu == 0 the proximal term is skipped entirely, so the run is
    bit-identical to run_fedavg.
    """
    ledger = TransmissionLedger()
    metrics, model = _parallel_rounds(
        list(clients), test, cfg, ledger, bits_per_param, prox_mu=cfg.prox_mu
    )
    return RunResult(metrics, ledger, model)


def run_fedseq_lite(
    clients,
    test,
    cfg: RunConfig,
    cluster_count: int,
    cluster_size: int,
    bits_per_param: int = DEFAULT_BITS_PER_PARAM,
) -> RunResult:
    """Sequential training inside random clusters, then averaging across them.

    Each round the clients are re-partitioned into `cluster_count` groups of
    `cluster_size`; the model walks through each group member in turn before
    the group uploads. Ledger accounting per cluster and round: one fetch of
    the global model (from round 2 on), one delivery per member, one upload.
    """
    clients = list(clients)
    dim, n_c = _check_clients(clients)
    n = len(clients)
    if cluster_count * cluster_size != n:
        raise CapacityError(
            f"cluster_count * cluster_size must equal client count "
            f"({cluster_count} * {cluster_size} != {n})"
        )
    ledger = TransmissionLedger()
    model = initial_model(cfg, dim, n_c)
    bits = _model_bits(model, bits_per_param)
    out = []
    for t in range(1, cfg.rounds + 1):
        with _stage("training", t):
            perm = SeededRng(cfg.seed, streams.SEQ_PARTITION | t).generator().permutation(n)
            cluster_models = []
            cluster_weights = []
            for o in range(cluster_count):
                group = [clients[int(p)] for p in perm[o * cluster_size : (o + 1) * cluster_size]]
                holder = f"seq-{o}"
                if t > 1:
                    ledger.record(t, "server", holder, PAYLOAD_MODEL, bits)
                m = model
                for c in group:
                    ledger.record(t, holder, f"client-{c.client_id}", PAYLOAD_MODEL, bits)
                    holder = f"client-{c.client_id}"
                    sgd = _pass_schedule(cfg, c.data, cfg.batch_size, cfg.local_steps)
                    rng = SeededRng(cfg.seed, streams.train(t, c.client_id))
                    m = local_train(m, c.data, sgd, rng)
                ledger.record(t, holder, "server", PAYLOAD_MODEL, bits)
                cluster_models.append(m)
                cluster_weights.append(sum(c.data.n_rows() for c in group))
            model = aggregate(cluster_models, cluster_weights)
            _check_finite(model, "the global model")
            out.append(_round_metrics(t, model, test, clients, ledger))
    return RunResult(out, ledger, model)


def run_hfldd(
    clients,
    probe,
    test,
    cfg: RunConfig,
    kip: KipConfig,
    k: int,
    bits_per_param: int = DEFAULT_BITS_PER_PARAM,
    bits_per_sample: int | None = None,
) -> RunResult:
    """The full four-stage pipeline.

    1. Every client briefly trains the shared starting model on its own data
       and uploads soft labels for the probe set.
    2. The server clusters clients by soft-label divergence, regroups them
       into heterogeneous clusters, and elects one head per cluster.
    3. Non-head members distill their data and ship it to their head, which
       combines it with its own raw data.
    4. Heads alone train with the server for cfg.rounds rounds.

    Stage traffic is logged under round 0; training traffic under its round.
    A distilled row costs bits_per_sample bits (default: the data's width
    times DEFAULT_BITS_PER_FEATURE); the result records the price charged.
    """
    clients = list(clients)
    dim, n_c = _check_clients(clients)
    if len(clients) < 2:
        raise DomainError("the pipeline needs at least 2 clients")
    if probe.dim() != dim or probe.class_count != n_c:
        raise ShapeError("probe dimensions do not match client data")
    if bits_per_sample is None:
        bits_per_sample = dim * DEFAULT_BITS_PER_FEATURE
    ledger = TransmissionLedger()
    model0 = initial_model(cfg, dim, n_c)
    bits = _model_bits(model0, bits_per_param)
    by_id = {c.client_id: c for c in clients}

    # Stage 1: label knowledge collection.
    with _stage("label-collection"):
        soft = []
        soft_bits = probe.n_rows() * n_c * bits_per_param
        for c in clients:
            pre_sgd = _pass_schedule(cfg, c.data, cfg.pretrain_batch, cfg.pretrain_steps)
            pre_rng = SeededRng(cfg.seed, streams.PRETRAIN + c.client_id)
            pre = local_train(model0, c.data, pre_sgd, pre_rng)
            _check_finite(pre, f"client {c.client_id}'s pretrained model")
            soft.append(soft_labels(pre, probe))
            ledger.record(0, f"client-{c.client_id}", "server", PAYLOAD_SOFT_LABELS, soft_bits)

    # Stage 2: clustering on the server. Cluster entries are positions in the
    # client list; translate to ids before anything leaves this block.
    with _stage("clustering"):
        topo_by_pos = build_topology(
            soft,
            k,
            SeededRng(cfg.seed, streams.KMEANS),
            SeededRng(cfg.seed, streams.SAMPLING),
            SeededRng(cfg.seed, streams.HEADS),
        )
        ids = [c.client_id for c in clients]
        topo = ClusterTopology(
            tuple(tuple(ids[p] for p in cl) for cl in topo_by_pos.homogeneous),
            tuple(tuple(ids[p] for p in cl) for cl in topo_by_pos.heterogeneous),
            tuple(ids[p] for p in topo_by_pos.heads),
        )

    # Stage 3: members distill, heads assemble hybrid datasets.
    with _stage("distillation"):
        head_states = []
        head_data = {}
        distilled_sizes = []
        for cluster, head_id in zip(topo.heterogeneous, topo.heads):
            parts = [by_id[head_id].data]
            for member_id in cluster:
                if member_id == head_id:
                    continue
                member = by_id[member_id]
                gamma = rbf_gamma(member.data.features)
                ds = distill(member.data, kip, gamma, SeededRng(cfg.seed, streams.DISTILL + member_id))
                parts.append(ds.data)
                distilled_sizes.append(ds.n_rows())
                ledger.record(
                    0,
                    f"client-{member_id}",
                    f"client-{head_id}",
                    PAYLOAD_DISTILLED,
                    ds.n_rows() * bits_per_sample,
                )
            hybrid = concat_datasets(parts)
            head_states.append(ClientState(head_id, hybrid))
            head_data[head_id] = hybrid

    # Stage 4: head-only training, identical in structure to run_fedavg over
    # the head clients (and over the same rng streams).
    with _stage("training"):
        metrics, model = _parallel_rounds(head_states, test, cfg, ledger, bits_per_param)
    return RunResult(
        metrics,
        ledger,
        model,
        topology=topo,
        head_data=head_data,
        distilled_sizes=tuple(distilled_sizes),
        bits_per_sample=bits_per_sample,
    )
