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

from dataclasses import dataclass, field

import numpy as np

from . import streams
from .datagen import LabeledDataset
from .distill import KipConfig, distill
from .errors import (
    CapacityError,
    DomainError,
    EmptyInputError,
    ShapeError,
    StageError,
)
from .metrics import (
    PAYLOAD_DISTILLED,
    PAYLOAD_MODEL,
    PAYLOAD_SOFT_LABELS,
    TransmissionLedger,
)
from .model import (
    MlpModel,
    SgdConfig,
    accuracy,
    backward,
    dataset_loss,
    init_mlp,
    iter_batches,
    local_train,
    sgd_step,
    soft_labels,
)
from .numkernel import SeededRng, rbf_gamma
from .topology import ClusterTopology, build_topology

ALGORITHMS = ("hfldd", "fedavg", "fedprox", "fedseq")

DEFAULT_HIDDEN = (64, 64)


def pass_steps(n_rows: int, batch_size: int, passes: int) -> int:
    """Mini-batch steps in `passes` full passes over an n_rows dataset."""
    if n_rows < 1:
        raise EmptyInputError("cannot schedule passes over an empty dataset")
    per_pass = -(-n_rows // min(batch_size, n_rows))
    return passes * per_pass


@dataclass
class RunConfig:
    """Knobs shared by every algorithm; prox and sequence extras are ignored
    by the algorithms that do not use them.

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
    algorithm: str
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
        if self.learning_rate <= 0:
            raise DomainError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1 or self.pretrain_batch < 1:
            raise DomainError("batch sizes must be >= 1")
        if self.algorithm not in ALGORITHMS:
            raise DomainError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.prox_mu < 0:
            raise DomainError(f"prox_mu must be nonnegative, got {self.prox_mu}")


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
    sizes = models[0].layer_sizes()
    for i, m in enumerate(models[1:], start=1):
        if m.layer_sizes() != sizes:
            raise ShapeError(f"model {i} architecture {m.layer_sizes()} != {sizes}")
    if any(w < 0 for w in weights):
        raise DomainError("aggregation weights must be nonnegative")
    total = sum(weights)
    if total <= 0:
        raise DomainError("aggregation weights must sum to a positive value")
    out_w = [np.zeros_like(w) for w in models[0].weights]
    out_b = [np.zeros_like(b) for b in models[0].biases]
    for m, w in zip(models, weights):
        scale = w / total
        for acc_w, mw in zip(out_w, m.weights):
            acc_w += scale * mw
        for acc_b, mb in zip(out_b, m.biases):
            acc_b += scale * mb
    return MlpModel(out_w, out_b)


def assemble_head_dataset(head: ClientState, member_distilled) -> LabeledDataset:
    """Concatenate the head's raw data with every member's distilled set."""
    features = [head.data.features]
    labels = [head.data.labels]
    for i, ds in enumerate(member_distilled):
        if ds.support_x.shape[1] != head.data.dim():
            raise ShapeError(
                f"member {i}: distilled feature dim {ds.support_x.shape[1]} "
                f"!= head dim {head.data.dim()}"
            )
        if ds.support_y.shape[1] != head.data.class_count:
            raise ShapeError(
                f"member {i}: distilled label dim {ds.support_y.shape[1]} "
                f"!= class count {head.data.class_count}"
            )
        features.append(ds.support_x)
        labels.append(ds.support_y)
    return LabeledDataset(
        np.concatenate(features), np.concatenate(labels), head.data.class_count
    )


def _weighted_loss(model: MlpModel, datasets, weights) -> float:
    total = float(sum(weights))
    return sum(w / total * dataset_loss(model, d) for d, w in zip(datasets, weights))


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
    sgd_for = {
        c.client_id: SgdConfig(
            cfg.learning_rate,
            cfg.batch_size,
            pass_steps(c.data.n_rows(), cfg.batch_size, cfg.local_steps),
        )
        for c in clients
    }
    weights = [c.data.n_rows() for c in clients]
    datasets = [c.data for c in clients]
    out = []
    for t in range(1, cfg.rounds + 1):
        if t > 1:
            for c in clients:
                ledger.record(t, "server", f"client-{c.client_id}", PAYLOAD_MODEL, bits)
        local_models = []
        for c in clients:
            rng = SeededRng(cfg.seed, streams.train(t, c.client_id))
            sgd = sgd_for[c.client_id]
            if prox_mu > 0:
                trained = _prox_local_train(model, c.data, sgd, rng, prox_mu, model)
            else:
                trained = local_train(model, c.data, sgd, rng)
            local_models.append(trained)
            ledger.record(t, f"client-{c.client_id}", "server", PAYLOAD_MODEL, bits)
        model = aggregate(local_models, weights)
        out.append(
            RoundMetrics(
                round_index=t,
                accuracy=accuracy(model, test),
                loss=_weighted_loss(model, datasets, weights),
                cumulative_bits=ledger.total_bits(),
            )
        )
    return out, model


def _prox_local_train(
    model: MlpModel, d, sgd: SgdConfig, rng: SeededRng, mu: float, anchor: MlpModel
) -> MlpModel:
    """local_train with the gradient pulled toward the round's global model."""
    if d.n_rows() == 0:
        raise EmptyInputError("cannot train on an empty dataset")
    gen = rng.generator()
    batches = iter_batches(d.n_rows(), sgd.batch_size, gen)
    out = model
    for _ in range(sgd.steps):
        idx = next(batches)
        g = backward(out, d.features[idx], d.labels[idx])
        for gw, w, aw in zip(g.weights, out.weights, anchor.weights):
            gw += mu * (w - aw)
        for gb, b, ab in zip(g.biases, out.biases, anchor.biases):
            gb += mu * (b - ab)
        out = sgd_step(out, g, sgd.learning_rate)
    return out


def run_fedavg(clients, test, cfg: RunConfig, bits_per_param: int = 32) -> RunResult:
    """Parallel training over all clients with sample-count weighting."""
    ledger = TransmissionLedger()
    metrics, model = _parallel_rounds(list(clients), test, cfg, ledger, bits_per_param)
    return RunResult(metrics, ledger, model)


def run_fedprox(clients, test, cfg: RunConfig, bits_per_param: int = 32) -> RunResult:
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
    bits_per_param: int = 32,
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
    sgd_for = {
        c.client_id: SgdConfig(
            cfg.learning_rate,
            cfg.batch_size,
            pass_steps(c.data.n_rows(), cfg.batch_size, cfg.local_steps),
        )
        for c in clients
    }
    all_datasets = [c.data for c in clients]
    all_weights = [c.data.n_rows() for c in clients]
    out = []
    for t in range(1, cfg.rounds + 1):
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
                m = local_train(
                    m, c.data, sgd_for[c.client_id], SeededRng(cfg.seed, streams.train(t, c.client_id))
                )
            ledger.record(t, holder, "server", PAYLOAD_MODEL, bits)
            cluster_models.append(m)
            cluster_weights.append(sum(c.data.n_rows() for c in group))
        model = aggregate(cluster_models, cluster_weights)
        out.append(
            RoundMetrics(
                round_index=t,
                accuracy=accuracy(model, test),
                loss=_weighted_loss(model, all_datasets, all_weights),
                cumulative_bits=ledger.total_bits(),
            )
        )
    return RunResult(out, ledger, model)


def run_hfldd(
    clients,
    probe,
    test,
    cfg: RunConfig,
    kip: KipConfig,
    k: int,
    bits_per_param: int = 32,
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
    """
    clients = list(clients)
    dim, n_c = _check_clients(clients)
    if len(clients) < 2:
        raise DomainError("the pipeline needs at least 2 clients")
    if probe.dim() != dim or probe.class_count != n_c:
        raise ShapeError("probe dimensions do not match client data")
    if bits_per_sample is None:
        bits_per_sample = dim * 64
    ledger = TransmissionLedger()
    model0 = initial_model(cfg, dim, n_c)
    bits = _model_bits(model0, bits_per_param)
    by_id = {c.client_id: c for c in clients}

    # Stage 1: label knowledge collection.
    try:
        soft = []
        soft_bits = probe.n_rows() * n_c * bits_per_param
        for c in clients:
            pre_sgd = SgdConfig(
                cfg.learning_rate,
                cfg.pretrain_batch,
                pass_steps(c.data.n_rows(), cfg.pretrain_batch, cfg.pretrain_steps),
            )
            pre = local_train(model0, c.data, pre_sgd, SeededRng(cfg.seed, streams.PRETRAIN + c.client_id))
            soft.append(soft_labels(pre, probe))
            ledger.record(0, f"client-{c.client_id}", "server", PAYLOAD_SOFT_LABELS, soft_bits)
    except Exception as e:
        raise StageError("label-collection", e) from e

    # Stage 2: clustering on the server. Cluster entries are positions in the
    # client list; translate to ids before anything leaves this block.
    try:
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
    except Exception as e:
        raise StageError("clustering", e) from e

    # Stage 3: members distill, heads assemble hybrid datasets.
    try:
        head_states = []
        head_data = {}
        distilled_sizes = []
        for cluster, head_id in zip(topo.heterogeneous, topo.heads):
            member_sets = []
            for member_id in cluster:
                if member_id == head_id:
                    continue
                member = by_id[member_id]
                gamma = rbf_gamma(member.data.features)
                ds = distill(member.data, kip, gamma, SeededRng(cfg.seed, streams.DISTILL + member_id))
                member_sets.append(ds)
                distilled_sizes.append(ds.n_rows())
                ledger.record(
                    0,
                    f"client-{member_id}",
                    f"client-{head_id}",
                    PAYLOAD_DISTILLED,
                    ds.n_rows() * bits_per_sample,
                )
            hybrid = assemble_head_dataset(by_id[head_id], member_sets)
            head_states.append(ClientState(head_id, hybrid))
            head_data[head_id] = hybrid
    except Exception as e:
        raise StageError("distillation", e) from e

    # Stage 4: head-only training, identical in structure to run_fedavg over
    # the head clients (and over the same rng streams).
    try:
        metrics, model = _parallel_rounds(head_states, test, cfg, ledger, bits_per_param)
    except Exception as e:
        raise StageError("training", e) from e
    return RunResult(
        metrics,
        ledger,
        model,
        topology=topo,
        head_data=head_data,
        distilled_sizes=tuple(distilled_sizes),
    )
