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
from dataclasses import dataclass

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
from .numkernel import BLAS_THREADS, QUIET, SeededRng, _row_basis, check_count, check_real, rbf_gamma
from .topology import ClusterTopology, build_topology

# bench/tracer.py wraps `backward`, `sgd_step` and `_prox_local_train` in this
# namespace by name. Nothing here calls them; they are plain bindings of the
# model's functions, so `model.local_train` stays the one training loop.
_prox_local_train = local_train

ALGORITHMS = ("hfldd", "fedavg", "fedprox", "fedseq")

DEFAULT_HIDDEN = (64, 64)


def pass_steps(n_rows: int, batch_size: int, passes: int) -> int:
    """Mini-batch steps in `passes` full passes over an n_rows dataset."""
    if check_count("n_rows", n_rows) < 1:
        raise EmptyInputError("cannot schedule passes over an empty dataset")
    check_count("batch_size", batch_size, 1)
    check_count("passes", passes)
    per_pass = -(-n_rows // min(batch_size, n_rows))
    return passes * per_pass


def _row_span_pays(n: int, dim: int, hidden: int, calls: int, passes: int) -> bool:
    """Whether `calls` trainings of `passes` passes each over n rows of dim
    features do fewer first-layer multiply-adds in the rows' span.

    Counted per data row, with rank <= n: a pass multiplies every row into
    the first layer and back, 2 * dim * hidden, and the span cuts dim to at
    most n. The basis costs the Gram product, n * dim, and its pivoted
    Cholesky, n^2 / 3, once; projecting the first layer in and lifting its
    update out cost 2 * dim * hidden on every call.
    """
    saved = calls * passes * 2 * (dim - n) * hidden
    return saved > n * dim + n * n / 3 + calls * 2 * dim * hidden


def _local_trainer(cfg: RunConfig, d: LabeledDataset, hidden: int, calls: int, batch: int, passes: int):
    """train(m, rng, mu) for client data d: `passes` passes of `batch`-row SGD
    at the run's learning rate, scheduled once here, to be called `calls`
    times with a first layer `hidden` wide. It is the row-span trainer where
    `_row_span_pays`, else `local_train` on d, bit for bit."""
    sgd = SgdConfig(cfg.learning_rate, batch, pass_steps(d.n_rows(), batch, passes))
    if _row_span_pays(d.n_rows(), d.dim(), hidden, calls, passes):
        return _row_span_trainer(d, sgd)
    return lambda m, rng, mu=0.0: local_train(m, d, sgd, rng, mu)


def _row_span_trainer(d: LabeledDataset, sgd: SgdConfig):
    """train(m, rng, mu): `local_train` on d with schedule sgd, run in the
    row span of d.

    Every first-layer update x^T delta lies in the row span of d, and so
    does FedProx's pull mu * (W1 - W0) while W1 - W0 does. With m the basis
    of that span (`numkernel._row_basis`), built once here, the first layer
    W1 becomes B0 = m W1, rank x hidden, and the rows become their rank
    coordinates. `local_train` runs unchanged on both, with the same labels,
    batches and steps, and its pull is mu * (B - B0). The result is lifted
    back as W1 + m^T (B - B0), which equals training on d up to rounding.
    """
    basis = _row_basis(d.features)
    coords = LabeledDataset(basis.x, d.labels, d.class_count)

    def train(m: MlpModel, rng: SeededRng, mu: float = 0.0) -> MlpModel:
        cut = m.sizes[0] * m.sizes[1]
        w1 = m.params[:cut].reshape(m.sizes[0], m.sizes[1])
        b0 = basis.project(w1)
        start = MlpModel((basis.rank, *m.sizes[1:]), np.concatenate((b0.ravel(), m.params[cut:])))
        out = local_train(start, coords, sgd, rng, mu)
        step = out.params[: b0.size].reshape(b0.shape) - b0
        w1 = w1 + basis.lift(step)
        return MlpModel(m.sizes, np.concatenate((w1.ravel(), out.params[b0.size :])))

    return train


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
        check_count("rounds", self.rounds, 1, streams.MAX_ID)
        check_count("local_steps", self.local_steps, 1)
        check_count("pretrain_steps", self.pretrain_steps)
        check_real("learning_rate", self.learning_rate, above=0)
        check_count("batch_size", self.batch_size, 1)
        check_count("pretrain_batch", self.pretrain_batch, 1)
        for h in self.hidden_sizes:
            check_count("hidden_sizes", h, 1)
        check_real("prox_mu", self.prox_mu, 0)
        check_count("seed", self.seed, 0, 1 << 64)


@dataclass
class ClientState:
    client_id: int
    data: LabeledDataset

    def __post_init__(self):
        check_count("client_id", self.client_id, 0, streams.MAX_ID)


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
    bits_per_sample: int = 0  # the price run_hfldd charged per distilled row


def initial_model(cfg: RunConfig, dim: int, class_count: int) -> MlpModel:
    """The shared starting model every algorithm derives from the run seed."""
    return init_mlp((dim, *cfg.hidden_sizes, class_count), SeededRng(cfg.seed, streams.INIT))


def aggregate(models, weights) -> MlpModel:
    """Parameter-wise weighted average; weights are normalized to sum 1."""
    models = list(models)
    weights = [check_real("weights", w, 0) for w in weights]
    if not models:
        raise EmptyInputError("no models to aggregate")
    if len(models) != len(weights):
        raise DomainError(f"{len(models)} models but {len(weights)} weights")
    sizes = models[0].sizes
    for i, m in enumerate(models[1:], start=1):
        if m.sizes != sizes:
            raise ShapeError(f"model {i} architecture {m.sizes} != {sizes}")
    total = sum(weights)
    if not 0 < total < math.inf:
        raise DomainError("aggregation weights must sum to a finite positive value")
    out = np.zeros_like(models[0].params)
    for m, w in zip(models, weights):
        out += (w / total) * m.params
    return MlpModel(sizes, out)


def _round_metrics(t: int, model: MlpModel, test, clients, ledger) -> RoundMetrics:
    """Round t's row: test accuracy, the training loss over all clients
    weighted by their row counts, and the bits logged so far. Finite
    parameters whose outputs overflow give NaN probabilities, which the
    loss rejects: that round diverged too."""
    acc = accuracy(model, test)
    total = float(sum(c.data.n_rows() for c in clients))
    try:
        loss = sum(c.data.n_rows() / total * dataset_loss(model, c.data) for c in clients)
    except DomainError as e:
        raise DomainError("the global model's outputs are not finite: training diverged") from e
    return RoundMetrics(t, acc, loss, ledger.total_bits())


def _check_finite(model: MlpModel, what: str) -> None:
    if not np.isfinite(model.params).all():
        raise DomainError(f"{what} has non-finite parameters: training diverged")


@contextmanager
def _stage(name: str, round_index: int | None = None):
    """Run one stage, or one training round, on one BLAS thread with numpy's
    QUIET warnings off; any failure inside is a StageError naming it. Stages
    do not nest. The caller's BLAS thread counts come back after."""
    saved = [(put, get()) for get, put in BLAS_THREADS]
    for put, _ in saved:
        put(1)
    with np.errstate(**QUIET):
        try:
            yield
        except Exception as e:
            raise StageError(name, e, round_index) from e
        finally:
            for put, n in saved:
                put(n)


def _model_bits(model: MlpModel, bits_per_param: int) -> int:
    return model.parameter_count() * bits_per_param


def _check_clients(clients, test, bits_per_param):
    """The entry checks of every run: (the clients as a list, their shared
    width, their shared class count). Client ids are unique, every client
    and the test set hold rows of that width and class count, and the bit
    price is a count >= 1."""
    clients = list(clients)
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
    if test.dim() != dim or test.class_count != n_c:
        raise ShapeError("test dimensions do not match client data")
    check_count("bits_per_param", bits_per_param, 1)
    return clients, dim, n_c


def _rounds(
    clients,
    test,
    cfg: RunConfig,
    ledger: TransmissionLedger,
    bits_per_param: int,
    groups,
    prox_mu: float = 0.0,
) -> tuple[list[RoundMetrics], MlpModel]:
    """The one round loop: T rounds in which groups of clients train the
    global model and the server averages what the groups upload.

    groups(t) lists round t's (holder, members). The holder fetches the
    global model from round 2 on (the first broadcast is free: the starting
    model is reproducible from the seed). The model is handed to each
    member that is not the holder, and each member trains it in turn; the
    last one to hold it uploads. Uploads are averaged weighted by their
    groups' rows. A group per client, held by that client, is FedAvg:
    N * (2T - 1) transmissions. With prox_mu > 0 every local gradient gains
    a pull toward the model its trainer started from.
    """
    with _stage("training"):
        model = initial_model(cfg, clients[0].data.dim(), clients[0].data.class_count)
        trainers = {
            c.client_id: _local_trainer(
                cfg, c.data, model.sizes[1], cfg.rounds, cfg.batch_size, cfg.local_steps
            )
            for c in clients
        }
    bits = _model_bits(model, bits_per_param)
    out = []
    for t in range(1, cfg.rounds + 1):
        with _stage("training", t):
            model = _round(t, model, groups(t), trainers, cfg.seed, ledger, bits, prox_mu)
            _check_finite(model, "the global model")
            out.append(_round_metrics(t, model, test, clients, ledger))
    return out, model


def _round(
    t: int, model: MlpModel, groups, trainers, seed: int, ledger, bits: int, prox_mu: float
) -> MlpModel:
    """Round t's training, ending in the one `aggregate` over the groups'
    uploads: the new global model. Only that model outlives the call, so
    the uploads, every local model and the previous global model are freed
    before the round is checked and evaluated."""
    uploads, weights = [], []
    for holder, members in groups:
        if t > 1:
            ledger.record(t, "server", holder, PAYLOAD_MODEL, bits)
        m = model
        for c in members:
            name = f"client-{c.client_id}"
            if holder != name:
                ledger.record(t, holder, name, PAYLOAD_MODEL, bits)
                holder = name
            m = trainers[c.client_id](m, SeededRng(seed, streams.train(t, c.client_id)), prox_mu)
        ledger.record(t, holder, "server", PAYLOAD_MODEL, bits)
        uploads.append(m)
        weights.append(sum(c.data.n_rows() for c in members))
    return aggregate(uploads, weights)


def _solo(clients):
    """Every client as its own group, every round: FedAvg's groups."""
    groups = [(f"client-{c.client_id}", [c]) for c in clients]
    return lambda t: groups


def _run_parallel(clients, test, cfg: RunConfig, bits_per_param: int, prox_mu: float) -> RunResult:
    """FedAvg, or FedProx with prox_mu > 0: every client its own group."""
    clients, _, _ = _check_clients(clients, test, bits_per_param)
    ledger = TransmissionLedger()
    metrics, model = _rounds(clients, test, cfg, ledger, bits_per_param, _solo(clients), prox_mu)
    return RunResult(metrics, ledger, model)


def run_fedavg(clients, test, cfg: RunConfig, bits_per_param: int = DEFAULT_BITS_PER_PARAM) -> RunResult:
    """Parallel training over all clients with sample-count weighting."""
    return _run_parallel(clients, test, cfg, bits_per_param, 0.0)


def run_fedprox(clients, test, cfg: RunConfig, bits_per_param: int = DEFAULT_BITS_PER_PARAM) -> RunResult:
    """run_fedavg with a proximal pull toward the global model in each step.

    With prox_mu == 0 the proximal term is skipped entirely, so the run is
    bit-identical to run_fedavg.
    """
    return _run_parallel(clients, test, cfg, bits_per_param, cfg.prox_mu)


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
    clients, _, _ = _check_clients(clients, test, bits_per_param)
    n = len(clients)
    check_count("cluster_count", cluster_count, 1)
    check_count("cluster_size", cluster_size, 1)
    if cluster_count * cluster_size != n:
        raise CapacityError(
            f"cluster_count * cluster_size must equal client count "
            f"({cluster_count} * {cluster_size} != {n})"
        )

    def chains(t):
        perm = SeededRng(cfg.seed, streams.SEQ_PARTITION | t).generator().permutation(n)
        return [
            (f"seq-{o}", [clients[int(p)] for p in perm[o * cluster_size : (o + 1) * cluster_size]])
            for o in range(cluster_count)
        ]

    ledger = TransmissionLedger()
    metrics, model = _rounds(clients, test, cfg, ledger, bits_per_param, chains)
    return RunResult(metrics, ledger, model)


def _label_collection(clients, probe, cfg: RunConfig, ledger, bits_per_param: int) -> list:
    """Stage 1: every client trains the shared starting model briefly on its
    own rows and uploads its soft labels for the probe set, in client order."""
    with _stage("label-collection"):
        model0 = initial_model(cfg, probe.dim(), probe.class_count)
        soft = []
        soft_bits = probe.n_rows() * probe.class_count * bits_per_param
        for c in clients:
            train = _local_trainer(
                cfg, c.data, model0.sizes[1], 1, cfg.pretrain_batch, cfg.pretrain_steps
            )
            pre = train(model0, SeededRng(cfg.seed, streams.PRETRAIN + c.client_id))
            _check_finite(pre, f"client {c.client_id}'s pretrained model")
            soft.append(soft_labels(pre, probe))
            ledger.record(0, f"client-{c.client_id}", "server", PAYLOAD_SOFT_LABELS, soft_bits)
    return soft


def _clustering(clients, soft, k: int, seed: int) -> ClusterTopology:
    """Stage 2: the server's topology, by client id. build_topology's
    clusters hold positions in the client list; they are translated here."""
    with _stage("clustering"):
        by_pos = build_topology(
            soft,
            k,
            SeededRng(seed, streams.KMEANS),
            SeededRng(seed, streams.SAMPLING),
            SeededRng(seed, streams.HEADS),
        )
        ids = [c.client_id for c in clients]
        return ClusterTopology(
            tuple(tuple(ids[p] for p in cl) for cl in by_pos.homogeneous),
            tuple(tuple(ids[p] for p in cl) for cl in by_pos.heterogeneous),
            tuple(ids[p] for p in by_pos.heads),
        )


def _hybrid_datasets(
    clients, topo: ClusterTopology, kip: KipConfig, seed: int, ledger, bits_per_sample: int
) -> list[ClientState]:
    """Stage 3: a ClientState per head holding its hybrid dataset.

    A head's dataset is one block allocated up front: its own rows, then one
    slot of s = kip.support_size rows for each other member of its cluster,
    in cluster order. Each member's support is copied into its slot as soon
    as `distill` returns and is not kept, so a head's rows are held once.
    Each member ships its slot, s * bits_per_sample bits, so a support of
    any other shape is a ShapeError (numpy would spread a one-row support
    over the whole slot).
    """
    by_id = {c.client_id: c.data for c in clients}
    s = kip.support_size
    bits = s * bits_per_sample
    heads = []
    with _stage("distillation"):
        for cluster, head_id in zip(topo.heterogeneous, topo.heads):
            own = by_id[head_id]
            members = [m for m in cluster if m != head_id]
            start = own.n_rows()
            features = np.empty((start + len(members) * s, own.dim()))
            labels = np.empty((features.shape[0], own.class_count))
            features[:start], labels[:start] = own.features, own.labels
            for j, member_id in enumerate(members):
                d = by_id[member_id]
                rng = SeededRng(seed, streams.DISTILL + member_id)
                support = distill(d, kip, rbf_gamma(d.features), rng).data
                if support.features.shape != (s, own.dim()):
                    raise ShapeError(
                        f"client {member_id}'s support {support.features.shape} "
                        f"does not fill its {(s, own.dim())} slot"
                    )
                at = start + j * s
                features[at : at + s], labels[at : at + s] = support.features, support.labels
                del support  # not held through the next member's distill
                ledger.record(0, f"client-{member_id}", f"client-{head_id}", PAYLOAD_DISTILLED, bits)
            heads.append(ClientState(head_id, LabeledDataset(features, labels, own.class_count)))
    return heads


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
    Stages 1-3 run in helpers, so what each leaves behind is only what the
    next stage reads: by stage 4 the run holds the heads' datasets.
    """
    clients, dim, n_c = _check_clients(clients, test, bits_per_param)
    if len(clients) < 2:
        raise DomainError("the pipeline needs at least 2 clients")
    if probe.dim() != dim or probe.class_count != n_c:
        raise ShapeError("probe dimensions do not match client data")
    if bits_per_sample is None:
        bits_per_sample = dim * DEFAULT_BITS_PER_FEATURE
    check_count("bits_per_sample", bits_per_sample, 1)
    ledger = TransmissionLedger()
    # stage 1's soft labels are read by stage 2 only, so no name holds them
    topo = _clustering(
        clients, _label_collection(clients, probe, cfg, ledger, bits_per_param), k, cfg.seed
    )
    heads = _hybrid_datasets(clients, topo, kip, cfg.seed, ledger, bits_per_sample)

    # Stage 4: head-only training, identical to run_fedavg over the head
    # clients (and over the same rng streams); _rounds runs its own stages.
    metrics, model = _rounds(heads, test, cfg, ledger, bits_per_param, _solo(heads))
    return RunResult(metrics, ledger, model, topology=topo, bits_per_sample=bits_per_sample)
