"""Closed-form communication costs, a convergence-bound calculator, leading
order complexity estimates, and the transmission ledger that audits the cost
formulas against simulated traffic.

All cost arithmetic is exact integer bit counting so that a simulation ledger
can be compared to its formula with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import DomainError
from .numkernel import check_count, check_real

PAYLOAD_MODEL = "model"
PAYLOAD_SOFT_LABELS = "soft-labels"
PAYLOAD_DISTILLED = "distilled-data"

_PAYLOAD_KINDS = (PAYLOAD_MODEL, PAYLOAD_SOFT_LABELS, PAYLOAD_DISTILLED)

DEFAULT_BITS_PER_PARAM = 32
# A distilled row ships each of its features as one float64.
DEFAULT_BITS_PER_FEATURE = 64


@dataclass(frozen=True)
class TransmissionEvent:
    round_index: int
    sender: str
    receiver: str
    kind: str
    bits: int


@dataclass
class TransmissionLedger:
    """Append-only log of every simulated transmission."""

    events: list[TransmissionEvent] = field(default_factory=list)

    def record(self, round_index: int, sender: str, receiver: str, kind: str, bits: int):
        if kind not in _PAYLOAD_KINDS:
            raise DomainError(f"unknown payload kind {kind!r}")
        round_index = check_count("round_index", round_index)
        bits = check_count("transmission bits", bits, 1)
        self.events.append(TransmissionEvent(round_index, sender, receiver, kind, bits))

    def total_bits(self) -> int:
        return sum(e.bits for e in self.events)

    def bits_by_kind(self) -> dict[str, int]:
        out = {k: 0 for k in _PAYLOAD_KINDS}
        for e in self.events:
            out[e.kind] += e.bits
        return out

    def bits_by_round(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for e in self.events:
            out[e.round_index] = out.get(e.round_index, 0) + e.bits
        return out


@dataclass(frozen=True)
class CostModel:
    """Every count the closed-form cost and complexity formulas consume.

    The counts describe a topology a run can produce: at most n_clients
    heads and homogeneous clusters, one distilled set size for each of the
    n_clients - n_heads members when there are heads, none when there are
    not, and FedSeq chains that hold every client once (both shape counts 0
    for the other algorithms).
    """

    n_clients: int = 0
    n_heads: int = 0
    n_homogeneous: int = 0
    rounds: int = 0
    seq_clusters: int = 0
    seq_cluster_size: int = 0
    model_params: int = 0
    probe_size: int = 0
    class_count: int = 0
    bits_per_param: int = DEFAULT_BITS_PER_PARAM
    bits_per_sample: int = 0
    distilled_sizes: tuple[int, ...] = ()

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            for v in value if f.name == "distilled_sizes" else (value,):
                check_count(f.name, v, 1 if f.name == "bits_per_param" else 0)
        for name in ("n_heads", "n_homogeneous"):
            count = getattr(self, name)
            if count > self.n_clients:
                raise DomainError(f"{name} must be <= n_clients ({self.n_clients}), got {count}")
        shape = (self.seq_clusters, self.seq_cluster_size)
        if any(shape) and not (all(shape) and shape[0] * shape[1] == self.n_clients):
            raise DomainError(
                f"seq_clusters * seq_cluster_size must equal n_clients ({self.n_clients}) "
                f"or both be 0, got {shape[0]} * {shape[1]}"
            )
        members = self.n_clients - self.n_heads if self.n_heads else 0
        if len(self.distilled_sizes) != members:
            raise DomainError(
                f"distilled_sizes must hold {members} sizes, one per member "
                f"(none without heads), got {len(self.distilled_sizes)}"
            )


def _updown_rounds(rounds: int) -> int:
    # Uploads every round plus downloads from round 2 on; round 0 means no traffic.
    return max(2 * rounds - 1, 0)


def cost_fedavg(c: CostModel) -> int:
    """Total bits for parallel training: N * (2T - 1) * |model| * B1."""
    return c.n_clients * _updown_rounds(c.rounds) * c.model_params * c.bits_per_param


def cost_hfldd(c: CostModel) -> int:
    """Soft-label uploads + distilled-data shipping + head-only training traffic."""
    soft = c.n_clients * c.probe_size * c.class_count * c.bits_per_param
    distilled = sum(c.distilled_sizes) * c.bits_per_sample
    training = c.n_heads * c.model_params * _updown_rounds(c.rounds) * c.bits_per_param
    return soft + distilled + training


def cost_fedseq(c: CostModel) -> int:
    """Sequential-cluster training: O * |model| * B1 * ((2T - 1) + T * J)."""
    per_cluster = _updown_rounds(c.rounds) + c.rounds * c.seq_cluster_size
    return c.seq_clusters * c.model_params * c.bits_per_param * per_cluster


_COST_BY_ALGORITHM = {
    "fedavg": cost_fedavg,
    "fedprox": cost_fedavg,  # identical traffic pattern, extra term is local only
    "hfldd": cost_hfldd,
    "fedseq": cost_fedseq,
}


@dataclass(frozen=True)
class ConvergenceParams:
    """Constants of the suboptimality bound for cluster-head training."""

    smoothness: float
    strong_convexity: float
    noise_bounds: tuple[float, ...]
    gradient_bound: float
    cluster_divergence: float
    distill_divergence: float
    local_steps: int
    weights: tuple[float, ...]
    init_gap: float

    def __post_init__(self):
        check_real("strong_convexity", self.strong_convexity, above=0)
        check_real("smoothness", self.smoothness)
        if self.smoothness < self.strong_convexity:
            raise DomainError("smoothness must be at least the strong convexity constant")
        check_count("local_steps", self.local_steps, 1)
        if len(self.noise_bounds) != len(self.weights):
            raise DomainError("need one noise bound per weight")
        for name in ("gradient_bound", "cluster_divergence", "distill_divergence", "init_gap"):
            check_real(name, getattr(self, name), 0)
        for w, s in zip(self.weights, self.noise_bounds):
            check_real("weights", w, 0)
            check_real("noise_bounds", s, 0)
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise DomainError("weights must sum to 1")


def convergence_bound(p: ConvergenceParams, t: int) -> float:
    """O(1/t) suboptimality bound at round t under a diminishing step size.

    tau = max(8L/mu, E2) - 1;
    Q = sum(w_h^2 sigma_h^2) + 6L(cluster + distill divergence) + 8(E2-1)^2 G^2;
    bound = (L / (t + tau)) * (2Q / mu^2 + (tau + 1)/2 * init_gap).
    """
    check_count("t", t)
    big_l, mu = p.smoothness, p.strong_convexity
    # L >= mu makes tau >= 7, so t + tau is positive
    tau = max(8.0 * big_l / mu, float(p.local_steps)) - 1.0
    q = (
        sum(w * w * s * s for w, s in zip(p.weights, p.noise_bounds))
        + 6.0 * big_l * (p.cluster_divergence + p.distill_divergence)
        + 8.0 * (p.local_steps - 1.0) ** 2 * p.gradient_bound**2
    )
    return (big_l / (t + tau)) * (2.0 * q / mu**2 + (tau + 1.0) / 2.0 * p.init_gap)


def complexity_estimates(
    c: CostModel,
    kmeans_iters: int,
    pretrain_steps: int,
    pretrain_batch: int,
    local_steps: int,
    batch_size: int,
    kip_iters: int,
) -> dict[str, int]:
    """Leading-order operation counts for each role in the pipeline.

    The member distillation entry uses the largest distilled-set size, the
    dominant cubic solve cost among members.
    """
    for name, v in (
        ("kmeans_iters", kmeans_iters),
        ("pretrain_steps", pretrain_steps),
        ("pretrain_batch", pretrain_batch),
        ("local_steps", local_steps),
        ("batch_size", batch_size),
        ("kip_iters", kip_iters),
    ):
        check_count(name, v)
    largest = max(c.distilled_sizes) if c.distilled_sizes else 0
    return {
        "server_similarity": c.n_clients**2 * c.probe_size * c.class_count,
        "server_kmeans": kmeans_iters * c.n_homogeneous * c.n_clients**2,
        "server_aggregation": c.rounds * c.n_heads * c.model_params,
        "member_pretrain": pretrain_steps * pretrain_batch * c.model_params
        + c.probe_size * c.model_params,
        "member_distill": kip_iters * largest**3,
        "head_training": c.rounds * local_steps * batch_size * c.model_params,
    }


@dataclass
class CostReport:
    """Ledger-vs-formula comparison for one completed run."""

    algorithm: str
    closed_form_bits: int
    ledger_bits: int
    by_kind: dict[str, int]
    megabytes_decimal: float
    discrepancy_bits: int
    relative_discrepancy: float


def bits_to_megabytes(bits: int) -> float:
    """Decimal megabytes (1 MB = 8e6 bits)."""
    return bits / 8e6


def ledger_audit(ledger: TransmissionLedger, c: CostModel, algorithm: str) -> CostReport:
    """Compare a run's logged traffic to the matching closed form."""
    if algorithm not in _COST_BY_ALGORITHM:
        raise DomainError(f"unknown algorithm {algorithm!r}")
    closed = _COST_BY_ALGORITHM[algorithm](c)
    total = ledger.total_bits()
    discrepancy = total - closed
    relative = abs(discrepancy) / closed if closed else (0.0 if total == 0 else float("inf"))
    return CostReport(
        algorithm=algorithm,
        closed_form_bits=int(closed),
        ledger_bits=int(total),
        by_kind=ledger.bits_by_kind(),
        megabytes_decimal=bits_to_megabytes(total),
        discrepancy_bits=int(discrepancy),
        relative_discrepancy=float(relative),
    )
