"""Client clustering from soft-label similarity.

Pipeline: pairwise KL divergence between per-client soft-label matrices,
K-Means over the rows of the resulting similarity matrix (homogeneous
clusters of like clients), then a sampling pass that builds heterogeneous
clusters by drawing one client from every non-empty homogeneous cluster,
and finally a uniform head election per heterogeneous cluster.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, EmptyInputError, ShapeError
from .numkernel import SeededRng, as_matrix, check_count

DEFAULT_KMEANS_ITERS = 100


def kl_divergence(si, sj) -> float:
    """Row-averaged KL divergence sum((si/n) * ln(si/sj)) over all entries.

    Inputs are row-stochastic matrices whose entries were clamped away from
    zero upstream. The result is clamped at zero to absorb the square-sum
    slack that clamping introduces.
    """
    si = as_matrix(si, "si")
    sj = as_matrix(sj, "sj")
    if si.shape != sj.shape:
        raise ShapeError(f"shapes differ: {si.shape} vs {sj.shape}")
    t = si / sj
    np.log(t, out=t)
    t *= si
    return max(float(t.sum() / si.shape[0]), 0.0)


def build_similarity(soft_label_list) -> np.ndarray:
    """Full pairwise divergence matrix over per-client soft labels.

    Entry (i, j) is kl_divergence(S_i, S_j), so the diagonal is zero and
    every entry nonnegative; the matrix is intentionally not symmetrized.
    """
    mats = [as_matrix(s, f"soft labels of client {i}") for i, s in enumerate(soft_label_list)]
    n = len(mats)
    if n < 2:
        raise DomainError(f"need at least 2 clients, got {n}")
    for j in range(1, n):
        if mats[j].shape != mats[0].shape:
            raise ShapeError(
                f"client 0 vs client {j}: soft label shapes differ "
                f"({mats[0].shape} vs {mats[j].shape})"
            )
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                m[i, j] = kl_divergence(mats[i], mats[j])
    return m


def _sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distance of every point to every center, shape (n, k).

    One center at a time, so the largest temporary is (n, d), not the
    (n, k, d) of the broadcast form, whose bits these are.
    """
    out = np.empty((points.shape[0], centers.shape[0]))
    for c, center in enumerate(centers):
        t = points - center
        t *= t
        out[:, c] = t.sum(axis=1)
    return out


def _lloyd(points: np.ndarray, k: int, gen: np.random.Generator):
    """K-Means with k-means++ seeding and at most DEFAULT_KMEANS_ITERS Lloyd
    steps; returns (labels, objective trace).

    Empty clusters are repaired by handing them the point farthest from its
    assigned centroid (the donor cluster must keep at least one point); the
    repaired cluster's centroid becomes that point, so the recorded objective
    stays non-increasing.
    """
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[gen.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            pick = int(gen.integers(n))
        else:
            pick = int(gen.choice(n, p=d2 / total))
        centers[c] = points[pick]
        d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))

    labels = np.full(n, -1, dtype=np.intp)
    trace = []
    for _ in range(DEFAULT_KMEANS_ITERS):
        dist2 = _sq_distances(points, centers)
        new_labels = np.argmin(dist2, axis=1)
        point_d2 = dist2[np.arange(n), new_labels]
        for c in range(k):
            if np.any(new_labels == c):
                continue
            donors = np.flatnonzero(np.bincount(new_labels, minlength=k) > 1)
            candidates = np.flatnonzero(np.isin(new_labels, donors))
            far = candidates[np.argmax(point_d2[candidates])]
            new_labels[far] = c
            centers[c] = points[far]
            point_d2[far] = 0.0
        trace.append(float(point_d2.sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            members = points[labels == c]
            if members.shape[0]:
                centers[c] = members.mean(axis=0)
    return labels, trace


def kmeans_rows(m, k: int, rng: SeededRng) -> list[tuple[int, ...]]:
    """Cluster clients by treating each row of the finite square similarity
    matrix m as a point.

    Returns k non-empty clusters of client indices, each sorted ascending,
    ordered by centroid index; deterministic for a fixed rng.
    """
    m = as_matrix(m, "similarity matrix")
    n = m.shape[0]
    if m.shape[1] != n:
        raise ShapeError(f"similarity matrix must be square, got {m.shape}")
    check_count("k", k, 2)
    if k > n:
        raise CapacityError(f"k={k} exceeds client count {n}")
    labels, _ = _lloyd(m, k, rng.generator())
    return [tuple(int(i) for i in np.flatnonzero(labels == c)) for c in range(k)]


def cluster_sampling(homogeneous, rng: SeededRng) -> list[tuple[int, ...]]:
    """Regroup homogeneous clusters into heterogeneous ones.

    Repeatedly removes one seed-chosen client from every non-empty
    homogeneous cluster to form the next heterogeneous cluster, until all
    clusters are drained. The number of output clusters equals the largest
    input cluster size.
    """
    pools = [sorted(check_count("homogeneous", i) for i in cluster) for cluster in homogeneous]
    seen: set[int] = set()
    for pool in pools:
        for client in pool:
            if client in seen:
                raise DomainError(f"client {client} appears in two homogeneous clusters")
            seen.add(client)
    if not seen:
        raise EmptyInputError("all homogeneous clusters are empty")
    gen = rng.generator()
    out = []
    while any(pools):
        cluster = []
        for pool in pools:
            if pool:
                cluster.append(pool.pop(int(gen.integers(len(pool)))))
        out.append(tuple(sorted(cluster)))
    return out


def elect_heads(heterogeneous, rng: SeededRng) -> list[int]:
    """Choose one member uniformly at random from each cluster."""
    gen = rng.generator()
    heads = []
    for idx, cluster in enumerate(heterogeneous):
        members = sorted(check_count("heterogeneous", i) for i in cluster)
        if not members:
            raise EmptyInputError(f"heterogeneous cluster {idx} is empty")
        heads.append(members[int(gen.integers(len(members)))])
    return heads


@dataclass
class ClusterTopology:
    """Homogeneous clusters, heterogeneous clusters, and one head per cluster."""

    homogeneous: tuple[tuple[int, ...], ...]
    heterogeneous: tuple[tuple[int, ...], ...]
    heads: tuple[int, ...]

    def __post_init__(self):
        members = lambda name, c: tuple(sorted(check_count(name, i) for i in c))
        self.homogeneous = tuple(members("homogeneous", c) for c in self.homogeneous)
        self.heterogeneous = tuple(members("heterogeneous", c) for c in self.heterogeneous)
        self.heads = tuple(check_count("heads", h) for h in self.heads)
        self.validate()

    def validate(self) -> None:
        all_clients = [i for c in self.homogeneous for i in c]
        if len(all_clients) != len(set(all_clients)):
            raise DomainError("homogeneous clusters overlap")
        covered = [i for c in self.heterogeneous for i in c]
        if len(covered) != len(set(covered)):
            raise DomainError("heterogeneous clusters overlap")
        if set(covered) != set(all_clients):
            raise DomainError("heterogeneous clusters do not cover all clients exactly")
        for hi, het in enumerate(self.heterogeneous):
            het_set = set(het)
            for ho in self.homogeneous:
                if len(het_set & set(ho)) > 1:
                    raise DomainError(
                        f"heterogeneous cluster {hi} holds two clients from one "
                        "homogeneous cluster"
                    )
        if len(self.heads) != len(self.heterogeneous):
            raise DomainError("need exactly one head per heterogeneous cluster")
        for hi, (head, het) in enumerate(zip(self.heads, self.heterogeneous)):
            if head not in het:
                raise DomainError(f"head {head} is not a member of its cluster {hi}")

    def n_heads(self) -> int:
        return len(self.heads)

    def to_json(self, seed: int | None = None) -> str:
        doc = {
            "homogeneous": [list(c) for c in self.homogeneous],
            "heterogeneous": [list(c) for c in self.heterogeneous],
            "heads": list(self.heads),
        }
        if seed is not None:
            doc["seed"] = check_count("seed", seed, 0, 1 << 64)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def build_topology(
    soft_label_list, k: int, kmeans_rng: SeededRng, sampling_rng: SeededRng, heads_rng: SeededRng
) -> ClusterTopology:
    """Similarity, K-Means, sampling, and head election in one call."""
    sim = build_similarity(soft_label_list)
    homogeneous = kmeans_rows(sim, k, kmeans_rng)
    heterogeneous = cluster_sampling(homogeneous, sampling_rng)
    heads = elect_heads(heterogeneous, heads_rng)
    return ClusterTopology(tuple(homogeneous), tuple(heterogeneous), tuple(heads))
