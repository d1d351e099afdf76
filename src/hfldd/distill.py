"""Dataset distillation with kernel inducing points.

A small synthetic support set is optimized so that kernel ridge regression
fit on it reproduces the labels of the real data. Only the support features
move; support labels stay fixed one-hot and class-balanced. The gradient is
analytic (differentiating through the ridge solve), so no autograd framework
is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import streams
from .datagen import LabeledDataset, one_hot
from .errors import CapacityError, DomainError, EmptyInputError
from .numkernel import SeededRng, as_matrix, rbf_kernel, ridge_solve

LOSS_TRACE_EVERY = 100


@dataclass(frozen=True)
class KipConfig:
    """Distillation schedule: support size, ridge lambda, step size, budget."""

    support_size: int
    ridge_lambda: float
    learning_rate: float
    iterations: int
    target_batch: int
    seed: int

    def __post_init__(self):
        if self.support_size < 1:
            raise DomainError(f"support_size must be >= 1, got {self.support_size}")
        if self.ridge_lambda <= 0:
            raise DomainError(f"ridge_lambda must be positive, got {self.ridge_lambda}")
        if self.learning_rate <= 0:
            raise DomainError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.iterations < 0:
            raise DomainError(f"iterations must be >= 0, got {self.iterations}")
        if self.target_batch < 1:
            raise DomainError(f"target_batch must be >= 1, got {self.target_batch}")


@dataclass
class DistilledSet:
    """Optimized support set plus its final full-data loss and loss trace."""

    support_x: np.ndarray
    support_y: np.ndarray
    final_loss: float
    loss_trace: tuple[float, ...] = ()

    def n_rows(self) -> int:
        return self.support_x.shape[0]


def kip_loss(xs, ys, xt, yt, lam: float, gamma: float) -> float:
    """Half squared Frobenius error of the support-set ridge predictor.

    loss = 0.5 * ||yt - K_ts (K_ss + lam I)^-1 ys||_F^2. `lam` may be zero
    when the support kernel itself is positive definite.
    """
    xs = as_matrix(xs, "xs")
    ys = as_matrix(ys, "ys")
    xt = as_matrix(xt, "xt")
    yt = as_matrix(yt, "yt")
    if xs.shape[1] != xt.shape[1]:
        raise DomainError(f"feature dims differ: support {xs.shape[1]}, target {xt.shape[1]}")
    if ys.shape[1] != yt.shape[1]:
        raise DomainError(f"label dims differ: support {ys.shape[1]}, target {yt.shape[1]}")
    k_ss = rbf_kernel(xs, xs, gamma)
    k_ts = rbf_kernel(xt, xs, gamma)
    alpha = ridge_solve(k_ss, ys, lam)
    resid = yt - k_ts @ alpha
    return 0.5 * float(np.sum(resid * resid))


def kip_gradient(xs, ys, xt, yt, lam: float, gamma: float) -> np.ndarray:
    """Analytic gradient of kip_loss w.r.t. the support features xs.

    Chain rule through both kernel blocks; the ridge solve contributes via
    d(A^-1) = -A^-1 dA A^-1 applied to A = K_ss + lam I.
    """
    xs = as_matrix(xs, "xs")
    ys = as_matrix(ys, "ys")
    xt = as_matrix(xt, "xt")
    yt = as_matrix(yt, "yt")
    if xs.shape[1] != xt.shape[1]:
        raise DomainError(f"feature dims differ: support {xs.shape[1]}, target {xt.shape[1]}")
    if ys.shape[1] != yt.shape[1]:
        raise DomainError(f"label dims differ: support {ys.shape[1]}, target {yt.shape[1]}")
    k_ss = rbf_kernel(xs, xs, gamma)
    k_ts = rbf_kernel(xt, xs, gamma)
    alpha = ridge_solve(k_ss, ys, lam)
    err = k_ts @ alpha - yt

    # Loss sensitivities to the two kernel blocks.
    g_ts = err @ alpha.T
    beta = ridge_solve(k_ss, k_ts.T @ err, lam)
    g_ss = -beta @ alpha.T

    # Kernel sensitivities to xs: dK/dx pulls in 2*gamma*(difference vectors).
    w_ts = g_ts * k_ts
    grad = w_ts.T @ xt - w_ts.sum(axis=0)[:, None] * xs
    w_ss = (g_ss + g_ss.T) * k_ss
    grad += w_ss @ xs - w_ss.sum(axis=1)[:, None] * xs
    return 2.0 * gamma * grad


def balanced_support_labels(present_classes, support_size: int, class_count: int) -> np.ndarray:
    """One-hot support labels spread as evenly as possible over the classes
    present in the source data (extra slots go to the lowest class ids)."""
    present = sorted(int(c) for c in present_classes)
    if not present:
        raise EmptyInputError("no classes present in source data")
    base, rem = divmod(support_size, len(present))
    counts = [base + (1 if i < rem else 0) for i in range(len(present))]
    idx = np.repeat(present, counts)
    return one_hot(idx, class_count)


def distill(
    d: LabeledDataset, cfg: KipConfig, gamma: float, rng: SeededRng | None = None
) -> DistilledSet:
    """Optimize a support set against dataset `d` by gradient descent.

    Support features start from a seed-chosen per-class subsample of `d`;
    labels are fixed one-hot, balanced over the classes present. Each
    iteration draws cfg.target_batch target rows and steps the support
    features only. The full-data loss is recorded initially, then every
    LOSS_TRACE_EVERY iterations, then at the end.
    """
    if d.n_rows() < 1:
        raise EmptyInputError("cannot distill an empty dataset")
    if cfg.support_size > d.n_rows():
        raise CapacityError(
            f"support size {cfg.support_size} exceeds dataset rows {d.n_rows()}"
        )
    if rng is None:
        rng = SeededRng(cfg.seed, streams.DISTILL)
    gen = rng.generator()

    labels = d.label_indices()
    support_y = balanced_support_labels(np.unique(labels), cfg.support_size, d.class_count)
    support_classes = np.argmax(support_y, axis=1)
    chunks = []
    for cls in sorted(set(int(c) for c in support_classes)):
        need = int(np.sum(support_classes == cls))
        pool = np.flatnonzero(labels == cls)
        pick = gen.choice(pool, size=need, replace=need > len(pool))
        chunks.append(pick)
    support_x = d.features[np.concatenate(chunks)].copy()

    n = d.n_rows()
    trace = [kip_loss(support_x, support_y, d.features, d.labels, cfg.ridge_lambda, gamma)]
    for it in range(cfg.iterations):
        batch = gen.choice(n, size=min(cfg.target_batch, n), replace=False)
        g = kip_gradient(
            support_x, support_y, d.features[batch], d.labels[batch], cfg.ridge_lambda, gamma
        )
        support_x = support_x - cfg.learning_rate * g
        if (it + 1) % LOSS_TRACE_EVERY == 0 and (it + 1) != cfg.iterations:
            trace.append(
                kip_loss(support_x, support_y, d.features, d.labels, cfg.ridge_lambda, gamma)
            )
    if cfg.iterations > 0:
        trace.append(
            kip_loss(support_x, support_y, d.features, d.labels, cfg.ridge_lambda, gamma)
        )
    return DistilledSet(support_x, support_y, trace[-1], tuple(trace))
