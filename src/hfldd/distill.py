"""Dataset distillation with kernel inducing points.

A small synthetic support set is optimized so that kernel ridge regression
fit on it reproduces the labels of the real data. Only the support features
move; support labels stay fixed one-hot and class-balanced. The gradient is
analytic (differentiating through the ridge solve), so no autograd framework
is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datagen import LabeledDataset, one_hot
from .errors import CapacityError, DomainError, EmptyInputError, ShapeError
from .numkernel import (
    QUIET,
    SeededRng,
    _row_basis,
    as_matrix,
    check_count,
    check_real,
    rbf_core,
    rbf_kernel,
    ridge_solve,
    ridge_solver,
)

LOSS_TRACE_EVERY = 100


@dataclass(frozen=True)
class KipConfig:
    """Distillation schedule: support size, ridge lambda, step size, budget."""

    support_size: int
    ridge_lambda: float
    learning_rate: float
    iterations: int
    target_batch: int

    def __post_init__(self):
        check_count("support_size", self.support_size, 1)
        check_real("ridge_lambda", self.ridge_lambda, above=0)
        check_real("learning_rate", self.learning_rate, above=0)
        check_count("iterations", self.iterations)
        check_count("target_batch", self.target_batch, 1)


@dataclass
class DistilledSet:
    """Optimized support set plus the full-data loss trace that produced it."""

    data: LabeledDataset
    loss_trace: tuple[float, ...]

    @property
    def final_loss(self) -> float:
        return self.loss_trace[-1]

    def n_rows(self) -> int:
        return self.data.n_rows()


def _kip_inputs(xs, ys, xt, yt, gamma: float):
    """Validate the inputs shared by kip_loss and kip_gradient."""
    xs = as_matrix(xs, "xs")
    ys = as_matrix(ys, "ys")
    xt = as_matrix(xt, "xt")
    yt = as_matrix(yt, "yt")
    if xs.shape[1] != xt.shape[1]:
        raise DomainError(f"feature dims differ: support {xs.shape[1]}, target {xt.shape[1]}")
    if ys.shape[1] != yt.shape[1]:
        raise DomainError(f"label dims differ: support {ys.shape[1]}, target {yt.shape[1]}")
    if ys.shape[0] != xs.shape[0] or yt.shape[0] != xt.shape[0]:
        raise ShapeError("labels and features must have the same number of rows")
    check_real("gamma", gamma, above=0)
    return xs, ys, xt, yt


def kip_loss(xs, ys, xt, yt, lam: float, gamma: float) -> float:
    """Half squared Frobenius error of the support-set ridge predictor.

    loss = 0.5 * ||yt - K_ts (K_ss + lam I)^-1 ys||_F^2. `lam` may be zero
    when the support kernel itself is positive definite.
    """
    xs, ys, xt, yt = _kip_inputs(xs, ys, xt, yt, gamma)
    k_ss = rbf_kernel(xs, xs, gamma)
    k_ts = rbf_kernel(xt, xs, gamma)
    alpha = ridge_solve(k_ss, ys, lam)
    resid = yt - k_ts @ alpha
    return 0.5 * float(np.sum(resid * resid))


def kip_gradient(xs, ys, xt, yt, lam: float, gamma: float) -> np.ndarray:
    """Analytic gradient of kip_loss w.r.t. the support features xs.

    With A = K_ss + lam I, alpha = A^-1 ys, err = K_ts alpha - yt and
    beta = A^-1 K_ts^T err, the loss sensitivities to the kernel blocks are
    G_ts = err alpha^T and G_ss = -beta alpha^T (the ridge solve contributes
    through d(A^-1) = -A^-1 dA A^-1). Each kernel entry moves with
    2 gamma (x_j - x_i) K_ij, so with W_ts = G_ts * K_ts and
    W = (G_ss + G_ss^T) * K_ss - diag(colsum(W_ts) + rowsum(W_ss)), where
    W_ss is W before its diagonal term, the gradient is

        2 gamma (W xs + W_ts^T xt).

    K_ss is built and factored once per call, serving both alpha and beta.
    """
    xs, ys, xt, yt = _kip_inputs(xs, ys, xt, yt, gamma)
    k_ss = rbf_core(xs, xs, gamma)
    k_ts = rbf_core(xt, xs, gamma)
    solve = ridge_solver(k_ss, lam)
    alpha = solve(ys)
    err = k_ts @ alpha
    err -= yt
    w_ts = err @ alpha.T
    w_ts *= k_ts
    g_ss = -solve(k_ts.T @ err) @ alpha.T
    w = g_ss + g_ss.T
    w *= k_ss
    diag = w_ts.sum(axis=0)
    diag += w.sum(axis=1)
    w.flat[:: w.shape[0] + 1] -= diag
    grad = w @ xs
    grad += w_ts.T @ xt
    grad *= 2.0 * gamma
    return grad


def balanced_support_labels(present_classes, support_size: int, class_count: int) -> np.ndarray:
    """One-hot support labels spread as evenly as possible over the classes
    present in the source data (extra slots go to the lowest class ids)."""
    check_count("support_size", support_size, 1)
    present = sorted(int(c) for c in present_classes)
    if not present:
        raise EmptyInputError("no classes present in source data")
    base, rem = divmod(support_size, len(present))
    counts = [base + (1 if i < rem else 0) for i in range(len(present))]
    idx = np.repeat(present, counts)
    return one_hot(idx, class_count)


def distill(d: LabeledDataset, cfg: KipConfig, gamma: float, rng: SeededRng) -> DistilledSet:
    """Optimize a support set against dataset `d` by gradient descent.

    Support features start from an `rng`-chosen per-class subsample of `d`;
    labels are fixed one-hot, balanced over the classes present. Each
    iteration draws cfg.target_batch target rows and steps the support
    features only. The full-data loss is recorded initially, then every
    LOSS_TRACE_EVERY iterations, then at the end.

    The RBF kernel sees features only through pairwise distances, and each
    step moves the support by combinations of support and target rows, so
    the support never leaves the row span of `d.features`. The loop runs in
    coordinates of that span (`numkernel._row_basis`): a pivoted Cholesky
    of the n x n Gram matrix gives rows that keep every distance and are
    only rank wide, rank <= min(n, dim) as LAPACK's tolerance decides it, so
    repeated or dependent rows add no width. The support is mapped back to
    dim columns once, at the end, and stays in the row span however
    rank-deficient the data are.

    numpy's floating-point warnings are off while the support steps; a
    support whose sum of squares is not finite raises DomainError
    (distillation diverged).
    """
    if cfg.support_size > d.n_rows():
        raise CapacityError(
            f"support size {cfg.support_size} exceeds dataset rows {d.n_rows()}"
        )
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

    n = d.n_rows()
    with np.errstate(**QUIET):
        basis = _row_basis(d.features)
        x = basis.x
        support_x = x[np.concatenate(chunks)]
        trace = [kip_loss(support_x, support_y, x, d.labels, cfg.ridge_lambda, gamma)]
        try:
            for it in range(cfg.iterations):
                batch = gen.choice(n, size=min(cfg.target_batch, n), replace=False)
                xt, yt = x[batch], d.labels[batch]
                g = kip_gradient(support_x, support_y, xt, yt, cfg.ridge_lambda, gamma)
                g *= -cfg.learning_rate
                support_x += g
                if (it + 1) % LOSS_TRACE_EVERY == 0 and (it + 1) != cfg.iterations:
                    trace.append(kip_loss(support_x, support_y, x, d.labels, cfg.ridge_lambda, gamma))
        except DomainError:
            # a step that made the support non-finite fails the next
            # call's input check
            _check_not_diverged(support_x)
            raise
        _check_not_diverged(support_x)
        if cfg.iterations > 0:
            trace.append(kip_loss(support_x, support_y, x, d.labels, cfg.ridge_lambda, gamma))
    return DistilledSet(LabeledDataset(basis.back(support_x), support_y, d.class_count), tuple(trace))


def _check_not_diverged(support_x: np.ndarray) -> None:
    # A support too large to square has left the data's scale, however
    # finite its entries and loss trace still look.
    if not math.isfinite(np.vdot(support_x, support_x)):
        raise DomainError("support features are not finite or overflow: distillation diverged")
