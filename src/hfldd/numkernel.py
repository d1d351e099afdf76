"""Dense linear algebra and seeded randomness used by every other module.

Matrices are plain 2-D float64 numpy arrays in C order; `as_matrix` is the
boundary validator that public operations apply to their inputs. Randomness
flows exclusively through `SeededRng`, a (seed, stream) pair that maps to an
independent PCG64 stream, so that every component of a simulation can be
re-derived from one experiment seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import DomainError, ShapeError, SingularMatrixError

_MASK64 = (1 << 64) - 1
_TINY = float(np.finfo(np.float64).tiny)

# numpy's overflow, invalid-value and divide warnings are off while models
# train and supports are distilled (`np.errstate(**QUIET)`): divergence is
# detected from the result and reported as a typed error instead. Underflow
# (a vanishing softmax or kernel term) stays harmless.
QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


@dataclass(frozen=True)
class SeededRng:
    """Deterministic random stream identified by (seed, stream).

    Equal pairs produce identical draw sequences on every platform. Distinct
    stream ids derived from one seed give statistically independent streams,
    which is how per-client and per-round randomness is kept uncoupled.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.seed & _MASK64, spawn_key=(self.stream & _MASK64,)
        )
        return np.random.Generator(np.random.PCG64(ss))


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate `a` as a finite 2-D float64 array and return it (C order).

    The finiteness test is one dot product: a NaN or an infinity makes the
    sum of squares non-finite, and only a finite sum that overflowed needs
    the elementwise check.
    """
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got {m.ndim}-D")
    if not (math.isfinite(np.vdot(m, m)) or np.isfinite(m).all()):
        raise DomainError(f"{name} contains non-finite entries")
    return m


def ridge_solve(k, y, lam: float) -> np.ndarray:
    """Solve (k + lam*I) alpha = y for symmetric positive definite k + lam*I.

    Uses a Cholesky factorization rather than an explicit inverse. `lam` may
    be zero when `k` itself is positive definite. `k` must be exactly
    symmetric: the factorization reads one triangle only, so any other `k`
    would silently solve a different system.
    """
    k = as_matrix(k, "k")
    y = as_matrix(y, "y")
    if k.shape[0] != k.shape[1]:
        raise ShapeError(f"k must be square, got {k.shape}")
    if (k != k.T).any():
        raise DomainError("k must be symmetric")
    if y.shape[0] != k.shape[0]:
        raise ShapeError(f"y rows {y.shape[0]} != k order {k.shape[0]}")
    solve = ridge_solver(k, lam)
    # LAPACK's wrapper rejects empty right-hand sides; the empty system's
    # solution is the empty y.
    return solve(y) if k.size else y.copy()


def ridge_solver(k: np.ndarray, lam: float):
    """Factor k + lam*I once; return `solve(y)` for (k + lam*I) x = y.

    Unchecked core of `ridge_solve` for callers that already validated an
    exactly symmetric `k` and matching `y`; `lam` is still checked. LAPACK
    factors the Fortran-ordered view of the symmetric copy in place.
    """
    if not 0 <= lam < math.inf:
        raise DomainError(f"lambda must be finite and nonnegative, got {lam}")
    a = k.copy()
    if lam:
        a.flat[:: a.shape[0] + 1] += lam
    factor, info = dpotrf(a.T, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise SingularMatrixError(
            f"system is not positive definite: leading minor of order {info} is not"
        )
    return lambda y: dpotrs(factor, y, lower=1)[0]


def rbf_kernel(a, b, gamma: float) -> np.ndarray:
    """Gaussian kernel matrix: entry (i, j) = exp(-gamma * ||a_i - b_j||^2).

    When `a is b` the Gram term is symmetrized and the diagonal distance is
    pinned to zero, so the result is bit-exactly symmetric with unit diagonal.
    Entries are clamped to stay strictly positive (underflow maps to the
    smallest normal float), keeping the output inside (0, 1].
    """
    same = a is b
    a = as_matrix(a, "a")
    b = a if same else as_matrix(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"feature dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    if not 0 < gamma < math.inf:
        raise DomainError(f"gamma must be finite and positive, got {gamma}")
    return rbf_core(a, b, gamma)


def rbf_core(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """Unchecked core of `rbf_kernel` for validated matrices and gamma > 0."""
    if a is b:
        p = a @ a.T
        g = p + p.T
        g *= 0.5
        sq = g.diagonal().copy()
        d2 = sq[:, None] + sq[None, :]
        g *= 2.0
        d2 -= g
        d2.flat[:: d2.shape[0] + 1] = 0.0
    else:
        sqa = np.einsum("ij,ij->i", a, a)
        sqb = np.einsum("ij,ij->i", b, b)
        d2 = sqa[:, None] + sqb[None, :]
        g = a @ b.T
        g *= 2.0
        d2 -= g
    np.maximum(d2, 0.0, out=d2)
    d2 *= -gamma
    np.exp(d2, out=d2)
    np.maximum(d2, _TINY, out=d2)
    return d2


def rbf_gamma(features) -> float:
    """Default kernel bandwidth: 1 / (2 * d * var) for feature matrix rows.

    `var` is the mean per-feature variance, floored so constant data still
    yields a finite positive gamma.
    """
    x = as_matrix(features, "features")
    d = x.shape[1]
    var = float(np.mean(np.var(x, axis=0)))
    var = max(var, 1e-12)
    return 1.0 / (2.0 * d * var)
