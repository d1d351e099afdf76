"""Dense linear algebra and seeded randomness used by every other module.

Matrices are plain 2-D float64 numpy arrays in C order; `as_matrix` is the
boundary validator that public operations apply to their inputs, and
`check_count` and `check_real` are the two rules for their scalars. Randomness
flows exclusively through `SeededRng`, a (seed, stream) pair that maps to an
independent PCG64 stream, so that every component of a simulation can be
re-derived from one experiment seed.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

# Eager, like `_load_flapack`: numpy 2 loads `numpy.random` (some 15 modules)
# at its first use, which would otherwise land inside a run's first problem
# build and raise its peak memory.
from numpy.random import PCG64, Generator, SeedSequence

from .errors import DomainError, EmptyInputError, ShapeError, SingularMatrixError


def _load_flapack():
    """scipy's compiled LAPACK wrappers, without running `scipy.linalg`.

    Importing `scipy.linalg` runs some 300 modules (about 0.15 s and 25 MB
    of RSS on a 2-core x86 host) for the four routines used here, so the
    `_flapack` extension is loaded from its file. It is registered under its own name, so `scipy.linalg`
    imported before or after hfldd shares the one module, and its wrappers
    are the objects `scipy.linalg.lapack` exports. The load is eager: pages
    mapped at the first factorization would land on top of the heap that
    the problem builds leave behind and raise the peak RSS.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("hfldd needs scipy", name="scipy")
    stem = os.path.join(spec.submodule_search_locations[0], "linalg", "_flapack")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            break
    else:
        raise ImportError(f"scipy's LAPACK extension is missing: {stem}.*", name=name, path=stem)
    loader = importlib.machinery.ExtensionFileLoader(name, stem + suffix)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    sys.modules[name] = module
    loader.exec_module(module)
    return module


_flapack = _load_flapack()
dpotrf, dpotrs, dpstrf, dtrtrs = _flapack.dpotrf, _flapack.dpotrs, _flapack.dpstrf, _flapack.dtrtrs

# Each OpenBLAS build's thread-count (get, set): numpy's runs the GEMMs and
# scipy's the LAPACK routines. A handle on an extension's file also searches
# its dependencies (numpy 1 and 2 both link their BLAS to `_umath_linalg`). A
# build that exports neither pair stays unpinned; BLAS_PINNED is true when
# both builds have one.
_GET, _SET = ctypes.CFUNCTYPE(ctypes.c_int), ctypes.CFUNCTYPE(None, ctypes.c_int)
_NAMES = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
          ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"))
_controls = [
    next(((_GET((get, lib)), _SET((put, lib))) for get, put in _NAMES
          if hasattr(lib, get) and hasattr(lib, put)), None)
    for lib in map(ctypes.CDLL, (np.linalg._umath_linalg.__file__, _flapack.__file__))
]
BLAS_THREADS = [c for c in _controls if c]
BLAS_PINNED = None not in _controls

_TINY = float(np.finfo(np.float64).tiny)
# Counts and bit totals are below 2^63, so every cost the metrics formulas
# form (a product of at most five counts) converts to a float for megabytes.
COUNT_LIMIT = 2**63

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
    Seed and stream are integers in [0, 2^64).
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            object.__setattr__(self, name, check_count(name, getattr(self, name), 0, 1 << 64))

    def generator(self) -> Generator:
        return Generator(PCG64(SeedSequence(entropy=self.seed, spawn_key=(self.stream,))))


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


def check_count(name: str, value, least: int = 0, below: int = COUNT_LIMIT) -> int:
    """`value` as an int if it is an integer in [least, below), else
    DomainError. A bool is not a count; `below` is a power of two (a count
    limit is a bit width). A plain int skips the ABC isinstance test, which
    costs about a microsecond."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
    if value >= below:
        raise DomainError(f"{name} must be < 2^{below.bit_length() - 1}, got {value}")
    return int(value)


def check_real(
    name: str, value, least: float = -math.inf, above: float = -math.inf, below: float = math.inf
) -> float:
    """`value` as a float if it is a finite real number in [least, below)
    and above `above`, else DomainError. A bool is not a real number; a
    plain float or int skips the ABC isinstance test."""
    if type(value) not in (float, int) and (isinstance(value, bool) or not isinstance(value, Real)):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not (math.isfinite(x) and least <= x < below and x > above):
        bounds = ((">=", least), (">", above), ("<", below))
        rule = "".join(f" and {op} {b:g}" for op, b in bounds if math.isfinite(b))
        raise DomainError(f"{name} must be finite{rule}, got {value!r}")
    return x


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
    check_real("lam", lam, 0)
    a = k.copy()
    if lam:
        a.flat[:: a.shape[0] + 1] += lam
    factor, info = dpotrf(a.T, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise SingularMatrixError(
            f"system is not positive definite: leading minor of order {info} is not"
        )
    return lambda y: dpotrs(factor, y, lower=1)[0]


@dataclass(frozen=True, eq=False)
class RowBasis:
    """An orthonormal basis m (rank x dim) of the row span of a matrix f.

    The rows of `x` = f m^T are the coordinates of the rows of f: x x^T =
    f f^T, so they keep every inner product and distance. The basis is
    m = c1^-1 b, where b = f[lead] are the rank pivot rows that span the
    rows of f and c1 = x[lead] is their lower triangular factor. m is never
    formed and the basis stores no copy of f: every map reads f itself
    through a triangular solve with c1 and one product. As in a Cholesky
    QR, m is orthonormal to about eps * cond(f)^2, while each map is exact
    to about eps * cond(f) against the coordinates x.
    """

    f: np.ndarray
    x: np.ndarray
    lead: np.ndarray

    @property
    def rank(self) -> int:
        return self.x.shape[1]

    def _solve(self, y: np.ndarray, trans: int) -> np.ndarray:
        # c1 z = y (trans 1) or c1^T z = y (trans 0), through the Fortran
        # view of c1^T; LAPACK rejects the empty rank-0 system.
        c1t = self.x[self.lead].T
        return dtrtrs(c1t, y, lower=0, trans=trans)[0] if self.rank else y

    def project(self, w: np.ndarray) -> np.ndarray:
        """m w: the (rank, k) coordinates of the (dim, k) columns w."""
        return self._solve((self.f @ w)[self.lead], 1)

    def lift(self, a: np.ndarray) -> np.ndarray:
        """m^T a: the (dim, k) columns in the row span with coordinates a."""
        return self.back(a.T).T

    def back(self, s: np.ndarray) -> np.ndarray:
        """s m: the feature rows with coordinate rows s, back(x) = f.

        s m = s c1^-1 b, one triangular solve and one product with the pivot
        rows b = f[lead], gathered for the call only.
        """
        return self._solve(s.T, 0).T @ self.f[self.lead]


def _row_basis(f: np.ndarray) -> RowBasis:
    """The basis of the row span of `f` that a pivoted Cholesky of the Gram
    matrix gives.

    The rank is LAPACK's at its default tolerance: g[piv][:, piv] = c c^T
    with c lower trapezoidal, x[piv] = c, and the leading `rank` pivots are
    the basis's pivot rows. The Gram form holds distances to
    eps * max|f|^2, as `rbf_core` computes them anyway, so directions with
    singular values below about sqrt(n * eps) of the largest count as
    rank-deficient. A row outside the pivot set comes back to within about
    eps * cond(f) * max|f|.
    """
    g = f @ f.T
    # The diagonal bounds every entry, so a finite diagonal is a finite Gram.
    if not math.isfinite(g.trace()):
        raise DomainError("features are too large to square")
    c, piv, rank, _ = dpstrf(g.T, lower=1, overwrite_a=1)
    piv -= 1
    x = np.empty((f.shape[0], rank))
    x[piv] = np.tril(c[:, :rank])
    return RowBasis(f, x, piv[:rank])


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
    check_real("gamma", gamma, above=0)
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
    yields a finite positive gamma. Features whose squares overflow have no
    finite variance and are rejected.
    """
    x = as_matrix(features, "features")
    if not x.size:
        raise EmptyInputError(f"features must be non-empty, got shape {x.shape}")
    d = x.shape[1]
    with np.errstate(**QUIET):
        var = float(np.mean(np.var(x, axis=0)))
    gamma = 1.0 / (2.0 * d * max(var, 1e-12))
    # An overflowed variance (inf or NaN) leaves gamma 0 or NaN.
    if not gamma > 0.0:
        raise DomainError("features are too large to square")
    return gamma
