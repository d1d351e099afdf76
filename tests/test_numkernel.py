"""Linear algebra and seeded randomness."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hfldd
from hfldd.errors import DomainError, EmptyInputError, ShapeError, SingularMatrixError
from hfldd.numkernel import (
    QUIET,
    SeededRng,
    _row_basis,
    as_matrix,
    rbf_gamma,
    rbf_kernel,
    ridge_solve,
    ridge_solver,
)

from helpers import conditioned


class TestSeededRng:
    def test_same_pair_same_sequence(self):
        a = SeededRng(42, 3).generator().standard_normal(16)
        b = SeededRng(42, 3).generator().standard_normal(16)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = SeededRng(42, 0).generator().standard_normal(16)
        b = SeededRng(42, 1).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = SeededRng(1, 0).generator().standard_normal(16)
        b = SeededRng(2, 0).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    @given(seed=st.integers(0, 2**63), stream=st.integers(0, 2**63))
    @settings(max_examples=25, deadline=None)
    def test_reproducible_for_any_pair(self, seed, stream):
        a = SeededRng(seed, stream).generator().integers(0, 1 << 30, size=4)
        b = SeededRng(seed, stream).generator().integers(0, 1 << 30, size=4)
        assert np.array_equal(a, b)

    def test_seed_and_stream_are_64_bit_counts(self):
        top = SeededRng(2**64 - 1, 2**64 - 1)
        assert (top.seed, top.stream) == (2**64 - 1, 2**64 - 1)
        for name, bad in (("seed", -1), ("seed", 2**64), ("stream", -1), ("stream", 2**64)):
            with pytest.raises(DomainError, match=f"^{name} must be"):
                SeededRng(**{"seed": 0, name: bad})


class TestAsMatrix:
    def test_accepts_nested_lists(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64
        assert m.flags["C_CONTIGUOUS"]

    def test_rejects_vector(self):
        with pytest.raises(ShapeError):
            as_matrix([1.0, 2.0])

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            as_matrix([[1.0, float("nan")]])

    def test_rejects_inf(self):
        with pytest.raises(DomainError):
            as_matrix([[float("inf"), 0.0]])

    @pytest.mark.parametrize("shape", [(1, 1), (3, 4), (100, 10), (160, 1024)])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_one_non_finite_entry_anywhere(self, shape, bad):
        base = SeededRng(2, 0).generator().standard_normal(shape)
        for flat_index in sorted({0, base.size // 2, base.size - 1}):
            a = base.copy()
            a.flat[flat_index] = bad
            with pytest.raises(DomainError):
                as_matrix(a)

    def test_rejects_opposite_infinities(self):
        with pytest.raises(DomainError):
            as_matrix([[float("inf"), 1.0, -float("inf")]])

    def test_accepts_entries_whose_squares_overflow(self):
        big = np.finfo(np.float64).max
        a = np.array([[big, -big], [1e200, -1e160]])
        assert np.array_equal(as_matrix(a), a)
        with pytest.raises(DomainError):
            as_matrix(np.array([[big, float("nan")]]))


class TestRidgeSolve:
    def test_hand_solution(self):
        # (k + I) alpha = y with k = [[2,1],[1,2]]: A = [[3,1],[1,3]],
        # A^-1 = [[3,-1],[-1,3]]/8, y = [1,1]^T -> alpha = [0.25, 0.25]^T.
        alpha = ridge_solve([[2.0, 1.0], [1.0, 2.0]], [[1.0], [1.0]], 1.0)
        assert np.allclose(alpha, [[0.25], [0.25]], atol=1e-14)

    def test_matches_reference_solver(self):
        gen = SeededRng(11, 0).generator()
        x = gen.standard_normal((6, 6))
        k = x @ x.T
        y = gen.standard_normal((6, 2))
        lam = 0.5
        expected = np.linalg.solve(k + lam * np.eye(6), y)
        assert np.allclose(ridge_solve(k, y, lam), expected, atol=1e-10)

    def test_zero_lambda_on_definite_kernel(self):
        k = np.array([[2.0, 0.0], [0.0, 3.0]])
        alpha = ridge_solve(k, [[2.0], [3.0]], 0.0)
        assert np.allclose(alpha, [[1.0], [1.0]], atol=1e-14)

    def test_indefinite_system_raises(self):
        with pytest.raises(SingularMatrixError):
            ridge_solve([[0.0, 1.0], [1.0, 0.0]], [[1.0], [1.0]], 0.0)

    def test_negative_lambda_rejected(self):
        for lam in (-1e-9, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                ridge_solve(np.eye(2), np.ones((2, 1)), lam)

    def test_empty_system_has_empty_solution(self):
        alpha = ridge_solve(np.zeros((0, 0)), np.zeros((0, 3)), 1.0)
        assert alpha.shape == (0, 3)
        assert ridge_solve(np.eye(2), np.zeros((2, 0)), 1.0).shape == (2, 0)

    def test_non_symmetric_kernel_rejected(self):
        # LAPACK reads one triangle: this k used to give [1/3, 1/3] (the upper
        # triangle mirrored) where the true solution is [0.25, 0.5].
        with pytest.raises(DomainError):
            ridge_solve([[2.0, 1.0], [0.0, 2.0]], [[1.0], [1.0]], 0.0)
        k = np.array([[2.0, 1.0], [1.0, 2.0]])
        k[0, 1] = np.nextafter(1.0, 2.0)
        with pytest.raises(DomainError):
            ridge_solve(k, [[1.0], [1.0]], 1.0)

    def test_solver_adds_lambda_to_the_diagonal_only(self):
        gen = SeededRng(12, 0).generator()
        x = gen.standard_normal((5, 3))
        k = rbf_kernel(x, x, 0.2)
        y = gen.standard_normal((5, 2))
        a = k.copy()
        a[np.diag_indices_from(a)] += 0.3
        expected = np.linalg.solve(a, y)
        assert np.allclose(ridge_solver(k, 0.3)(y), expected, rtol=1e-12, atol=1e-12)

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            ridge_solve(np.ones((2, 3)), np.ones((2, 1)), 1.0)
        with pytest.raises(ShapeError):
            ridge_solve(np.eye(2), np.ones((3, 1)), 1.0)


class TestRowBasis:
    CASES = {
        "fewer-rows": lambda gen: gen.standard_normal((12, 40)),
        "more-rows": lambda gen: gen.standard_normal((40, 12)),
        "duplicated-rows": lambda gen: gen.standard_normal((3, 20))[np.arange(15) % 3],
        "cond-1e6": lambda gen: conditioned(30, 12, 1e6, gen),
        "all-zero": lambda gen: np.zeros((6, 5)),
    }

    @pytest.mark.parametrize("name", CASES)
    @pytest.mark.parametrize("seed", range(3))
    def test_coordinates_keep_the_gram_and_map_back(self, name, seed):
        gen = SeededRng(seed).generator()
        f = self.CASES[name](gen)
        basis = _row_basis(f)
        x = basis.x
        rank = np.linalg.matrix_rank(f)
        assert x.shape == (f.shape[0], rank) and basis.rank == rank and x.flags.c_contiguous
        scale = np.max(np.abs(f))
        np.testing.assert_allclose(x @ x.T, f @ f.T, rtol=0, atol=1e-12 * scale**2)
        # A row outside the pivot set comes back through the inverse of the
        # pivot rows' factor, so it loses up to eps * cond(f).
        tol = (1e-12 + 1e-15 * self.cond(f, rank)) * scale
        np.testing.assert_allclose(basis.back(x), f, rtol=0, atol=tol)
        w = gen.standard_normal((4, f.shape[0]))
        np.testing.assert_allclose(
            basis.back(w @ x), w @ f, rtol=0, atol=tol * np.abs(w).sum(axis=1).max()
        )

    @staticmethod
    def cond(f, rank):
        sv = np.linalg.svd(f, compute_uv=False)
        return sv[0] / sv[rank - 1] if rank else 1.0

    @pytest.mark.parametrize("name", CASES)
    @pytest.mark.parametrize("seed", range(3))
    def test_weight_columns_project_and_lift(self, name, seed):
        gen = SeededRng(seed).generator()
        f = self.CASES[name](gen)
        basis = _row_basis(f)
        rank = basis.rank
        cond = self.cond(f, rank)
        a = gen.standard_normal((rank, 7))
        w = gen.standard_normal((f.shape[1], 7))
        # The basis comes from the Gram matrix, so it is orthonormal to about
        # eps * cond(f)^2, as in Cholesky QR; training never relies on that
        # (see fltrain._row_span_trainer).
        tol = 1e-12 + 1e-15 * cond**2
        lifted = basis.lift(a)
        assert lifted.shape == w.shape
        np.testing.assert_allclose(basis.project(lifted), a, rtol=0, atol=tol * np.linalg.norm(a))
        # lift(project(w)) is the orthogonal projection of w onto the rows' span
        u, _, _ = np.linalg.svd(f.T, full_matrices=False)
        span = u[:, :rank]
        np.testing.assert_allclose(
            basis.lift(basis.project(w)), span @ (span.T @ w), rtol=0, atol=tol * np.linalg.norm(w)
        )

    @pytest.mark.parametrize("name", CASES)
    def test_basis_holds_no_copy_of_the_features(self, name):
        f = self.CASES[name](SeededRng(0).generator())
        basis = _row_basis(f)
        assert basis.f is f
        n = f.shape[0]
        owned = basis.x.nbytes + basis.lead.nbytes
        assert owned <= n * basis.rank * 8 + n * 8
        assert not np.shares_memory(basis.x, f)

    def test_rows_too_large_to_square_rejected(self):
        with np.errstate(**QUIET), pytest.raises(DomainError, match="too large to square"):
            _row_basis(np.array([[1e200, 0.0], [0.0, 1.0]]))


class TestRbfKernel:
    def test_hand_entry(self):
        # ||(0,0)-(3,4)||^2 = 25, gamma 0.1 -> exp(-2.5)
        out = rbf_kernel([[0.0, 0.0]], [[3.0, 4.0]], 0.1)
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - np.exp(-2.5)) < 1e-15

    def test_self_kernel_symmetric_unit_diagonal(self):
        x = SeededRng(3, 0).generator().standard_normal((7, 4))
        k = rbf_kernel(x, x, 0.7)
        assert np.array_equal(k, k.T)
        assert np.array_equal(np.diag(k), np.ones(7))

    def test_entries_stay_positive_under_underflow(self):
        k = rbf_kernel([[0.0]], [[1e6]], 1.0)
        assert k[0, 0] > 0.0

    def test_gamma_validation(self):
        for gamma in (0.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                rbf_kernel([[0.0]], [[1.0]], gamma)

    @pytest.mark.parametrize("rows", [(10, 32), (80, 1024)])
    def test_in_place_forms_are_bit_identical(self, rows):
        gen = SeededRng(13, 0).generator()
        a = gen.standard_normal(rows)
        b = gen.standard_normal((7, rows[1]))
        a_before, b_before = a.tobytes(), b.tobytes()
        gamma = 1.0 / (2 * rows[1])
        tiny = np.finfo(np.float64).tiny
        # the expressions the kernel was computed with before it went in place
        g = a @ a.T
        g = (g + g.T) * 0.5
        sq = np.diag(g).copy()
        d2 = sq[:, None] + sq[None, :]
        d2 -= 2.0 * g
        np.fill_diagonal(d2, 0.0)
        same = np.maximum(np.exp(np.clip(d2, 0.0, None) * -gamma), tiny)
        sqa = np.einsum("ij,ij->i", b, b)
        sqb = np.einsum("ij,ij->i", a, a)
        d2 = sqa[:, None] + sqb[None, :]
        d2 -= 2.0 * (b @ a.T)
        cross = np.maximum(np.exp(np.clip(d2, 0.0, None) * -gamma), tiny)
        assert rbf_kernel(a, a, gamma).tobytes() == same.tobytes()
        assert rbf_kernel(b, a, gamma).tobytes() == cross.tobytes()
        assert a.tobytes() == a_before and b.tobytes() == b_before

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            rbf_kernel(np.ones((2, 3)), np.ones((2, 4)), 1.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_range_is_unit_interval(self, seed):
        gen = SeededRng(seed, 1).generator()
        a = gen.standard_normal((5, 3)) * 3.0
        b = gen.standard_normal((4, 3)) * 3.0
        k = rbf_kernel(a, b, 0.5)
        assert np.all(k > 0.0) and np.all(k <= 1.0)


class TestRbfGamma:
    def test_hand_value(self):
        # per-feature variances are both 1 -> gamma = 1 / (2 * 2 * 1)
        assert rbf_gamma([[0.0, 0.0], [2.0, 2.0]]) == pytest.approx(0.25)

    def test_constant_features_still_positive(self):
        g = rbf_gamma(np.zeros((5, 3)))
        assert np.isfinite(g) and g > 0.0

    @pytest.mark.parametrize(
        "features",
        [[[1e200, 0.0], [-1e200, 0.0]], [[1e308, 0.0], [1e308, 0.0]], [[1e154], [-1e154]]],
        ids=["squares", "sum", "variance-sum"],
    )
    @pytest.mark.parametrize("quiet", [False, True], ids=["warn", "quiet"])
    def test_features_too_large_to_square_rejected(self, features, quiet):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(**(QUIET if quiet else {})):
                with pytest.raises(DomainError, match="too large to square"):
                    rbf_gamma(features)
        assert caught == []

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3)])
    def test_empty_features_rejected(self, shape):
        with pytest.raises(EmptyInputError):
            rbf_gamma(np.zeros(shape))


SRC = os.path.dirname(os.path.dirname(os.path.abspath(hfldd.__file__)))
LAPACK = ("dpotrf", "dpotrs", "dpstrf", "dtrtrs")


def run_python(code, *path):
    """Run `code` in a fresh interpreter with `path` and the package's
    sources first on its import path; returns its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (*path, SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestLapackLoader:
    """numkernel takes its LAPACK routines from scipy's `_flapack` extension
    without importing `scipy.linalg`."""

    def test_cli_import_leaves_scipy_linalg_out(self):
        out = run_python(
            "import sys, hfldd.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        assert out.split() == ["['scipy.linalg._flapack']"]

    @pytest.mark.parametrize("first", ["hfldd.numkernel", "scipy.linalg.lapack"])
    def test_same_wrappers_in_either_import_order(self, first):
        out = run_python(
            f"import sys, {first}\n"
            "import numpy as np, scipy.linalg, scipy.linalg.lapack as lapack\n"
            "from hfldd import numkernel\n"
            f"print(all(getattr(numkernel, n) is getattr(lapack, n) for n in {LAPACK}))\n"
            "print(lapack._flapack is sys.modules['scipy.linalg._flapack'])\n"
            "c = scipy.linalg.cho_factor(np.array([[4.0, 0.0], [0.0, 9.0]]))\n"
            "print(scipy.linalg.cho_solve(c, np.array([8.0, 18.0])).tolist())"
        )
        assert out.split("\n")[:3] == ["True", "True", "[2.0, 2.0]"]

    def test_missing_extension_fails_at_import_naming_the_path(self, tmp_path):
        (tmp_path / "scipy" / "linalg").mkdir(parents=True)
        (tmp_path / "scipy" / "__init__.py").write_text("", encoding="utf-8")
        out = run_python(
            "try:\n"
            "    import hfldd.numkernel\n"
            "except ImportError as e:\n"
            "    print(e)",
            str(tmp_path),
        )
        assert out.strip() == f"scipy's LAPACK extension is missing: {tmp_path / 'scipy' / 'linalg' / '_flapack'}.*"
