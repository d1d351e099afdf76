"""Kernel-inducing-point distillation: loss, analytic gradient, optimizer."""

import warnings

import numpy as np
import pytest

from hfldd.datagen import LabeledDataset, one_hot
from hfldd.distill import (
    KipConfig,
    balanced_support_labels,
    distill,
    kip_gradient,
    kip_loss,
)
from hfldd.errors import (
    CapacityError,
    DomainError,
    EmptyInputError,
    ShapeError,
    SingularMatrixError,
)
from hfldd.numkernel import SeededRng, rbf_core, rbf_gamma, rbf_kernel, ridge_solve, ridge_solver


def blob_dataset(seed=0, n=40, dim=3, classes=2, spread=2.0):
    gen = SeededRng(seed, 0).generator()
    idx = gen.integers(0, classes, size=n)
    centers = gen.standard_normal((classes, dim)) * spread
    x = centers[idx] + gen.standard_normal((n, dim)) * 0.5
    return LabeledDataset(x, one_hot(idx, classes), classes)


class TestKipConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(support_size=0, ridge_lambda=1e-6, learning_rate=0.01, iterations=1, target_batch=1),
            dict(support_size=1, ridge_lambda=0.0, learning_rate=0.01, iterations=1, target_batch=1),
            dict(support_size=1, ridge_lambda=1e-6, learning_rate=0.0, iterations=1, target_batch=1),
            dict(support_size=1, ridge_lambda=1e-6, learning_rate=0.01, iterations=-1, target_batch=1),
            dict(support_size=1, ridge_lambda=1e-6, learning_rate=0.01, iterations=1, target_batch=0),
            dict(support_size=1, ridge_lambda=float("nan"), learning_rate=0.01, iterations=1, target_batch=1),
            dict(support_size=1, ridge_lambda=float("inf"), learning_rate=0.01, iterations=1, target_batch=1),
            dict(support_size=1, ridge_lambda=1e-6, learning_rate=float("nan"), iterations=1, target_batch=1),
            dict(support_size=1, ridge_lambda=1e-6, learning_rate=float("inf"), iterations=1, target_batch=1),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(DomainError):
            KipConfig(**kw)


class TestKipLoss:
    def test_single_point_hand_value(self):
        # support = target = origin, gamma arbitrary: K_ss = K_ts = 1.
        # lam = 1 -> alpha = ys / 2 = 1; residual = 0 - 1 = -1; loss = 0.5.
        loss = kip_loss([[0.0]], [[2.0]], [[0.0]], [[0.0]], 1.0, 1.0)
        assert loss == pytest.approx(0.5, abs=1e-15)

    def test_perfect_interpolation_is_zero(self):
        # lam = 0 and target == support: ridge solve interpolates exactly.
        xs = np.array([[0.0, 0.0], [2.0, 0.0]])
        ys = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert kip_loss(xs, ys, xs, ys, 0.0, 0.8) == pytest.approx(0.0, abs=1e-18)

    def test_large_lambda_limit(self):
        # alpha -> 0, so the loss approaches half the squared target norm
        gen = SeededRng(1, 0).generator()
        xs, xt = gen.standard_normal((4, 2)), gen.standard_normal((9, 2))
        ys = one_hot([0, 1, 0, 1], 2)
        yt = one_hot(gen.integers(0, 2, size=9), 2)
        loss = kip_loss(xs, ys, xt, yt, 1e9, 0.5)
        assert loss == pytest.approx(0.5 * float(np.sum(yt * yt)), rel=0.01)

    def test_dim_checks(self):
        with pytest.raises(DomainError):
            kip_loss(np.ones((2, 2)), np.ones((2, 1)), np.ones((2, 3)), np.ones((2, 1)), 1.0, 1.0)
        with pytest.raises(DomainError):
            kip_loss(np.ones((2, 2)), np.ones((2, 1)), np.ones((2, 2)), np.ones((2, 2)), 1.0, 1.0)

    def test_label_rows_must_match_feature_rows(self):
        # one target label row would otherwise broadcast over every target
        # row and return a loss
        xs, ys, xt, yt = kip_instance(1, 4, 5, 3, 2)
        with pytest.raises(ShapeError):
            kip_loss(xs, ys, xt, yt[:1], 1e-3, 0.5)

    @pytest.mark.parametrize("gamma", [0.0, float("nan"), float("inf")])
    def test_bad_gamma_rejected(self, gamma):
        xs, ys, xt, yt = kip_instance(1, 4, 5, 3, 2)
        with pytest.raises(DomainError):
            kip_loss(xs, ys, xt, yt, 1e-3, gamma)
        with pytest.raises(DomainError):
            kip_gradient(xs, ys, xt, yt, 1e-3, gamma)


def two_term_gradient(xs, ys, xt, yt, lam, gamma):
    """The gradient as two separate kernel-sensitivity terms, each solve on
    its own: the unfolded form kip_gradient must agree with."""
    k_ss = rbf_kernel(xs, xs, gamma)
    k_ts = rbf_kernel(xt, xs, gamma)
    alpha = ridge_solve(k_ss, ys, lam)
    err = k_ts @ alpha - yt
    g_ts = err @ alpha.T
    g_ss = -ridge_solve(k_ss, k_ts.T @ err, lam) @ alpha.T
    w_ts = g_ts * k_ts
    grad = w_ts.T @ xt - w_ts.sum(axis=0)[:, None] * xs
    w_ss = (g_ss + g_ss.T) * k_ss
    grad += w_ss @ xs - w_ss.sum(axis=1)[:, None] * xs
    return 2.0 * gamma * grad


def kip_instance(seed, s, t, d, classes):
    gen = SeededRng(seed, 0).generator()
    xs, xt = gen.standard_normal((s, d)), gen.standard_normal((t, d))
    ys = one_hot(np.arange(s) % classes, classes)
    yt = one_hot(gen.integers(0, classes, size=t), classes)
    return xs, ys, xt, yt


class TestKipGradient:
    @pytest.mark.parametrize("s,t,d", [(3, 6, 2), (10, 16, 32), (80, 10, 1024)])
    def test_matches_two_term_form(self, s, t, d):
        xs, ys, xt, yt = kip_instance(s + d, s, t, d, 10 if s > 3 else 2)
        lam, gamma = 1e-6, 1.0 / (2.0 * d)
        folded = kip_gradient(xs, ys, xt, yt, lam, gamma)
        reference = two_term_gradient(xs, ys, xt, yt, lam, gamma)
        # Relative to the gradient's scale: entries that cancel to a tiny
        # fraction of it carry no relative precision in either form.
        scale = np.max(np.abs(reference))
        assert scale > 0.0
        np.testing.assert_allclose(folded, reference, rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("s,t,d", [(10, 16, 32), (80, 10, 160)])
    def test_in_place_steps_are_bit_identical_and_pure(self, s, t, d):
        xs, ys, xt, yt = kip_instance(s * d, s, t, d, 10)
        lam, gamma = 1e-6, 1.0 / (2.0 * d)
        before = [a.tobytes() for a in (xs, ys, xt, yt)]
        # the one-factorization gradient as written before it went in place
        k_ss = rbf_core(xs, xs, gamma)
        k_ts = rbf_core(xt, xs, gamma)
        solve = ridge_solver(k_ss, lam)
        alpha = solve(ys)
        err = k_ts @ alpha - yt
        w_ts = (err @ alpha.T) * k_ts
        g_ss = -solve(k_ts.T @ err) @ alpha.T
        w = (g_ss + g_ss.T) * k_ss
        diag = w_ts.sum(axis=0)
        diag += w.sum(axis=1)
        w[np.diag_indices_from(w)] -= diag
        expected = 2.0 * gamma * (w @ xs + w_ts.T @ xt)
        assert kip_gradient(xs, ys, xt, yt, lam, gamma).tobytes() == expected.tobytes()
        assert [a.tobytes() for a in (xs, ys, xt, yt)] == before

    def test_negative_lambda_rejected(self):
        xs, ys, xt, yt = kip_instance(1, 4, 5, 3, 2)
        with pytest.raises(DomainError):
            kip_gradient(xs, ys, xt, yt, -1e-3, 0.5)

    def test_label_rows_must_match_feature_rows(self):
        xs, ys, xt, yt = kip_instance(1, 4, 5, 3, 2)
        with pytest.raises(ShapeError):
            kip_gradient(xs, ys[:3], xt, yt, 1e-3, 0.5)
        # one target label row would otherwise broadcast over every target
        with pytest.raises(ShapeError):
            kip_gradient(xs, ys, xt, yt[:1], 1e-3, 0.5)

    @pytest.mark.parametrize("d", [2, 32, 1024])
    def test_duplicate_support_rows(self, d):
        xs, ys, xt, yt = kip_instance(d, 4, 5, d, 2)
        xs[1] = xs[0]
        gamma = 1.0 / (2.0 * d)
        with pytest.raises(SingularMatrixError):
            kip_gradient(xs, ys, xt, yt, 0.0, gamma)
        assert np.all(np.isfinite(kip_gradient(xs, ys, xt, yt, 1e-6, gamma)))

    def test_matches_finite_differences(self):
        gen = SeededRng(2, 0).generator()
        xs = gen.standard_normal((3, 2))
        ys = one_hot([0, 1, 0], 2)
        xt = gen.standard_normal((6, 2))
        yt = one_hot(gen.integers(0, 2, size=6), 2)
        lam, gamma, eps = 1e-2, 0.7, 1e-6
        g = kip_gradient(xs, ys, xt, yt, lam, gamma)
        worst = 0.0
        for i in range(xs.shape[0]):
            for j in range(xs.shape[1]):
                bumped = xs.copy()
                bumped[i, j] += eps
                up = kip_loss(bumped, ys, xt, yt, lam, gamma)
                bumped[i, j] -= 2 * eps
                down = kip_loss(bumped, ys, xt, yt, lam, gamma)
                numeric = (up - down) / (2 * eps)
                rel = abs(g[i, j] - numeric) / max(abs(g[i, j]) + abs(numeric), 1e-3)
                worst = max(worst, rel)
        assert worst <= 1e-3

    def test_zero_at_perfect_fit(self):
        # residual is identically zero, so the gradient must vanish
        xs = np.array([[0.0, 0.0], [2.0, 0.0]])
        ys = one_hot([0, 1], 2)
        g = kip_gradient(xs, ys, xs, ys, 0.0, 0.8)
        assert np.allclose(g, 0.0, atol=1e-12)


class TestBalancedSupportLabels:
    def test_even_split(self):
        out = balanced_support_labels([0, 2], 4, 3)
        assert np.array_equal(out.sum(axis=0), [2, 0, 2])

    def test_remainder_to_lowest_ids(self):
        out = balanced_support_labels([1, 3, 4], 5, 5)
        assert np.array_equal(out.sum(axis=0), [0, 2, 0, 2, 1])

    def test_no_classes(self):
        with pytest.raises(EmptyInputError):
            balanced_support_labels([], 4, 2)


def original_coordinate_distill(d, cfg, gamma, rng):
    """`distill` as it stood before the row-space change: the same draws and
    steps, taken on the dim-wide features themselves. Returns the support
    rows and the loss trace."""
    gen = rng.generator()
    labels = d.label_indices()
    support_y = balanced_support_labels(np.unique(labels), cfg.support_size, d.class_count)
    support_classes = np.argmax(support_y, axis=1)
    chunks = []
    for cls in sorted(set(int(c) for c in support_classes)):
        need = int(np.sum(support_classes == cls))
        pool = np.flatnonzero(labels == cls)
        chunks.append(gen.choice(pool, size=need, replace=need > len(pool)))
    support_x = d.features[np.concatenate(chunks)]
    loss = lambda: kip_loss(support_x, support_y, d.features, d.labels, cfg.ridge_lambda, gamma)
    n = d.n_rows()
    trace = [loss()]
    for it in range(cfg.iterations):
        batch = gen.choice(n, size=min(cfg.target_batch, n), replace=False)
        support_x -= cfg.learning_rate * kip_gradient(
            support_x, support_y, d.features[batch], d.labels[batch], cfg.ridge_lambda, gamma
        )
        if (it + 1) % 100 == 0 and (it + 1) != cfg.iterations:
            trace.append(loss())
    if cfg.iterations > 0:
        trace.append(loss())
    return support_x, np.array(trace)


class TestRowSpaceDistill:
    # (rows, dim): fewer rows than features, so the coordinates are narrower
    # than the features, and more rows, so they are a rotation of them.
    SHAPES = [(24, 256), (40, 8)]

    @pytest.mark.parametrize("n,dim", SHAPES)
    def test_matches_original_coordinate_loop(self, n, dim):
        d = blob_dataset(seed=n + dim, n=n, dim=dim, classes=3)
        cfg = KipConfig(6, 1e-6, 0.05, 150, 8)
        gamma = rbf_gamma(d.features)
        ref_x, ref_trace = original_coordinate_distill(d, cfg, gamma, SeededRng(3, 4))
        ds = distill(d, cfg, gamma, SeededRng(3, 4))
        assert len(ref_trace) == 3
        scale = np.max(np.abs(ref_x))
        np.testing.assert_allclose(ds.data.features, ref_x, rtol=1e-10, atol=1e-10 * scale)
        np.testing.assert_allclose(
            ds.loss_trace, ref_trace, rtol=1e-10, atol=1e-10 * np.max(ref_trace)
        )

    @pytest.mark.parametrize("n,dim", SHAPES)
    def test_support_lies_in_the_data_row_space(self, n, dim):
        d = blob_dataset(seed=n + dim, n=n, dim=dim, classes=3)
        ds = distill(d, KipConfig(6, 1e-6, 0.05, 50, 8), rbf_gamma(d.features), SeededRng(3, 5))
        _, sv, vt = np.linalg.svd(d.features, full_matrices=False)
        basis = vt[sv > sv[0] * 1e-12]
        s = ds.data.features
        resid = s - (s @ basis.T) @ basis
        assert np.max(np.abs(resid)) <= 1e-12 * np.max(np.abs(s))


class TestDistill:
    def test_shapes_and_trace_contract(self):
        d = blob_dataset()
        cfg = KipConfig(6, 1e-6, 0.05, 250, 8)
        ds = distill(d, cfg, rbf_gamma(d.features), SeededRng(0, 1))
        assert ds.data.features.shape == (6, d.dim())
        assert ds.data.labels.shape == (6, d.class_count)
        # records: initial, iteration 100, iteration 200, final
        assert len(ds.loss_trace) == 4
        assert ds.loss_trace[-1] == ds.final_loss

    def test_trace_skips_duplicate_final_record(self):
        d = blob_dataset()
        cfg = KipConfig(4, 1e-6, 0.05, 100, 8)
        ds = distill(d, cfg, rbf_gamma(d.features), SeededRng(0, 2))
        assert len(ds.loss_trace) == 2

    def test_zero_iterations_returns_subsample(self):
        d = blob_dataset()
        cfg = KipConfig(4, 1e-6, 0.05, 0, 8)
        ds = distill(d, cfg, rbf_gamma(d.features), SeededRng(0, 3))
        assert len(ds.loss_trace) == 1
        assert ds.final_loss == ds.loss_trace[0]
        # starting support rows are drawn from the dataset itself
        for row in ds.data.features:
            assert np.any(np.all(np.isclose(d.features, row, atol=0), axis=1))

    def test_labels_fixed_and_balanced(self):
        d = blob_dataset()
        cfg = KipConfig(6, 1e-6, 0.05, 50, 8)
        ds = distill(d, cfg, rbf_gamma(d.features), SeededRng(0, 4))
        assert np.array_equal(ds.data.labels.sum(axis=0), [3, 3])

    def test_optimization_improves_full_data_loss(self):
        d = blob_dataset(seed=5, n=60)
        cfg = KipConfig(4, 1e-6, 0.05, 300, 10)
        ds = distill(d, cfg, rbf_gamma(d.features), SeededRng(5, 1))
        assert ds.loss_trace[-1] <= ds.loss_trace[0]

    def test_deterministic(self):
        d = blob_dataset()
        cfg = KipConfig(4, 1e-6, 0.05, 40, 8)
        a = distill(d, cfg, 0.3, SeededRng(9, 7))
        b = distill(d, cfg, 0.3, SeededRng(9, 7))
        assert np.array_equal(a.data.features, b.data.features)
        assert a.loss_trace == b.loss_trace

    def test_support_larger_than_data_rejected(self):
        d = blob_dataset(n=3)
        with pytest.raises(CapacityError):
            distill(d, KipConfig(5, 1e-6, 0.05, 5, 2), 0.3, SeededRng(0, 0))

    def test_class_with_fewer_rows_than_its_support_slots(self):
        # class 1 has one row but gets three support slots, so its starting
        # support rows repeat (drawn with replacement)
        gen = SeededRng(6, 0).generator()
        x = gen.standard_normal((9, 4))
        d = LabeledDataset(x, one_hot([0] * 8 + [1], 2), 2)
        before = d.features.copy()
        ds = distill(d, KipConfig(6, 1e-6, 0.05, 30, 5), rbf_gamma(x), SeededRng(6, 1))
        assert np.all(np.isfinite(ds.data.features))
        assert np.isfinite(ds.final_loss)
        assert np.array_equal(d.features, before)
        assert not np.shares_memory(ds.data.features, d.features)

    def test_empty_dataset_rejected(self):
        d = LabeledDataset(np.zeros((0, 2)), np.zeros((0, 2)), 2)
        with pytest.raises(EmptyInputError):
            distill(d, KipConfig(1, 1e-6, 0.05, 1, 1), 0.3, SeededRng(0, 0))

    def test_divergence_is_a_domain_error_without_warnings(self):
        # two steps leave the support finite but too large to square
        d = blob_dataset(n=20, dim=8)
        cfg = KipConfig(2, 1e-6, 1e200, 2, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="distillation diverged"):
                distill(d, cfg, rbf_gamma(d.features), SeededRng(0, 5))
