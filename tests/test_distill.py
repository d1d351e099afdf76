"""Kernel-inducing-point distillation: loss, analytic gradient, optimizer."""

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
from hfldd.errors import CapacityError, DomainError, EmptyInputError
from hfldd.numkernel import SeededRng, rbf_gamma


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
            dict(support_size=0, ridge_lambda=1e-6, learning_rate=0.01, iterations=1, target_batch=1, seed=0),
            dict(support_size=1, ridge_lambda=0.0, learning_rate=0.01, iterations=1, target_batch=1, seed=0),
            dict(support_size=1, ridge_lambda=1e-6, learning_rate=0.0, iterations=1, target_batch=1, seed=0),
            dict(support_size=1, ridge_lambda=1e-6, learning_rate=0.01, iterations=-1, target_batch=1, seed=0),
            dict(support_size=1, ridge_lambda=1e-6, learning_rate=0.01, iterations=1, target_batch=0, seed=0),
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


class TestKipGradient:
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


class TestDistill:
    def test_shapes_and_trace_contract(self):
        d = blob_dataset()
        cfg = KipConfig(6, 1e-6, 0.05, 250, 8, 0)
        ds = distill(d, cfg, rbf_gamma(d.features), SeededRng(0, 1))
        assert ds.support_x.shape == (6, d.dim())
        assert ds.support_y.shape == (6, d.class_count)
        # records: initial, iteration 100, iteration 200, final
        assert len(ds.loss_trace) == 4
        assert ds.loss_trace[-1] == ds.final_loss

    def test_trace_skips_duplicate_final_record(self):
        d = blob_dataset()
        cfg = KipConfig(4, 1e-6, 0.05, 100, 8, 0)
        ds = distill(d, cfg, rbf_gamma(d.features), SeededRng(0, 2))
        assert len(ds.loss_trace) == 2

    def test_zero_iterations_returns_subsample(self):
        d = blob_dataset()
        cfg = KipConfig(4, 1e-6, 0.05, 0, 8, 0)
        ds = distill(d, cfg, rbf_gamma(d.features), SeededRng(0, 3))
        assert len(ds.loss_trace) == 1
        assert ds.final_loss == ds.loss_trace[0]
        # starting support rows are drawn from the dataset itself
        for row in ds.support_x:
            assert np.any(np.all(np.isclose(d.features, row, atol=0), axis=1))

    def test_labels_fixed_and_balanced(self):
        d = blob_dataset()
        cfg = KipConfig(6, 1e-6, 0.05, 50, 8, 0)
        ds = distill(d, cfg, rbf_gamma(d.features), SeededRng(0, 4))
        assert np.array_equal(ds.support_y.sum(axis=0), [3, 3])

    def test_optimization_improves_full_data_loss(self):
        d = blob_dataset(seed=5, n=60)
        cfg = KipConfig(4, 1e-6, 0.05, 300, 10, 5)
        ds = distill(d, cfg, rbf_gamma(d.features), SeededRng(5, 1))
        assert ds.loss_trace[-1] <= ds.loss_trace[0]

    def test_deterministic(self):
        d = blob_dataset()
        cfg = KipConfig(4, 1e-6, 0.05, 40, 8, 0)
        a = distill(d, cfg, 0.3, SeededRng(9, 7))
        b = distill(d, cfg, 0.3, SeededRng(9, 7))
        assert np.array_equal(a.support_x, b.support_x)
        assert a.loss_trace == b.loss_trace

    def test_default_stream_comes_from_config_seed(self):
        d = blob_dataset()
        cfg = KipConfig(4, 1e-6, 0.05, 10, 8, 21)
        a = distill(d, cfg, 0.3)
        b = distill(d, cfg, 0.3, SeededRng(21, 5 << 48))
        assert np.array_equal(a.support_x, b.support_x)

    def test_support_larger_than_data_rejected(self):
        d = blob_dataset(n=3)
        with pytest.raises(CapacityError):
            distill(d, KipConfig(5, 1e-6, 0.05, 5, 2, 0), 0.3, SeededRng(0, 0))

    def test_empty_dataset_rejected(self):
        d = LabeledDataset(np.zeros((0, 2)), np.zeros((0, 2)), 2)
        with pytest.raises(EmptyInputError):
            distill(d, KipConfig(1, 1e-6, 0.05, 1, 1, 0), 0.3, SeededRng(0, 0))
