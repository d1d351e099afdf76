"""Multilayer perceptron: forward, backward, SGD, local training.

The backward pass is checked against central finite differences. Instances
whose hidden preactivations sit within 1e-3 of a ReLU kink are redrawn, since
the numeric quotient is meaningless across the kink.
"""

import numpy as np
import pytest

from hfldd.datagen import LabeledDataset, one_hot
from hfldd.errors import DomainError, EmptyInputError, ShapeError
from hfldd.model import (
    MlpModel,
    SgdConfig,
    accuracy,
    backward,
    cross_entropy,
    dataset_loss,
    forward,
    init_mlp,
    iter_batches,
    local_train,
    sgd_step,
    soft_labels,
    _layers,
)
from hfldd.numkernel import SeededRng


def small_dataset(seed=0, n=12, dim=5, classes=3):
    gen = SeededRng(seed, 0).generator()
    x = gen.standard_normal((n, dim))
    y = one_hot(gen.integers(0, classes, size=n), classes)
    return LabeledDataset(x, y, classes)


class TestInit:
    def test_sizes_and_counts(self):
        m = init_mlp((4, 8, 3), SeededRng(0))
        assert m.sizes == (4, 8, 3)
        # 4*8 + 8 + 8*3 + 3 = 32 + 8 + 24 + 3
        assert m.parameter_count() == 67

    def test_glorot_bounds_and_zero_biases(self):
        m = init_mlp((10, 6, 2), SeededRng(1))
        limit = np.sqrt(6.0 / 16)
        layers = _layers(m.sizes, m.params)
        assert np.all(np.abs(layers[0][0]) <= limit)
        assert all(np.array_equal(b, np.zeros_like(b)) for _, b in layers)

    def test_deterministic(self):
        a = init_mlp((3, 4, 2), SeededRng(9))
        b = init_mlp((3, 4, 2), SeededRng(9))
        assert np.array_equal(a.params, b.params)

    def test_params_must_match_sizes(self):
        with pytest.raises(ShapeError):
            MlpModel((2, 2), np.ones(5))

    def test_bad_sizes(self):
        with pytest.raises(DomainError):
            init_mlp((4,), SeededRng(0))
        with pytest.raises(DomainError):
            init_mlp((4, 0, 2), SeededRng(0))


class TestEquality:
    def test_models_compare_by_identity(self):
        a = init_mlp((3, 4, 2), SeededRng(9))
        b = init_mlp((3, 4, 2), SeededRng(9))
        assert (a == b) is False
        assert (a == a) is True


class TestForward:
    def test_rows_are_distributions(self):
        m = init_mlp((5, 7, 3), SeededRng(2))
        p = forward(m, SeededRng(3, 0).generator().standard_normal((8, 5)))
        assert p.shape == (8, 3)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p > 0.0)

    def test_zero_model_is_uniform(self):
        m = MlpModel((4, 3), np.zeros(15))
        p = forward(m, np.ones((2, 4)))
        assert np.allclose(p, 1.0 / 3.0, atol=1e-15)

    def test_dim_check(self):
        m = init_mlp((5, 3), SeededRng(0))
        with pytest.raises(ShapeError):
            forward(m, np.ones((2, 4)))


def fd_instance(seed, sizes=(5, 7, 4, 3), n=6, kink_margin=1e-3, attempts=50):
    """Draw (model, x, y) whose ReLU preactivations clear the kink margin."""
    for offset in range(attempts):
        rng = SeededRng(seed, offset)
        m = init_mlp(sizes, rng)
        gen = SeededRng(seed, offset + 1000).generator()
        x = gen.standard_normal((n, sizes[0]))
        y = one_hot(gen.integers(0, sizes[-1], size=n), sizes[-1])
        h = x
        clear = True
        for w, b in _layers(m.sizes, m.params)[:-1]:
            z = h @ w + b
            if np.min(np.abs(z)) < kink_margin:
                clear = False
                break
            h = np.maximum(z, 0.0)
        if clear:
            return m, x, y
    raise AssertionError("could not draw a kink-free instance")


def loss_at(m, x, y):
    return cross_entropy(forward(m, x), y)


def max_backward_fd_error(m, x, y, eps=1e-6):
    g = backward(m, x, y)
    worst = 0.0
    for i in range(m.params.size):
        orig = m.params[i]
        m.params[i] = orig + eps
        up = loss_at(m, x, y)
        m.params[i] = orig - eps
        down = loss_at(m, x, y)
        m.params[i] = orig
        numeric = (up - down) / (2 * eps)
        rel = abs(g[i] - numeric) / max(abs(g[i]) + abs(numeric), 1e-3)
        worst = max(worst, rel)
    return worst


class TestBackward:
    def test_matches_finite_differences(self):
        m, x, y = fd_instance(0)
        assert max_backward_fd_error(m, x, y) <= 1e-4

    def test_soft_targets_supported(self):
        m, x, _ = fd_instance(1)
        gen = SeededRng(1, 5).generator()
        y = gen.dirichlet(np.ones(3), size=x.shape[0])
        assert max_backward_fd_error(m, x, y) <= 1e-4

    def test_shape_checks(self):
        m = init_mlp((4, 3), SeededRng(0))
        with pytest.raises(ShapeError):
            backward(m, np.ones((2, 4)), np.ones((3, 3)) / 3)
        with pytest.raises(ShapeError):
            backward(m, np.ones((2, 5)), np.ones((2, 3)) / 3)
        with pytest.raises(ShapeError):
            backward(m, np.ones((2, 4)), np.ones((2, 2)) / 2)


class TestSgdStep:
    def test_hand_update(self):
        m = MlpModel((1, 2), np.array([1.0, 2.0, 3.0, 4.0]))
        out = sgd_step(m, np.array([10.0, 20.0, 30.0, 40.0]), 0.1)
        assert np.allclose(out.params, 0.0, atol=1e-15)

    def test_inputs_untouched(self):
        m = MlpModel((1, 1), np.array([1.0, 2.0]))
        g = np.array([1.0, 1.0])
        sgd_step(m, g, 0.5)
        assert list(m.params) == [1.0, 2.0] and list(g) == [1.0, 1.0]

    def test_shape_mismatch(self):
        m = MlpModel((2, 2), np.ones(6))
        with pytest.raises(ShapeError):
            sgd_step(m, np.ones(8), 0.1)

    def test_benchmark_sized_update_is_exact(self):
        m = init_mlp((1024, 64, 64, 10), SeededRng(3))
        g = SeededRng(3, 1).generator().standard_normal(m.params.shape)
        m_before, g_before = m.params.tobytes(), g.tobytes()
        out = sgd_step(m, g, 0.05)
        assert out.params.tobytes() == (m.params - 0.05 * g).tobytes()
        assert m.params.tobytes() == m_before and g.tobytes() == g_before


class TestIterBatches:
    def test_each_cycle_is_a_permutation(self):
        gen = SeededRng(4, 0).generator()
        batches = iter_batches(10, 3, gen)
        cycle = np.concatenate([next(batches) for _ in range(4)])
        assert sorted(cycle) == list(range(10))
        # sizes: 3, 3, 3, then the 1-row remainder
        assert len(cycle) == 10

    def test_batch_at_least_dataset(self):
        gen = SeededRng(4, 1).generator()
        batches = iter_batches(4, 100, gen)
        assert sorted(next(batches)) == list(range(4))


class TestLocalTrain:
    def test_zero_steps_is_identity(self):
        d = small_dataset()
        m = init_mlp((5, 4, 3), SeededRng(5))
        out = local_train(m, d, SgdConfig(0.1, 4, 0), SeededRng(5, 1))
        assert out is m

    def test_deterministic_and_pure(self):
        d = small_dataset()
        m = init_mlp((5, 4, 3), SeededRng(5))
        before = m.params.copy()
        a = local_train(m, d, SgdConfig(0.1, 4, 6), SeededRng(5, 1))
        b = local_train(m, d, SgdConfig(0.1, 4, 6), SeededRng(5, 1))
        assert np.array_equal(a.params, b.params)
        assert np.array_equal(m.params, before)
        assert not np.array_equal(a.params, before)

    def test_training_reduces_loss(self):
        d = small_dataset(seed=2, n=60)
        m = init_mlp((5, 8, 3), SeededRng(6))
        out = local_train(m, d, SgdConfig(0.2, 10, 120), SeededRng(6, 1))
        assert dataset_loss(out, d) < dataset_loss(m, d)

    def test_empty_dataset_rejected(self):
        d = LabeledDataset(np.zeros((0, 5)), np.zeros((0, 3)), 3)
        m = init_mlp((5, 3), SeededRng(0))
        with pytest.raises(EmptyInputError):
            local_train(m, d, SgdConfig(0.1, 4, 1), SeededRng(0, 1))

    @pytest.mark.parametrize("mu", [-0.1, float("nan"), float("inf")])
    def test_bad_mu_rejected(self, mu):
        d = small_dataset()
        m = init_mlp((5, 4, 3), SeededRng(5))
        with pytest.raises(DomainError):
            local_train(m, d, SgdConfig(0.1, 4, 1), SeededRng(5, 1), mu)

    def test_matches_backward_then_sgd_step_loop(self):
        d = small_dataset(seed=3, n=30)
        m = init_mlp((5, 7, 6, 3), SeededRng(4))
        before = m.params.tobytes()
        cfg = SgdConfig(0.3, 7, 25)
        out = local_train(m, d, cfg, SeededRng(4, 1))
        batches = iter_batches(d.n_rows(), cfg.batch_size, SeededRng(4, 1).generator())
        ref = m
        for _ in range(cfg.steps):
            idx = next(batches)
            ref = sgd_step(ref, backward(ref, d.features[idx], d.labels[idx]), cfg.learning_rate)
        assert out.params.tobytes() == ref.params.tobytes()
        assert m.params.tobytes() == before
        assert not np.shares_memory(out.params, m.params)


class TestSgdConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(learning_rate=0.0, batch_size=1, steps=1),
            dict(learning_rate=0.1, batch_size=0, steps=1),
            dict(learning_rate=0.1, batch_size=1, steps=-1),
            dict(learning_rate=float("nan"), batch_size=1, steps=1),
            dict(learning_rate=float("inf"), batch_size=1, steps=1),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(DomainError):
            SgdConfig(**kw)


class TestSoftLabels:
    def test_clamped_distributions(self):
        d = small_dataset()
        m = init_mlp((5, 4, 3), SeededRng(7))
        s = soft_labels(m, d)
        assert s.shape == (d.n_rows(), 3)
        assert np.all(s >= 1e-12)
        assert np.max(np.abs(s.sum(axis=1) - 1.0)) <= 1e-9

    def test_empty_probe_rejected(self):
        m = init_mlp((5, 3), SeededRng(0))
        with pytest.raises(EmptyInputError):
            soft_labels(m, LabeledDataset(np.zeros((0, 5)), np.zeros((0, 3)), 3))


class TestLossAndAccuracy:
    def test_cross_entropy_hand_value(self):
        # -(ln 0.5 + ln 0.75) / 2
        probs = [[0.5, 0.5], [0.25, 0.75]]
        y = [[1.0, 0.0], [0.0, 1.0]]
        expected = -(np.log(0.5) + np.log(0.75)) / 2
        assert cross_entropy(probs, y) == pytest.approx(expected, abs=1e-15)

    def test_cross_entropy_shape_check(self):
        with pytest.raises(ShapeError):
            cross_entropy(np.ones((2, 3)) / 3, np.ones((2, 2)) / 2)

    def test_accuracy_hand_value(self):
        d = LabeledDataset(np.eye(3), one_hot([0, 1, 2], 3), 3)
        m = MlpModel((3, 3), np.concatenate([np.eye(3).ravel() * 5.0, np.zeros(3)]))
        assert accuracy(m, d) == 1.0
        wrong = MlpModel((3, 3), np.concatenate([-np.eye(3).ravel() * 5.0, np.zeros(3)]))
        assert accuracy(wrong, d) < 1.0
