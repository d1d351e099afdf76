"""Small multilayer perceptron with explicit forward/backward passes.

ReLU hidden layers, softmax output, mean cross-entropy against one-hot or
soft probability targets. Models are value-semantic: operations return new
models and never mutate their inputs, so a model can be shared freely across
simulated clients. `local_train` copies the parameters once on entry and then
updates its own copy in place, step by step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, ShapeError
from .numkernel import SeededRng, as_matrix, check_count, check_real

SOFT_LABEL_FLOOR = 1e-12


@dataclass
class SgdConfig:
    """Plain SGD schedule: constant learning rate, fixed number of updates."""

    learning_rate: float
    batch_size: int
    steps: int

    def __post_init__(self):
        check_real("learning_rate", self.learning_rate, above=0)
        check_count("batch_size", self.batch_size, 1)
        check_count("steps", self.steps)


@dataclass(eq=False)
class MlpModel:
    """Layer sizes plus every parameter in one float64 vector.

    Layers are laid out in order, each as its weight matrix (fan_in x
    fan_out, row-major) followed by its bias vector. Models compare by
    identity; compare `params` to compare values.
    """

    sizes: tuple[int, ...]
    params: np.ndarray

    def __post_init__(self):
        # a row-span model's input width is its rank, which can be 0
        self.sizes = tuple(check_count("sizes", s) for s in self.sizes)
        self.params = np.asarray(self.params, dtype=np.float64)
        count = _layout(self.sizes)[1]
        if self.params.shape != (count,):
            raise ShapeError(f"sizes {self.sizes} need {count} parameters, got {self.params.shape}")

    def parameter_count(self) -> int:
        return self.params.size


@lru_cache(maxsize=256)
def _layout(sizes: tuple[int, ...]):
    """(each layer's (weight slice, weight shape, bias slice), the parameter
    count) of a flat vector laid out like MlpModel.params. Bounded, because a
    row-span model's input width is its data's rank, which varies."""
    layers, offset = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = slice(offset, offset + fan_in * fan_out)
        offset = w.stop + fan_out
        layers.append((w, (fan_in, fan_out), slice(w.stop, offset)))
    return tuple(layers), offset


def _layers(sizes, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views into a flat vector laid out like MlpModel.params."""
    return [(flat[w].reshape(shape), flat[b]) for w, shape, b in _layout(sizes)[0]]


def init_mlp(layer_sizes, rng: SeededRng) -> MlpModel:
    """Uniform Glorot weight init in +-sqrt(6/(fan_in+fan_out)); zero biases."""
    sizes = tuple(check_count("layer_sizes", s, 1) for s in layer_sizes)
    if len(sizes) < 2:
        raise DomainError(f"layer_sizes must hold >= 2 layers, got {sizes}")
    gen = rng.generator()
    layers, count = _layout(sizes)
    params = np.zeros(count)
    for w, (fan_in, fan_out), _ in layers:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        params[w] = gen.uniform(-limit, limit, size=fan_in * fan_out)
    return MlpModel(sizes, params)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row softmax of z, computed in place; returns z."""
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def _forward_cached(layers, x: np.ndarray):
    """Forward pass keeping layer activations for backprop.

    Each layer's pre-activation is one fresh array that the activation then
    overwrites, so a layer allocates once.
    """
    acts = [x]
    h = x
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        h = h @ w
        h += b
        if i == last:
            _softmax(h)
        else:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts


def forward(m: MlpModel, x) -> np.ndarray:
    """Softmax class probabilities for each row of x."""
    x = as_matrix(x, "x")
    if x.shape[1] != m.sizes[0]:
        raise ShapeError(f"input dim {x.shape[1]} != model input {m.sizes[0]}")
    return _forward_cached(_layers(m.sizes, m.params), x)[-1]


def _check_gradient_buffer(m: MlpModel, out) -> None:
    if not (
        isinstance(out, np.ndarray)
        and out.dtype == np.float64
        and out.shape == m.params.shape
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise ShapeError(
            f"out must be a writeable C-contiguous float64 vector of shape {m.params.shape}"
        )
    if np.may_share_memory(out, m.params):
        raise ShapeError("out must not share memory with the model's parameters")


def backward(m: MlpModel, x, y, out: np.ndarray | None = None) -> np.ndarray:
    """Gradient of mean cross-entropy over the batch, laid out like m.params.

    The gradient is written into `out` when given (a float64 C-contiguous
    vector shaped like m.params and not sharing its memory), else into a new
    vector; the vector is returned.
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    if x.shape[0] != y.shape[0]:
        raise ShapeError(f"x has {x.shape[0]} rows, y has {y.shape[0]}")
    if x.shape[1] != m.sizes[0]:
        raise ShapeError(f"input dim {x.shape[1]} != model input {m.sizes[0]}")
    if y.shape[1] != m.sizes[-1]:
        raise ShapeError(f"target dim {y.shape[1]} != model output {m.sizes[-1]}")
    if out is None:
        out = np.empty_like(m.params)
    else:
        _check_gradient_buffer(m, out)
    layers = _layers(m.sizes, m.params)
    acts = _forward_cached(layers, x)
    delta = acts[-1]
    delta -= y
    delta /= x.shape[0]
    grads = _layers(m.sizes, out)
    for i in range(len(layers) - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=grads[i][0])
        delta.sum(axis=0, out=grads[i][1])
        if i > 0:
            delta = delta @ layers[i][0].T
            delta *= acts[i] > 0.0
    return out


def sgd_step(m: MlpModel, g: np.ndarray, eta: float) -> MlpModel:
    """One gradient descent update; returns a new model."""
    if np.shape(g) != m.params.shape:
        raise ShapeError(f"gradient shape {np.shape(g)} != parameter shape {m.params.shape}")
    t = g * -eta
    t += m.params
    return MlpModel(m.sizes, t)


def iter_batches(n_rows: int, batch_size: int, gen: np.random.Generator):
    """Yield index batches without replacement per cycle, reshuffling each cycle.

    The final batch of a cycle may be short; nothing is dropped. The generator
    is infinite, so callers take exactly as many batches as they need.
    """
    check_count("n_rows", n_rows, 1)
    check_count("batch_size", batch_size, 1)
    while True:
        perm = gen.permutation(n_rows)
        for start in range(0, n_rows, batch_size):
            yield perm[start : start + batch_size]


def local_train(m: MlpModel, d, cfg: SgdConfig, rng: SeededRng, mu: float = 0.0) -> MlpModel:
    """Run cfg.steps mini-batch SGD updates on dataset d; pure in all inputs.

    This is the one local training loop of every algorithm. With mu > 0 each
    gradient gains FedProx's proximal pull mu * (params - m.params) toward the
    starting model; mu == 0 skips the term, so the update is plain SGD.

    The parameters are copied once, then each step writes its gradient into
    one reused buffer and updates the copy in place with the same arithmetic
    as `sgd_step` (the pull goes through a second buffer), so the result is
    bit-identical to chaining `backward` and `sgd_step`.
    """
    check_real("mu", mu, 0)
    if cfg.steps == 0:
        return m
    gen = rng.generator()
    batches = iter_batches(d.n_rows(), cfg.batch_size, gen)
    out = MlpModel(m.sizes, m.params.copy())
    g = np.empty_like(out.params)
    pull = np.empty_like(out.params) if mu else None
    for _ in range(cfg.steps):
        idx = next(batches)
        backward(out, d.features[idx], d.labels[idx], out=g)
        if mu:
            np.subtract(out.params, m.params, out=pull)
            pull *= mu
            g += pull
        g *= -cfg.learning_rate
        out.params += g
    return out


def soft_labels(m: MlpModel, dg) -> np.ndarray:
    """Class probabilities on every probe row, clamped to [1e-12, 1].

    Clamping happens after the softmax and is not renormalized; row sums stay
    within 1e-9 of one, which downstream divergence code relies on.
    """
    p = forward(m, dg.features)
    return np.clip(p, SOFT_LABEL_FLOOR, 1.0, out=p)


def cross_entropy(probs, y) -> float:
    """Mean cross-entropy of predicted probabilities against target rows."""
    probs = as_matrix(probs, "probs")
    y = as_matrix(y, "y")
    if probs.shape != y.shape:
        raise ShapeError(f"probs shape {probs.shape} != targets shape {y.shape}")
    p = np.clip(probs, SOFT_LABEL_FLOOR, 1.0)
    return float(-(y * np.log(p)).sum() / probs.shape[0])


def dataset_loss(m: MlpModel, d) -> float:
    return cross_entropy(forward(m, d.features), d.labels)


def accuracy(m: MlpModel, d) -> float:
    """Top-1 accuracy against the argmax of the label rows."""
    if d.labels.shape[1] != m.sizes[-1]:
        raise ShapeError(f"label dim {d.labels.shape[1]} != model output {m.sizes[-1]}")
    pred = np.argmax(forward(m, d.features), axis=1)
    truth = np.argmax(d.labels, axis=1)
    return float(np.mean(pred == truth))
