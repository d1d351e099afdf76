"""Small multilayer perceptron with explicit forward/backward passes.

ReLU hidden layers, softmax output, mean cross-entropy against one-hot or
soft probability targets. Models are value-semantic: operations return new
models and never mutate their inputs, so a model can be shared freely across
simulated clients. `local_train` copies the parameters once on entry and then
updates its own copy in place, step by step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyInputError, ShapeError
from .numkernel import SeededRng, as_matrix

SOFT_LABEL_FLOOR = 1e-12


@dataclass
class SgdConfig:
    """Plain SGD schedule: constant learning rate, fixed number of updates."""

    learning_rate: float
    batch_size: int
    steps: int

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise DomainError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.steps < 0:
            raise DomainError(f"steps must be nonnegative, got {self.steps}")


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
        self.sizes = tuple(int(s) for s in self.sizes)
        self.params = np.asarray(self.params, dtype=np.float64)
        count = _param_count(self.sizes)
        if self.params.shape != (count,):
            raise ShapeError(f"sizes {self.sizes} need {count} parameters, got {self.params.shape}")

    def parameter_count(self) -> int:
        return self.params.size


def _param_count(sizes) -> int:
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))


def _layers(sizes, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views into a flat vector laid out like MlpModel.params."""
    out = []
    offset = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        out.append((w, flat[offset : offset + fan_out]))
        offset += fan_out
    return out


def init_mlp(layer_sizes, rng: SeededRng) -> MlpModel:
    """Uniform Glorot weight init in +-sqrt(6/(fan_in+fan_out)); zero biases."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise DomainError(f"layer sizes must be >= 1 with >= 2 layers, got {sizes}")
    gen = rng.generator()
    parts = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        parts.append(gen.uniform(-limit, limit, size=fan_in * fan_out))
        parts.append(np.zeros(fan_out))
    return MlpModel(sizes, np.concatenate(parts))


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _forward_cached(layers, x: np.ndarray):
    """Forward pass keeping layer activations for backprop."""
    acts = [x]
    h = x
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = h @ w + b
        h = _softmax(z) if i == last else np.maximum(z, 0.0)
        acts.append(h)
    return acts


def forward(m: MlpModel, x) -> np.ndarray:
    """Softmax class probabilities for each row of x."""
    x = as_matrix(x, "x")
    if x.shape[1] != m.sizes[0]:
        raise ShapeError(f"input dim {x.shape[1]} != model input {m.sizes[0]}")
    return _forward_cached(_layers(m.sizes, m.params), x)[-1]


def backward(m: MlpModel, x, y) -> np.ndarray:
    """Gradient of mean cross-entropy over the batch, laid out like m.params."""
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    if x.shape[0] != y.shape[0]:
        raise ShapeError(f"x has {x.shape[0]} rows, y has {y.shape[0]}")
    if x.shape[1] != m.sizes[0]:
        raise ShapeError(f"input dim {x.shape[1]} != model input {m.sizes[0]}")
    if y.shape[1] != m.sizes[-1]:
        raise ShapeError(f"target dim {y.shape[1]} != model output {m.sizes[-1]}")
    layers = _layers(m.sizes, m.params)
    acts = _forward_cached(layers, x)
    delta = (acts[-1] - y) / x.shape[0]
    g = np.empty_like(m.params)
    grads = _layers(m.sizes, g)
    for i in range(len(layers) - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=grads[i][0])
        np.sum(delta, axis=0, out=grads[i][1])
        if i > 0:
            delta = (delta @ layers[i][0].T) * (acts[i] > 0.0)
    return g


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
    while True:
        perm = gen.permutation(n_rows)
        for start in range(0, n_rows, batch_size):
            yield perm[start : start + batch_size]


def local_train(m: MlpModel, d, cfg: SgdConfig, rng: SeededRng, mu: float = 0.0) -> MlpModel:
    """Run cfg.steps mini-batch SGD updates on dataset d; pure in all inputs.

    This is the one local training loop of every algorithm. With mu > 0 each
    gradient gains FedProx's proximal pull mu * (params - m.params) toward the
    starting model; mu == 0 skips the term, so the update is plain SGD.

    The parameters are copied once, then each step updates the copy in place
    with the same arithmetic as `sgd_step` (the pull goes through one reused
    buffer), so the result is bit-identical to chaining `sgd_step`.
    """
    if not 0 <= mu < math.inf:
        raise DomainError(f"mu must be finite and nonnegative, got {mu}")
    if d.n_rows() == 0:
        raise EmptyInputError("cannot train on an empty dataset")
    if cfg.steps == 0:
        return m
    gen = rng.generator()
    batches = iter_batches(d.n_rows(), cfg.batch_size, gen)
    out = MlpModel(m.sizes, m.params.copy())
    pull = np.empty_like(out.params) if mu else None
    for _ in range(cfg.steps):
        idx = next(batches)
        g = backward(out, d.features[idx], d.labels[idx])
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
    if dg.n_rows() == 0:
        raise EmptyInputError("probe dataset is empty")
    p = forward(m, dg.features)
    return np.clip(p, SOFT_LABEL_FLOOR, 1.0)


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
    if d.n_rows() == 0:
        raise EmptyInputError("cannot evaluate on an empty dataset")
    pred = np.argmax(forward(m, d.features), axis=1)
    truth = np.argmax(d.labels, axis=1)
    return float(np.mean(pred == truth))
