"""Metamorphic properties: a transformed input gives a predictably
transformed output, with no second code path to compare against.

- Permuting the clients permutes `build_similarity`'s matrix the same way,
  bit for bit: entry (i, j) depends only on clients i and j.
- Scaling every feature by 2^k scales `rbf_gamma` by 2^(-2k), bit for bit,
  on data whose variance stays above the 1e-12 floor before and after:
  a power-of-two scale is exact in every step of the variance and of the
  division.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hfldd.model import SOFT_LABEL_FLOOR
from hfldd.numkernel import rbf_gamma
from hfldd.topology import build_similarity

PROPERTY = settings(max_examples=200, deadline=None)


def soft_labels(gen, rows, classes, sharpness):
    """Softmax rows clamped at the floor, as `model.soft_labels` makes them."""
    logits = sharpness * gen.standard_normal((rows, classes))
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    return np.clip(p, SOFT_LABEL_FLOOR, 1.0)


@st.composite
def clients_and_order(draw):
    n = draw(st.integers(2, 8))
    rows, classes = draw(st.integers(1, 6)), draw(st.integers(2, 5))
    sharpness = draw(st.sampled_from([0.1, 1.0, 10.0, 100.0]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    soft = [soft_labels(gen, rows, classes, sharpness) for _ in range(n)]
    return soft, draw(st.permutations(range(n)))


@given(case=clients_and_order())
@PROPERTY
def test_permuting_clients_permutes_the_similarity(case):
    soft, order = case
    m = build_similarity(soft)
    permuted = build_similarity([soft[i] for i in order])
    assert np.array_equal(permuted, m[np.ix_(order, order)])


@given(
    rows=st.integers(2, 12),
    dim=st.integers(1, 8),
    log2_scale=st.integers(-10, 10),
    log2_offset=st.integers(-10, 10),
    k=st.integers(-20, 20),
    seed=st.integers(0, 2**32 - 1),
)
@PROPERTY
def test_power_of_two_scale_scales_gamma_by_its_inverse_square(
    rows, dim, log2_scale, log2_offset, k, seed
):
    gen = np.random.default_rng(seed)
    x = 2.0**log2_offset * gen.standard_normal(dim) + 2.0**log2_scale * gen.standard_normal((rows, dim))
    var = float(np.mean(np.var(x, axis=0)))
    assume(min(var, var * 4.0**k) > 1e-12)
    assert rbf_gamma(x * 2.0**k) == rbf_gamma(x) * 2.0 ** (-2 * k)
