"""Metamorphic properties: a transformed input gives a predictably
transformed output, with no second code path to compare against.

- Permuting the clients permutes `build_similarity`'s matrix the same way,
  bit for bit: entry (i, j) depends only on clients i and j.
- Scaling every feature by 2^k scales `rbf_gamma` by 2^(-2k), bit for bit,
  on data whose variance stays above the 1e-12 floor before and after:
  a power-of-two scale is exact in every step of the variance and of the
  division.
- Translating a member's rows by c * u (|u| = 1) translates its distilled
  support by c * u, with the same gamma and stream: the RBF kernel sees
  rows only through their distances. This one does not hold yet, and is
  marked as a strict expected failure.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hfldd.datagen import LabeledDataset, one_hot
from hfldd.distill import KipConfig, distill
from hfldd.model import SOFT_LABEL_FLOOR
from hfldd.numkernel import SeededRng, rbf_gamma
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


TRANSLATION_KIP = KipConfig(8, 1e-6, 0.05, 50, 10)
EPS = np.finfo(np.float64).eps


@pytest.mark.xfail(
    strict=True,
    reason="distill computes distances in Gram form, |a|^2 + |b|^2 - 2ab, whose rounding "
    "grows with the squared distance from the origin, not with the rows' spread. On 40x64 "
    "unit-variance rows in 3 classes (one draw) the shifted support was off by "
    "2.8e-14 at c = 1e2, 1.3e-10 at 1e4, 1.0e-6 at 1e6, 1.6e-4 at 1e7 and 2.68 at 1e8. "
    "Centring the member's rows before every Gram product removes this mark.",
)
@given(
    seed=st.integers(0, 2**32 - 1),
    log10_c=st.floats(-3, 8),
    negative=st.booleans(),
)
@example(seed=0, log10_c=8.0, negative=False)
@PROPERTY
def test_translating_a_members_rows_translates_its_support(seed, log10_c, negative):
    # The tolerance: the shift itself rounds each entry by eps * |c|, and
    # the rows' own geometry is known to eps * spread, where spread is the
    # root mean feature variance that sets gamma. 1e3 covers 50 KIP steps'
    # growth of those errors: distilling the centred rows and adding their
    # mean back stayed below 150 eps (|c| + spread) in 150 such draws.
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((40, 64))
    labels = one_hot(np.arange(40) % 3, 3)
    u = gen.standard_normal(64)
    u /= np.linalg.norm(u)
    c = (-1.0 if negative else 1.0) * 10.0**log10_c
    gamma = rbf_gamma(x)

    def support(rows):
        d = LabeledDataset(rows, labels, 3)
        return distill(d, TRANSLATION_KIP, gamma, SeededRng(seed, 1)).data.features

    spread = np.sqrt(np.mean(np.var(x, axis=0)))
    err = np.abs(support(x + c * u) - c * u - support(x)).max()
    assert err <= 1e3 * EPS * (abs(c) + spread)
