"""Soft-label similarity, K-Means grouping, cluster sampling, head election."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfldd import topology
from hfldd.errors import CapacityError, DomainError, EmptyInputError, ShapeError
from hfldd.numkernel import SeededRng
from hfldd.topology import (
    ClusterTopology,
    SimilarityMatrix,
    build_similarity,
    build_topology,
    cluster_sampling,
    elect_heads,
    kl_divergence,
    kmeans_rows,
)


def stochastic_rows(gen, rows, cols, floor=1e-6):
    m = gen.dirichlet(np.ones(cols), size=rows)
    m = np.clip(m, floor, None)
    return m / m.sum(axis=1, keepdims=True)


class TestKlDivergence:
    def test_hand_value_single_row(self):
        # 0.5 ln 2 + 0.5 ln(2/3) = 0.5 ln(4/3)
        val = kl_divergence([[0.5, 0.5]], [[0.25, 0.75]])
        assert val == pytest.approx(0.5 * np.log(4.0 / 3.0), abs=1e-15)

    def test_hand_value_row_average(self):
        si = [[0.5, 0.5], [0.9, 0.1]]
        sj = [[0.25, 0.75], [0.9, 0.1]]
        assert kl_divergence(si, sj) == pytest.approx(0.25 * np.log(4.0 / 3.0), abs=1e-15)

    def test_self_divergence_zero(self):
        s = [[0.3, 0.7], [0.6, 0.4]]
        assert kl_divergence(s, s) == 0.0

    def test_asymmetric(self):
        a, b = [[0.5, 0.5]], [[0.25, 0.75]]
        assert kl_divergence(a, b) != kl_divergence(b, a)

    def test_shape_check(self):
        with pytest.raises(ShapeError):
            kl_divergence(np.ones((1, 2)) / 2, np.ones((2, 2)) / 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_to_allocating_form_and_pure(self, seed):
        # the crowd-250 shape: 100 probe rows x 10 classes, clamped at 1e-12
        gen = SeededRng(seed, 0).generator()
        si = stochastic_rows(gen, 100, 10, floor=1e-12)
        sj = stochastic_rows(gen, 100, 10, floor=1e-12)
        si[0] = sj[0]
        before = (si.tobytes(), sj.tobytes())
        for a, b in ((si, sj), (sj, si), (si, si)):
            expected = max(float(np.sum(a * np.log(a / b)) / a.shape[0]), 0.0)
            assert kl_divergence(a, b) == expected
        assert (si.tobytes(), sj.tobytes()) == before

    @given(st.integers(0, 100_000))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, seed):
        gen = SeededRng(seed, 0).generator()
        si = stochastic_rows(gen, 4, 3)
        sj = stochastic_rows(gen, 4, 3)
        assert kl_divergence(si, sj) >= 0.0


class TestSimilarityMatrix:
    def test_validation(self):
        with pytest.raises(DomainError):
            SimilarityMatrix(np.array([[1.0, 0.5], [0.5, 0.0]]))
        with pytest.raises(DomainError):
            SimilarityMatrix(np.array([[0.0, -0.5], [0.5, 0.0]]))
        with pytest.raises(ShapeError):
            SimilarityMatrix(np.zeros((2, 3)))

    def test_build_has_zero_diagonal(self):
        gen = SeededRng(1, 0).generator()
        soft = [stochastic_rows(gen, 5, 3) for _ in range(4)]
        sim = build_similarity(soft)
        assert sim.n_clients() == 4
        assert np.array_equal(np.diag(sim.m), np.zeros(4))
        assert np.all(sim.m >= 0.0)

    def test_build_not_symmetrized(self):
        a = np.array([[0.5, 0.5]])
        b = np.array([[0.25, 0.75]])
        sim = build_similarity([a, b])
        assert sim.m[0, 1] != sim.m[1, 0]

    def test_build_input_checks(self):
        with pytest.raises(DomainError):
            build_similarity([np.ones((2, 2)) / 2])
        with pytest.raises(ShapeError):
            build_similarity([np.ones((2, 2)) / 2, np.ones((3, 2)) / 2])


def blocky_similarity(groups, gap=10.0, jitter=0.01, seed=0):
    """Similarity matrix with small divergences inside groups, large across."""
    n = sum(len(g) for g in groups)
    gen = SeededRng(seed, 0).generator()
    m = np.full((n, n), gap) + gen.uniform(0, jitter, size=(n, n))
    for g in groups:
        for i in g:
            for j in g:
                m[i, j] = 0.0 if i == j else jitter * (1 + gen.uniform())
    np.fill_diagonal(m, 0.0)
    return SimilarityMatrix(m)


class TestKmeansRows:
    def test_recovers_separated_groups(self):
        groups = [(0, 1, 2), (3, 4), (5, 6, 7, 8)]
        sim = blocky_similarity(groups)
        clusters = kmeans_rows(sim, 3, SeededRng(0, 1))
        assert sorted(tuple(sorted(c)) for c in clusters) == sorted(groups)

    def test_partition_properties(self):
        gen = SeededRng(2, 0).generator()
        soft = [stochastic_rows(gen, 4, 3) for _ in range(9)]
        clusters = kmeans_rows(build_similarity(soft), 4, SeededRng(2, 1))
        members = [i for c in clusters for i in c]
        assert sorted(members) == list(range(9))
        assert all(len(c) >= 1 for c in clusters)
        assert len(clusters) == 4

    def test_deterministic(self):
        sim = blocky_similarity([(0, 1, 2), (3, 4, 5)])
        a = kmeans_rows(sim, 2, SeededRng(7, 0))
        b = kmeans_rows(sim, 2, SeededRng(7, 0))
        assert a == b

    @pytest.mark.parametrize("n, k", [(250, 10), (20, 10), (37, 5), (7, 3), (120, 2)])
    def test_lloyd_matches_the_broadcast_distance_form(self, monkeypatch, n, k):
        # distances one center at a time keep every bit of the (n, k, n)
        # broadcast form, so the labels and the objective trace are equal
        def broadcast(points, centers):
            return ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)

        for draw in range(5):
            points = np.random.default_rng([n, k, draw]).exponential(size=(n, n))
            np.fill_diagonal(points, 0.0)
            got = topology._lloyd(points, k, np.random.default_rng(draw), 100)
            with monkeypatch.context() as m:
                m.setattr(topology, "_sq_distances", broadcast)
                want = topology._lloyd(points, k, np.random.default_rng(draw), 100)
            assert np.array_equal(got[0], want[0])
            assert got[1] == want[1]
            centers = points[:k]
            assert np.array_equal(topology._sq_distances(points, centers), broadcast(points, centers))

    def test_k_bounds(self):
        sim = blocky_similarity([(0, 1), (2, 3)])
        with pytest.raises(CapacityError):
            kmeans_rows(sim, 5, SeededRng(0, 0))
        with pytest.raises(DomainError):
            kmeans_rows(sim, 1, SeededRng(0, 0))
        with pytest.raises(DomainError):
            kmeans_rows(sim, 2, SeededRng(0, 0), max_iters=0)


class TestClusterSampling:
    def test_output_count_is_max_input_size(self):
        homogeneous = [(0, 1, 2, 3), (4, 5), (6,)]
        out = cluster_sampling(homogeneous, SeededRng(0, 0))
        assert len(out) == 4

    def test_exact_multiset_cover(self):
        homogeneous = [(0, 1, 2), (3, 4), (5,), (6, 7, 8, 9)]
        out = cluster_sampling(homogeneous, SeededRng(1, 0))
        members = sorted(i for c in out for i in c)
        assert members == list(range(10))

    def test_at_most_one_per_source_cluster(self):
        homogeneous = [(0, 1, 2), (3, 4, 5), (6, 7)]
        out = cluster_sampling(homogeneous, SeededRng(2, 0))
        for het in out:
            for source in homogeneous:
                assert len(set(het) & set(source)) <= 1

    def test_first_passes_draw_from_every_cluster(self):
        homogeneous = [(0, 1), (2, 3), (4, 5)]
        out = cluster_sampling(homogeneous, SeededRng(3, 0))
        assert all(len(het) == 3 for het in out)

    def test_duplicate_membership_rejected(self):
        with pytest.raises(DomainError):
            cluster_sampling([(0, 1), (1, 2)], SeededRng(0, 0))

    def test_all_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            cluster_sampling([(), ()], SeededRng(0, 0))

    @given(st.integers(0, 100_000))
    @settings(max_examples=50, deadline=None)
    def test_sampling_properties(self, seed):
        gen = SeededRng(seed, 0).generator()
        sizes = gen.integers(0, 5, size=int(gen.integers(2, 6)))
        if sizes.sum() == 0:
            sizes[0] = 1
        homogeneous, next_id = [], 0
        for s in sizes:
            homogeneous.append(tuple(range(next_id, next_id + int(s))))
            next_id += int(s)
        out = cluster_sampling(homogeneous, SeededRng(seed, 1))
        assert len(out) == max(len(h) for h in homogeneous)
        assert sorted(i for c in out for i in c) == list(range(next_id))
        for het in out:
            for source in homogeneous:
                assert len(set(het) & set(source)) <= 1


class TestElectHeads:
    def test_heads_are_members(self):
        clusters = [(0, 3, 5), (1, 2), (4,)]
        heads = elect_heads(clusters, SeededRng(0, 0))
        assert len(heads) == 3
        for head, cluster in zip(heads, clusters):
            assert head in cluster

    def test_empty_cluster_rejected(self):
        with pytest.raises(EmptyInputError):
            elect_heads([(0,), ()], SeededRng(0, 0))


class TestClusterTopology:
    def valid(self):
        return ClusterTopology(
            homogeneous=((0, 1), (2, 3)),
            heterogeneous=((0, 2), (1, 3)),
            heads=(0, 3),
        )

    def test_valid_instance(self):
        topo = self.valid()
        assert topo.n_heads() == 2

    def test_homogeneous_overlap_rejected(self):
        with pytest.raises(DomainError):
            ClusterTopology(((0, 1), (1, 2)), ((0, 1), (2,)), (0, 2))

    def test_cover_mismatch_rejected(self):
        with pytest.raises(DomainError):
            ClusterTopology(((0, 1), (2, 3)), ((0, 2),), (0,))

    def test_two_from_one_cluster_rejected(self):
        with pytest.raises(DomainError):
            ClusterTopology(((0, 1), (2, 3)), ((0, 1), (2, 3)), (0, 2))

    def test_head_membership_enforced(self):
        with pytest.raises(DomainError):
            ClusterTopology(((0, 1), (2, 3)), ((0, 2), (1, 3)), (0, 2))

    def test_head_count_enforced(self):
        with pytest.raises(DomainError):
            ClusterTopology(((0, 1), (2, 3)), ((0, 2), (1, 3)), (0,))

    def test_json_round_trip(self):
        topo = self.valid()
        doc = json.loads(topo.to_json(seed=42))
        assert doc == {
            "homogeneous": [[0, 1], [2, 3]],
            "heterogeneous": [[0, 2], [1, 3]],
            "heads": [0, 3],
            "seed": 42,
        }
        assert "seed" not in json.loads(topo.to_json())


class TestBuildTopology:
    def test_end_to_end_invariants(self):
        gen = SeededRng(5, 0).generator()
        soft = [stochastic_rows(gen, 6, 4) for _ in range(10)]
        topo = build_topology(soft, 3, SeededRng(5, 1), SeededRng(5, 2), SeededRng(5, 3))
        assert sorted(i for c in topo.homogeneous for i in c) == list(range(10))
        assert len(topo.heterogeneous) == max(len(h) for h in topo.homogeneous)
        topo.validate()

    def test_deterministic(self):
        gen = SeededRng(6, 0).generator()
        soft = [stochastic_rows(gen, 5, 3) for _ in range(8)]
        args = (3, SeededRng(6, 1), SeededRng(6, 2), SeededRng(6, 3))
        assert build_topology(soft, *args).to_json() == build_topology(soft, *args).to_json()
