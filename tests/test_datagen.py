"""Synthetic data, label-skew partitioning, splits, and IDX ingestion."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfldd.datagen import (
    LabeledDataset,
    PartitionSpec,
    class_means,
    concat_datasets,
    load_idx,
    make_probe_dataset,
    one_hot,
    partition_label_skew,
    pool_labels,
    sample_classes,
    shift_means,
    split_train_test,
)
from hfldd.errors import CapacityError, DomainError, EmptyInputError, FormatError, ShapeError
from hfldd.numkernel import SeededRng

POOL_SHA256 = "7dbeb66aee332c812ea853f213e660159c9b536c65721d4b77fb0a77851a0207"

def indexed_dataset(n_classes, per_class):
    """Dataset whose feature column 0 is the global row index."""
    n = n_classes * per_class
    features = np.zeros((n, 2))
    features[:, 0] = np.arange(n)
    labels = one_hot(interleaved_labels(n_classes, per_class), n_classes)
    return LabeledDataset(features, labels, n_classes)


def interleaved_labels(n_classes, per_class):
    """Class indices 0, 1, ..., n_classes - 1, 0, 1, ... over n_classes * per_class rows."""
    return np.arange(n_classes * per_class) % n_classes


def client_labels(labels, plan, size):
    """The labels of each client's planned rows."""
    return [labels[plan[i : i + size]] for i in range(0, len(plan), size)]


class TestOneHot:
    def test_hand_rows(self):
        out = one_hot([2, 0], 3)
        assert np.array_equal(out, [[0, 0, 1], [1, 0, 0]])

    @pytest.mark.parametrize("bad, error", [
        ([-1, 0], DomainError), ([5], DomainError), ([3], DomainError),
        ([0.5], ShapeError), ([[0, 1]], ShapeError),
    ])
    def test_rejects_labels_outside_the_classes(self, bad, error):
        # -1 used to set the last column, 0.5 to become class 0, and 5 to
        # raise a raw IndexError
        with pytest.raises(error, match="^labels"):
            one_hot(bad, 3)


class TestLabeledDataset:
    def test_needs_a_row(self):
        with pytest.raises(EmptyInputError):
            LabeledDataset(np.zeros((0, 2)), np.zeros((0, 3)), 3)

    def test_arrays_cannot_be_rebound(self):
        d = indexed_dataset(2, 2)
        with pytest.raises(AttributeError):
            d.features = np.zeros((4, 2))
        with pytest.raises(AttributeError):
            d.labels = np.eye(2)[[0, 1, 1, 0]]

    def test_row_sums_enforced(self):
        with pytest.raises(DomainError):
            LabeledDataset(np.ones((1, 2)), np.array([[0.5, 0.6]]), 2)

    def test_row_count_mismatch(self):
        with pytest.raises(ShapeError):
            LabeledDataset(np.ones((2, 2)), np.array([[1.0, 0.0]]), 2)

    def test_class_count_mismatch(self):
        with pytest.raises(ShapeError):
            LabeledDataset(np.ones((1, 2)), np.array([[1.0, 0.0]]), 3)

    def test_histogram_and_indices(self):
        d = indexed_dataset(3, 4)
        assert np.array_equal(d.class_histogram(), [4, 4, 4])
        assert d.label_indices()[0] == 0

    def test_subset_is_an_independent_copy(self):
        d = indexed_dataset(3, 4)
        idx = [5, 0, 5]
        out = d.subset(idx)
        assert np.array_equal(out.features, d.features[idx])
        assert np.array_equal(out.labels, d.labels[idx])
        assert not np.shares_memory(out.features, d.features)
        assert not np.shares_memory(out.labels, d.labels)

    @pytest.mark.parametrize("bad, error", [
        ([12], DomainError), ([-1], DomainError), ([[0, 1]], ShapeError), ([0.0], ShapeError),
        ([], EmptyInputError),
    ])
    def test_subset_rejects_a_bad_plan(self, bad, error):
        # a negative index would otherwise wrap around to the last rows
        with pytest.raises(error):
            indexed_dataset(3, 4).subset(bad)

    def test_split_rows_hands_out_consecutive_views(self):
        d = indexed_dataset(3, 4)
        parts = d.split_rows([5, 7])
        assert [p.n_rows() for p in parts] == [5, 7]
        assert np.array_equal(parts[1].features[:, 0], np.arange(5, 12))
        assert all(np.shares_memory(p.features, d.features) for p in parts)
        for bad in ([5, 6], [5, 8]):
            with pytest.raises(ShapeError):
                d.split_rows(bad)
        # a block is a dataset, so it holds at least one row
        for bad in ([5, 0, 7], [13, -1], [1.5, 10.5], [True, 11]):
            with pytest.raises(DomainError, match="^block size"):
                d.split_rows(bad)


class TestClassMeans:
    def test_norms_equal_separation(self):
        means = class_means(5, 8, 3.5, SeededRng(0, 0))
        assert np.allclose(np.linalg.norm(means, axis=1), 3.5, atol=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            class_means(0, 2, 1.0, SeededRng(0, 0))
        with pytest.raises(DomainError):
            class_means(2, 2, 0.0, SeededRng(0, 0))


class TestShiftMeans:
    def test_displacement_magnitude(self):
        means = class_means(4, 6, 2.0, SeededRng(1, 0))
        shifted = shift_means(means, 0.75, SeededRng(1, 1))
        assert np.allclose(np.linalg.norm(shifted - means, axis=1), 0.75, atol=1e-12)


class TestSampling:
    def test_per_class_counts(self):
        means = class_means(3, 4, 2.0, SeededRng(2, 0))
        d = sample_classes(means, 7, SeededRng(2, 1))
        assert d.n_rows() == 21
        assert np.array_equal(d.class_histogram(), [7, 7, 7])
        assert np.array_equal(d.label_indices(), pool_labels(3, 7))

    def test_well_separated_clusters_are_recoverable(self):
        # nearest-neighbor label agreement on widely separated blobs
        d = sample_classes(class_means(2, 2, 10.0, SeededRng(1, 0)), 80, SeededRng(1, 1))
        x, labels = d.features, d.label_indices()
        d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        agree = labels[np.argmin(d2, axis=1)] == labels
        assert np.mean(agree) >= 0.99

    def test_deterministic(self):
        a = sample_classes(class_means(2, 3, 4.0, SeededRng(4, 0)), 5, SeededRng(4, 1))
        b = sample_classes(class_means(2, 3, 4.0, SeededRng(4, 0)), 5, SeededRng(4, 1))
        assert np.array_equal(a.features, b.features)

    def test_pool_bits_pinned(self):
        # the bits of means[c] + standard_normal((per_class, dim)), class by class
        d = sample_classes(class_means(3, 5, 2.0, SeededRng(6, 0)), 4, SeededRng(6, 1))
        h = hashlib.sha256(d.features.tobytes() + d.labels.tobytes()).hexdigest()
        assert h == POOL_SHA256

    @pytest.mark.parametrize("per_class, dim", [(7, 3), (300, 600), (1, 1)])
    def test_planned_rows_are_the_pool_rows_bit_for_bit(self, per_class, dim):
        # every class is drawn whole whatever the plan, so the kept rows
        # equal the full pool's; 300 x 600 needs several gathers per class
        means = class_means(4, dim, 3.0, SeededRng(5, 0))
        pool = sample_classes(means, per_class, SeededRng(5, 1))
        gen = np.random.default_rng(per_class)
        plans = [
            gen.permutation(4 * per_class)[: 2 * per_class],
            np.array([4 * per_class - 1, 0, 4 * per_class - 1]),
            np.arange(per_class, 2 * per_class),
        ]
        for plan in plans:
            d = sample_classes(means, per_class, SeededRng(5, 1), rows=plan)
            assert np.array_equal(d.features, pool.features[plan])
            assert np.array_equal(d.labels, pool.labels[plan])
            assert d.class_count == 4
        with pytest.raises(EmptyInputError):
            sample_classes(means, per_class, SeededRng(5, 1), rows=np.array([], dtype=np.intp))

    def test_plan_out_of_the_pool(self):
        means = class_means(2, 3, 4.0, SeededRng(4, 0))
        for bad in ([10], [-1]):
            with pytest.raises(DomainError):
                sample_classes(means, 5, SeededRng(4, 1), rows=bad)
        with pytest.raises(DomainError):
            sample_classes(means, 0, SeededRng(4, 1))


class TestPartitionSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            PartitionSpec(0, 1, 4, 10)
        with pytest.raises(DomainError):
            PartitionSpec(3, 5, 4, 10)
        with pytest.raises(DomainError):
            PartitionSpec(3, 2, 4, 1)


class TestPartition:
    def test_exact_sizes_and_class_counts(self):
        labels = interleaved_labels(4, 100)
        plan = partition_label_skew(labels, 4, PartitionSpec(8, 2, 4, 30), SeededRng(11))
        assert plan.shape == (8 * 30,)
        for part in client_labels(labels, plan, 30):
            assert np.count_nonzero(np.bincount(part, minlength=4)) == 2

    def test_clients_are_disjoint(self):
        labels = interleaved_labels(4, 100)
        plan = partition_label_skew(labels, 4, PartitionSpec(8, 2, 4, 30), SeededRng(11))
        assert len(np.unique(plan)) == len(plan)

    def test_single_class_clients(self):
        labels = interleaved_labels(5, 50)
        plan = partition_label_skew(labels, 5, PartitionSpec(5, 1, 5, 40), SeededRng(3))
        covered = set()
        for part in client_labels(labels, plan, 40):
            hist = np.bincount(part, minlength=5)
            assert np.count_nonzero(hist) == 1
            covered.add(int(np.argmax(hist)))
        assert covered == {0, 1, 2, 3, 4}

    def test_remainder_spread_over_first_shards(self):
        labels = interleaved_labels(3, 100)
        plan = partition_label_skew(labels, 3, PartitionSpec(3, 3, 3, 10), SeededRng(0))
        for part in client_labels(labels, plan, 10):
            # 10 = 4 + 3 + 3 over the client's three classes
            assert sorted(np.bincount(part, minlength=3), reverse=True) == [4, 3, 3]

    def test_capacity_exhaustion(self):
        with pytest.raises(CapacityError):
            partition_label_skew(interleaved_labels(2, 10), 2, PartitionSpec(4, 1, 2, 8), SeededRng(0))

    def test_class_count_mismatch(self):
        with pytest.raises(DomainError):
            partition_label_skew(interleaved_labels(3, 10), 3, PartitionSpec(2, 1, 4, 5), SeededRng(0))

    @pytest.mark.parametrize(
        "bad, error",
        [
            ([0, 3], DomainError),
            ([-1, 0], DomainError),
            ([[0, 1]], ShapeError),
            ([0.0, 1.0], ShapeError),
        ],
    )
    def test_labels_must_be_class_indices(self, bad, error):
        # the one label rule: one_hot and subset raise the same error types
        with pytest.raises(error):
            partition_label_skew(np.array(bad), 3, PartitionSpec(1, 1, 3, 1), SeededRng(0))

    @pytest.mark.parametrize(
        "build, spec, seed, digest",
        [
            (lambda: indexed_dataset(4, 100), PartitionSpec(8, 2, 4, 30), 11,
             "c054309577ab28fbd53bb1bee1719927d303ddc18ccdfaa962bcbcbf6a7b4287"),
            (lambda: indexed_dataset(3, 100), PartitionSpec(3, 3, 3, 10), 0,
             "f7cf3004472fe13ac21429ab765e43a35bbc01c41c7c7134f21f6062e3a7f2e4"),
            (lambda: sample_classes(class_means(5, 16, 3.0, SeededRng(1)), 80, SeededRng(2)),
             PartitionSpec(10, 2, 5, 31), 4,
             "6140e34005c33606773cb65381fb287a3ce0267620a79f17a92f43f489242e8d"),
        ],
        ids=["indexed", "remainder", "gaussian"],
    )
    def test_clients_bit_identical_to_per_client_copies(self, build, spec, seed, digest):
        # The digests pin the bytes of every client's planned rows.
        d = build()
        labels = d.label_indices()
        before = labels.copy()
        plan = partition_label_skew(labels, d.class_count, spec, SeededRng(seed))
        assert np.array_equal(labels, before)
        h = hashlib.sha256()
        for p in d.subset(plan).split_rows([spec.samples_per_client] * spec.n_clients):
            h.update(p.features.tobytes())
            h.update(p.labels.tobytes())
        assert h.hexdigest() == digest

    def test_deterministic_in_spec_seed(self):
        # the layout is a function of the rng argument alone
        labels = interleaved_labels(4, 50)
        spec = PartitionSpec(4, 2, 4, 20)
        a = partition_label_skew(labels, 4, spec, SeededRng(9))
        b = partition_label_skew(labels, 4, spec, SeededRng(9))
        c = partition_label_skew(labels, 4, spec, SeededRng(10))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @given(
        n_clients=st.integers(1, 8),
        classes_per_client=st.integers(1, 4),
        samples_per_client=st.integers(4, 24),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_properties(self, n_clients, classes_per_client, samples_per_client, seed):
        n_classes = 4
        labels = interleaved_labels(n_classes, n_clients * samples_per_client)
        spec = PartitionSpec(n_clients, classes_per_client, n_classes, samples_per_client)
        plan = partition_label_skew(labels, n_classes, spec, SeededRng(seed))
        assert len(np.unique(plan)) == n_clients * samples_per_client
        for part in client_labels(labels, plan, samples_per_client):
            assert len(part) == samples_per_client
            assert np.count_nonzero(np.bincount(part, minlength=n_classes)) == classes_per_client


class TestProbeAndSplit:
    def test_probe_is_subset(self):
        pick = make_probe_dataset(40, 9, SeededRng(5, 0))
        assert pick.shape == (9,)
        assert len(set(pick.tolist())) == 9
        assert set(pick.tolist()) <= set(range(40))

    def test_probe_capacity(self):
        with pytest.raises(CapacityError):
            make_probe_dataset(6, 7, SeededRng(5, 0))
        with pytest.raises(DomainError):
            make_probe_dataset(6, 0, SeededRng(5, 0))

    def test_split_disjoint_and_exhaustive(self):
        train, test = split_train_test(50, 0.2, SeededRng(6, 0))
        assert test.shape == (10,)
        assert train.shape == (40,)
        assert sorted(np.concatenate([train, test])) == list(range(50))

    def test_split_fraction_domain(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(DomainError):
                split_train_test(10, bad, SeededRng(0, 0))
        with pytest.raises(CapacityError):
            split_train_test(1, 0.5, SeededRng(0, 0))


class TestConcat:
    def test_order_preserved(self):
        a = indexed_dataset(2, 2)
        b = indexed_dataset(2, 3)
        out = concat_datasets([a, b])
        assert out.n_rows() == 10
        assert np.array_equal(out.features[:4], a.features)

    def test_mismatched_inputs(self):
        a = indexed_dataset(2, 2)
        c = indexed_dataset(3, 2)
        wide = LabeledDataset(np.zeros((2, 3)), one_hot([0, 1], 2), 2)
        with pytest.raises(ShapeError):
            concat_datasets([a, c])
        with pytest.raises(ShapeError):
            concat_datasets([a, wide])
        with pytest.raises(DomainError):
            concat_datasets([])


def write_idx_pair(tmp_path, images, labels):
    n = len(labels)
    rows, cols = images.shape[1], images.shape[2]
    img = struct.pack(">iiii", 0x803, n, rows, cols) + images.astype(np.uint8).tobytes()
    lab = struct.pack(">ii", 0x801, n) + bytes(labels)
    img_path, lab_path = tmp_path / "img.idx", tmp_path / "lab.idx"
    img_path.write_bytes(img)
    lab_path.write_bytes(lab)
    return str(img_path), str(lab_path)


class TestLoadIdx:
    def test_round_trip(self, tmp_path):
        images = np.arange(2 * 2 * 3, dtype=np.uint8).reshape(2, 2, 3)
        img, lab = write_idx_pair(tmp_path, images, [1, 0])
        d = load_idx(img, lab)
        assert d.n_rows() == 2 and d.dim() == 6 and d.class_count == 2
        # one float64 conversion, bit for bit the scaled pixel bytes
        assert np.array_equal(d.features, images.reshape(2, 6) / 255.0)
        assert d.features.dtype == np.float64 and d.features.flags.c_contiguous
        assert np.array_equal(d.label_indices(), [1, 0])

    def test_no_images(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((0, 2, 2), dtype=np.uint8), [])
        with pytest.raises(EmptyInputError):
            load_idx(img, lab)

    def test_bad_image_magic(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, [0])
        data = bytearray(open(img, "rb").read())
        data[3] = 0x99
        (tmp_path / "img.idx").write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, [0, 1])
        lab_data = struct.pack(">ii", 0x801, 3) + bytes([0, 1, 0])
        (tmp_path / "lab.idx").write_bytes(lab_data)
        with pytest.raises(FormatError):
            load_idx(img, lab)

    def test_truncated_pixels(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, [0, 1])
        data = open(img, "rb").read()
        (tmp_path / "img.idx").write_bytes(data[:-3])
        with pytest.raises(FormatError):
            load_idx(img, lab)

    def test_trailing_bytes(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, [0])
        data = open(lab, "rb").read()
        (tmp_path / "lab.idx").write_bytes(data + b"\x07")
        with pytest.raises(FormatError):
            load_idx(img, lab)
