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
    sample_classes,
    shift_means,
    split_train_test,
)
from hfldd.errors import CapacityError, DomainError, FormatError, ShapeError
from hfldd.numkernel import SeededRng


def indexed_dataset(n_classes, per_class):
    """Dataset whose feature column 0 is the global row index, for tracing
    exactly which rows a partition handed to each client."""
    n = n_classes * per_class
    features = np.zeros((n, 2))
    features[:, 0] = np.arange(n)
    labels = one_hot(np.arange(n) % n_classes, n_classes)
    return LabeledDataset(features, labels, n_classes)


class TestOneHot:
    def test_hand_rows(self):
        out = one_hot([2, 0], 3)
        assert np.array_equal(out, [[0, 0, 1], [1, 0, 0]])


class TestLabeledDataset:
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
        d = indexed_dataset(4, 100)
        parts = partition_label_skew(d, PartitionSpec(8, 2, 4, 30), SeededRng(11))
        assert len(parts) == 8
        for p in parts:
            assert p.n_rows() == 30
            assert np.count_nonzero(p.class_histogram()) == 2

    def test_clients_are_disjoint(self):
        d = indexed_dataset(4, 100)
        parts = partition_label_skew(d, PartitionSpec(8, 2, 4, 30), SeededRng(11))
        taken = np.concatenate([p.features[:, 0] for p in parts])
        assert len(np.unique(taken)) == len(taken)

    def test_single_class_clients(self):
        d = indexed_dataset(5, 50)
        parts = partition_label_skew(d, PartitionSpec(5, 1, 5, 40), SeededRng(3))
        covered = set()
        for p in parts:
            hist = p.class_histogram()
            assert np.count_nonzero(hist) == 1
            covered.add(int(np.argmax(hist)))
        assert covered == {0, 1, 2, 3, 4}

    def test_remainder_spread_over_first_shards(self):
        d = indexed_dataset(3, 100)
        parts = partition_label_skew(d, PartitionSpec(3, 3, 3, 10), SeededRng(0))
        for p in parts:
            # 10 = 4 + 3 + 3 over the client's three classes
            assert sorted(p.class_histogram(), reverse=True) == [4, 3, 3]

    def test_capacity_exhaustion(self):
        d = indexed_dataset(2, 10)
        with pytest.raises(CapacityError):
            partition_label_skew(d, PartitionSpec(4, 1, 2, 8), SeededRng(0))

    def test_class_count_mismatch(self):
        d = indexed_dataset(3, 10)
        with pytest.raises(DomainError):
            partition_label_skew(d, PartitionSpec(2, 1, 4, 5), SeededRng(0))

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
        # The digests were taken when each client's rows were a separate
        # copy; the clients are now row views of one gathered block.
        d = build()
        before = (d.features.tobytes(), d.labels.tobytes())
        parts = partition_label_skew(d, spec, SeededRng(seed))
        h = hashlib.sha256()
        for p in parts:
            h.update(p.features.tobytes())
            h.update(p.labels.tobytes())
        assert h.hexdigest() == digest
        assert (d.features.tobytes(), d.labels.tobytes()) == before
        # one gathered block per partition, handed out as row views
        assert len({id(p.features.base) for p in parts}) == 1
        assert parts[0].features.base is not None
        for i, p in enumerate(parts):
            assert p.features.flags.c_contiguous and p.labels.flags.c_contiguous
            assert not np.shares_memory(p.features, d.features)
            for q in parts[i + 1 :]:
                assert not np.shares_memory(p.features, q.features)
                assert not np.shares_memory(p.labels, q.labels)

    def test_deterministic_in_spec_seed(self):
        # the layout is a function of the rng argument alone
        d = indexed_dataset(4, 50)
        spec = PartitionSpec(4, 2, 4, 20)
        a = partition_label_skew(d, spec, SeededRng(9))
        b = partition_label_skew(d, spec, SeededRng(9))
        c = partition_label_skew(d, spec, SeededRng(10))
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.features, pb.features)
        assert any(not np.array_equal(pa.features, pc.features) for pa, pc in zip(a, c))

    @given(
        n_clients=st.integers(1, 8),
        classes_per_client=st.integers(1, 4),
        samples_per_client=st.integers(4, 24),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_properties(self, n_clients, classes_per_client, samples_per_client, seed):
        n_classes = 4
        d = indexed_dataset(n_classes, n_clients * samples_per_client)
        spec = PartitionSpec(n_clients, classes_per_client, n_classes, samples_per_client)
        parts = partition_label_skew(d, spec, SeededRng(seed))
        taken = np.concatenate([p.features[:, 0] for p in parts])
        assert len(np.unique(taken)) == n_clients * samples_per_client
        for p in parts:
            assert p.n_rows() == samples_per_client
            assert np.count_nonzero(p.class_histogram()) == classes_per_client


class TestProbeAndSplit:
    def test_probe_is_subset(self):
        d = indexed_dataset(2, 20)
        probe = make_probe_dataset(d, 9, SeededRng(5, 0))
        assert probe.n_rows() == 9
        assert set(probe.features[:, 0]) <= set(d.features[:, 0])

    def test_probe_capacity(self):
        d = indexed_dataset(2, 3)
        with pytest.raises(CapacityError):
            make_probe_dataset(d, 7, SeededRng(5, 0))

    def test_split_disjoint_and_exhaustive(self):
        d = indexed_dataset(2, 25)
        train, test = split_train_test(d, 0.2, SeededRng(6, 0))
        assert test.n_rows() == 10
        assert train.n_rows() == 40
        ids = np.concatenate([train.features[:, 0], test.features[:, 0]])
        assert sorted(ids) == list(range(50))

    def test_split_fraction_domain(self):
        d = indexed_dataset(2, 5)
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(DomainError):
                split_train_test(d, bad, SeededRng(0, 0))


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
        assert np.allclose(d.features[0], np.arange(6) / 255.0)
        assert np.array_equal(d.label_indices(), [1, 0])

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
