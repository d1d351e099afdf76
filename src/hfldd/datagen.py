"""Dataset construction: synthetic Gaussian classes, IDX ingestion, label-skew
partitioning, probe subsampling, and train/test splitting.

Partitioning implements quantity-based label imbalance: every client receives
samples from exactly `classes_per_client` distinct classes, assigned by a
shard scheme that deals consecutive class shards to a shuffled client order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, FormatError, ShapeError
from .numkernel import SeededRng, as_matrix

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


@dataclass
class LabeledDataset:
    """Feature matrix plus probability-row labels (one-hot or soft)."""

    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        self.features = as_matrix(self.features, "features")
        self.labels = as_matrix(self.labels, "labels")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ShapeError(
                f"features rows {self.features.shape[0]} != labels rows {self.labels.shape[0]}"
            )
        if self.labels.shape[1] != self.class_count:
            raise ShapeError(
                f"labels have {self.labels.shape[1]} columns, class_count is {self.class_count}"
            )
        if self.labels.shape[0]:
            sums = self.labels.sum(axis=1)
            if np.max(np.abs(sums - 1.0)) > 1e-9:
                raise DomainError("label rows must each sum to 1")

    def n_rows(self) -> int:
        return self.features.shape[0]

    def dim(self) -> int:
        return self.features.shape[1]

    def label_indices(self) -> np.ndarray:
        return np.argmax(self.labels, axis=1)

    def class_histogram(self) -> np.ndarray:
        return np.bincount(self.label_indices(), minlength=self.class_count)

    def subset(self, idx) -> "LabeledDataset":
        idx = np.asarray(idx, dtype=np.intp)
        # Integer-array indexing already returns new arrays.
        return LabeledDataset(self.features[idx], self.labels[idx], self.class_count)


def concat_datasets(datasets) -> LabeledDataset:
    datasets = list(datasets)
    if not datasets:
        raise DomainError("need at least one dataset to concatenate")
    d = datasets[0]
    for other in datasets[1:]:
        if other.dim() != d.dim() or other.class_count != d.class_count:
            raise ShapeError("datasets have mismatched dimensions or class counts")
    return LabeledDataset(
        np.concatenate([x.features for x in datasets]),
        np.concatenate([x.labels for x in datasets]),
        d.class_count,
    )


@dataclass(frozen=True)
class PartitionSpec:
    """Quantity-based label-skew layout: N clients, C classes each."""

    n_clients: int
    classes_per_client: int
    total_classes: int
    samples_per_client: int

    def __post_init__(self):
        if self.n_clients < 1:
            raise DomainError(f"n_clients must be >= 1, got {self.n_clients}")
        if not 1 <= self.classes_per_client <= self.total_classes:
            raise DomainError(
                f"classes_per_client must be in [1, {self.total_classes}], "
                f"got {self.classes_per_client}"
            )
        if self.samples_per_client < self.classes_per_client:
            raise DomainError(
                "samples_per_client must be at least classes_per_client "
                f"({self.samples_per_client} < {self.classes_per_client})"
            )


def one_hot(indices, class_count: int) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.intp)
    out = np.zeros((idx.shape[0], class_count))
    out[np.arange(idx.shape[0]), idx] = 1.0
    return out


def class_means(n_classes: int, dim: int, separation: float, rng: SeededRng) -> np.ndarray:
    """Class centers at `separation` times random unit directions."""
    if n_classes < 1 or dim < 1:
        raise DomainError("n_classes and dim must be >= 1")
    if separation <= 0:
        raise DomainError(f"separation must be positive, got {separation}")
    directions = rng.generator().standard_normal((n_classes, dim))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return separation * directions / norms


def shift_means(means, scale: float, rng: SeededRng) -> np.ndarray:
    """Displace every class mean by `scale` times a fresh random unit vector.

    Used to give the probe pool a distribution related to, but distinct from,
    the client data distribution.
    """
    means = as_matrix(means, "means")
    gen = rng.generator()
    offsets = gen.standard_normal(means.shape)
    norms = np.linalg.norm(offsets, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return means + scale * offsets / norms


def sample_classes(means, per_class: int, rng: SeededRng) -> LabeledDataset:
    """Unit-variance isotropic Gaussian samples around each mean row."""
    means = as_matrix(means, "means")
    if per_class < 1:
        raise DomainError(f"per_class must be >= 1, got {per_class}")
    gen = rng.generator()
    n_classes, dim = means.shape
    features = np.empty((n_classes * per_class, dim))
    labels = np.zeros((n_classes * per_class, n_classes))
    for c in range(n_classes):
        block = slice(c * per_class, (c + 1) * per_class)
        features[block] = means[c] + gen.standard_normal((per_class, dim))
        labels[block, c] = 1.0
    return LabeledDataset(features, labels, n_classes)


def partition_label_skew(
    d: LabeledDataset, spec: PartitionSpec, rng: SeededRng
) -> list[LabeledDataset]:
    """Split `d` into N disjoint client datasets with C classes per client.

    Client order is shuffled by `rng`, then client at shuffled position p
    takes classes (p*C + i) mod N_c for i < C, drawing contiguous slices from
    per-class index pools shuffled by the same generator. Per-client totals
    are exactly spec.samples_per_client, with the remainder of the division
    by C spread over the client's first shards.

    All clients' rows are gathered by one index into one block, in client
    order; each client's dataset holds row views of its part of the block.
    """
    if spec.total_classes != d.class_count:
        raise DomainError(
            f"spec.total_classes {spec.total_classes} != dataset class_count {d.class_count}"
        )
    n, c, n_c = spec.n_clients, spec.classes_per_client, spec.total_classes
    gen = rng.generator()
    order = gen.permutation(n)
    pools = []
    labels = d.label_indices()
    for cls in range(n_c):
        idx = np.flatnonzero(labels == cls)
        gen.shuffle(idx)
        pools.append(idx)
    cursors = [0] * n_c
    base, rem = divmod(spec.samples_per_client, c)
    per_client: list[list[np.ndarray]] = [[] for _ in range(n)]
    for pos in range(n):
        client = int(order[pos])
        for i in range(c):
            cls = (pos * c + i) % n_c
            want = base + (1 if i < rem else 0)
            have = len(pools[cls]) - cursors[cls]
            if have < want:
                raise CapacityError(
                    f"class {cls} exhausted: client {client} needs {want} samples, "
                    f"{have} remain"
                )
            take = pools[cls][cursors[cls] : cursors[cls] + want]
            cursors[cls] += want
            per_client[client].append(take)
    rows = np.concatenate([take for chunks in per_client for take in chunks])
    x, y = d.features[rows], d.labels[rows]
    size = spec.samples_per_client
    return [
        LabeledDataset(x[i * size : (i + 1) * size], y[i * size : (i + 1) * size], d.class_count)
        for i in range(n)
    ]


def make_probe_dataset(source: LabeledDataset, size: int, rng: SeededRng) -> LabeledDataset:
    """Uniform subsample without replacement."""
    if size < 1:
        raise DomainError(f"size must be >= 1, got {size}")
    if size > source.n_rows():
        raise CapacityError(f"requested {size} rows but source has {source.n_rows()}")
    gen = rng.generator()
    idx = gen.permutation(source.n_rows())[:size]
    return source.subset(idx)


def split_train_test(d: LabeledDataset, test_fraction: float, rng: SeededRng):
    """Random disjoint (train, test) split of the full dataset."""
    if not 0.0 < test_fraction < 1.0:
        raise DomainError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = d.n_rows()
    n_test = max(1, int(round(n * test_fraction)))
    if n_test >= n:
        raise CapacityError(f"test split of {n_test} rows leaves no training data (n={n})")
    gen = rng.generator()
    perm = gen.permutation(n)
    return d.subset(perm[n_test:]), d.subset(perm[:n_test])


def _read_exact(data: bytes, offset: int, count: int, what: str) -> bytes:
    if len(data) < offset + count:
        raise FormatError(f"truncated {what}", offset=len(data))
    return data[offset : offset + count]


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Load an IDX image/label file pair (big-endian, MNIST layout).

    Pixel features are scaled to [0, 1]; labels become one-hot rows wide
    enough for the largest label byte present.
    """
    with open(images_path, "rb") as f:
        img = f.read()
    with open(labels_path, "rb") as f:
        lab = f.read()

    (magic,) = struct.unpack(">i", _read_exact(img, 0, 4, "image header"))
    if magic != _IDX_IMAGES_MAGIC:
        raise FormatError(f"bad image magic 0x{magic:08x}", offset=0)
    n, rows, cols = struct.unpack(">iii", _read_exact(img, 4, 12, "image dimensions"))
    pixels = _read_exact(img, 16, n * rows * cols, "image data")
    if len(img) != 16 + n * rows * cols:
        raise FormatError("trailing bytes after image data", offset=16 + n * rows * cols)

    (magic,) = struct.unpack(">i", _read_exact(lab, 0, 4, "label header"))
    if magic != _IDX_LABELS_MAGIC:
        raise FormatError(f"bad label magic 0x{magic:08x}", offset=0)
    (n_lab,) = struct.unpack(">i", _read_exact(lab, 4, 4, "label count"))
    if n_lab != n:
        raise FormatError(f"label count {n_lab} != image count {n}", offset=4)
    raw_labels = _read_exact(lab, 8, n, "label data")
    if len(lab) != 8 + n:
        raise FormatError("trailing bytes after label data", offset=8 + n)

    features = np.frombuffer(pixels, dtype=np.uint8).reshape(n, rows * cols) / 255.0
    indices = np.frombuffer(raw_labels, dtype=np.uint8)
    class_count = int(indices.max()) + 1 if n else 1
    return LabeledDataset(features.astype(np.float64), one_hot(indices, class_count), class_count)
