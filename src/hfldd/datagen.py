"""Dataset construction: synthetic Gaussian classes, IDX ingestion, label-skew
partitioning, probe subsampling, and train/test splitting.

Partitioning implements quantity-based label imbalance: every client receives
samples from exactly `classes_per_client` distinct classes, assigned by a
shard scheme that deals consecutive class shards to a shuffled client order.

The split, the partition and the probe pick see only row counts and labels
and return row plans (1-D arrays of row indices); `sample_classes(...,
rows=plan)` or `LabeledDataset.subset(plan)` then makes each dataset once.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, FormatError, ShapeError
from .numkernel import SeededRng, as_matrix

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801
# Bytes `sample_classes` copies per gather: its temporary stays below one
# class's draw, the build's only other transient of that size.
_GATHER_BYTES = 1 << 19


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

    def subset(self, rows) -> "LabeledDataset":
        """The planned rows, in plan order, gathered into a new dataset."""
        idx = _row_plan(rows, self.n_rows())
        return LabeledDataset(self.features[idx], self.labels[idx], self.class_count)

    def split_rows(self, sizes) -> list["LabeledDataset"]:
        """This dataset cut into consecutive row views of `sizes[i]` rows each."""
        if any(s < 0 for s in sizes) or sum(sizes) != self.n_rows():
            raise ShapeError(f"blocks of {list(sizes)} rows do not cut {self.n_rows()} rows")
        ends = np.cumsum([0, *sizes]).tolist()
        return [
            LabeledDataset(self.features[a:b], self.labels[a:b], self.class_count)
            for a, b in zip(ends, ends[1:])
        ]


def _row_plan(rows, n_rows: int) -> np.ndarray:
    """Validate `rows` as a row plan over `n_rows` rows: a 1-D integer array
    of indices in [0, n_rows)."""
    idx = np.asarray(rows)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise ShapeError(f"a row plan must be a 1-D integer array, got {idx.dtype} {idx.shape}")
    if idx.size and not (idx.min() >= 0 and idx.max() < n_rows):
        raise DomainError(f"row plan indexes outside [0, {n_rows})")
    return idx.astype(np.intp, copy=False)


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


def pool_labels(n_classes: int, per_class: int) -> np.ndarray:
    """Class index of each row of the pool `sample_classes` draws from."""
    return np.repeat(np.arange(n_classes), per_class)


def sample_classes(means, per_class: int, rng: SeededRng, rows=None) -> LabeledDataset:
    """Unit-variance isotropic Gaussian samples around each mean row.

    The pool holds `per_class` rows of class 0, then of class 1, and so on
    (`pool_labels`); pool row r is draw r % per_class of its class. `rows` is
    a row plan into that pool (default: every row). The result holds exactly
    the planned rows, in plan order, and no other pool row is kept. Every
    class is still drawn in full, one class at a time, so the stream is
    consumed the same way and each kept row has the same bits whatever the
    plan.
    """
    means = as_matrix(means, "means")
    if per_class < 1:
        raise DomainError(f"per_class must be >= 1, got {per_class}")
    n_classes, dim = means.shape
    n = n_classes * per_class
    rows = np.arange(n) if rows is None else _row_plan(rows, n)
    labels = pool_labels(n_classes, per_class)[rows]
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(np.bincount(labels, minlength=n_classes)).tolist()
    features = np.empty((rows.shape[0], dim))
    gen = rng.generator()
    z = np.empty((per_class, dim))
    step = max(1, _GATHER_BYTES // z[0].nbytes)
    start = 0
    for c, end in enumerate(ends):
        gen.standard_normal(out=z)
        z += means[c]  # addition commutes: the bits of means[c] + z
        for a in range(start, end, step):
            dest = order[a : min(a + step, end)]
            features[dest] = z[rows[dest] - c * per_class]
        start = end
    return LabeledDataset(features, one_hot(labels, n_classes), n_classes)


def partition_label_skew(
    labels, class_count: int, spec: PartitionSpec, rng: SeededRng
) -> np.ndarray:
    """Row plan of N disjoint client datasets with C classes per client.

    `labels` holds the class index, in [0, class_count), of each row to be
    dealt out. Client order is shuffled by `rng`, then client at shuffled
    position p takes classes (p*C + i) mod N_c for i < C, drawing contiguous
    slices from per-class index pools shuffled by the same generator.
    Per-client totals are exactly spec.samples_per_client, with the
    remainder of the division by C spread over the client's first shards.

    Returns one index array into `labels` in client order: client i's rows
    are plan[i * samples_per_client : (i + 1) * samples_per_client].
    """
    if spec.total_classes != class_count:
        raise DomainError(
            f"spec.total_classes {spec.total_classes} != dataset class_count {class_count}"
        )
    labels = np.asarray(labels)
    if labels.ndim != 1 or (labels.size and (
        labels.dtype.kind not in "iu" or labels.min() < 0 or labels.max() >= class_count
    )):
        raise DomainError(f"labels must be a 1-D array of class indices in [0, {class_count})")
    n, c, n_c = spec.n_clients, spec.classes_per_client, spec.total_classes
    gen = rng.generator()
    order = gen.permutation(n)
    pools = []
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
    return np.concatenate([take for chunks in per_client for take in chunks])


def make_probe_dataset(n_rows: int, size: int, rng: SeededRng) -> np.ndarray:
    """Row plan of a uniform subsample of `size` of `n_rows` rows, without
    replacement."""
    if size < 1:
        raise DomainError(f"size must be >= 1, got {size}")
    if size > n_rows:
        raise CapacityError(f"requested {size} rows but source has {n_rows}")
    return rng.generator().permutation(n_rows)[:size]


def split_train_test(n_rows: int, test_fraction: float, rng: SeededRng):
    """Row plan of a random disjoint split of `n_rows` rows: (train, test)
    index arrays that together hold every row once."""
    if not 0.0 < test_fraction < 1.0:
        raise DomainError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n_test = max(1, int(round(n_rows * test_fraction)))
    if n_test >= n_rows:
        raise CapacityError(f"test split of {n_test} rows leaves no training data (n={n_rows})")
    perm = rng.generator().permutation(n_rows)
    return perm[n_test:], perm[:n_test]


def _read_exact(data: memoryview, offset: int, count: int, what: str) -> memoryview:
    if len(data) < offset + count:
        raise FormatError(f"truncated {what}", offset=len(data))
    return data[offset : offset + count]


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Load an IDX image/label file pair (big-endian, MNIST layout; the
    dimensions are unsigned 32-bit integers).

    Pixel features are scaled to [0, 1]; labels become one-hot rows wide
    enough for the largest label byte present. The files are read through
    memoryviews, so the pixel bytes are not copied, and are converted to
    float64 once.
    """
    with open(images_path, "rb") as f:
        img = memoryview(f.read())
    with open(labels_path, "rb") as f:
        lab = memoryview(f.read())

    (magic,) = struct.unpack(">i", _read_exact(img, 0, 4, "image header"))
    if magic != _IDX_IMAGES_MAGIC:
        raise FormatError(f"bad image magic 0x{magic:08x}", offset=0)
    n, rows, cols = struct.unpack(">III", _read_exact(img, 4, 12, "image dimensions"))
    pixels = _read_exact(img, 16, n * rows * cols, "image data")
    if len(img) != 16 + n * rows * cols:
        raise FormatError("trailing bytes after image data", offset=16 + n * rows * cols)

    (magic,) = struct.unpack(">i", _read_exact(lab, 0, 4, "label header"))
    if magic != _IDX_LABELS_MAGIC:
        raise FormatError(f"bad label magic 0x{magic:08x}", offset=0)
    (n_lab,) = struct.unpack(">I", _read_exact(lab, 4, 4, "label count"))
    if n_lab != n:
        raise FormatError(f"label count {n_lab} != image count {n}", offset=4)
    raw_labels = _read_exact(lab, 8, n, "label data")
    if len(lab) != 8 + n:
        raise FormatError("trailing bytes after label data", offset=8 + n)

    features = np.frombuffer(pixels, dtype=np.uint8).reshape(n, rows * cols) / 255.0
    indices = np.frombuffer(raw_labels, dtype=np.uint8)
    class_count = int(indices.max()) + 1 if n else 1
    return LabeledDataset(features, one_hot(indices, class_count), class_count)
