"""Dataset ingestion (IDX binary format) and synthetic data generation.

Inputs always live in the [0,1] box; the attack projections depend on it.
Everything is deterministic: the same files or the same (parameters, seed)
reproduce bit-identical datasets.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .io import FormatError
from .network import _as_labels

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    inputs: np.ndarray  # (m, d), values in [0, 1]
    labels: np.ndarray  # (m,), ints in [0, num_classes): `network._as_labels`' rule
    num_classes: int
    name: str

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        if self.inputs.ndim != 2:
            raise ValueError(f"inputs must be 2-D, got ndim={self.inputs.ndim}")
        self.labels = _as_labels(self.labels, (len(self.inputs), self.num_classes))
        if self.inputs.size and not (self.inputs.min() >= 0.0 and self.inputs.max() <= 1.0):  # NaN fails both
            raise ValueError("inputs must lie in [0, 1]")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


def _read_exact(f, count: int, what: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise FormatError(f"{what}: expected {count} bytes, got {len(data)}")
    return data


def _read_be32(f, what: str) -> int:
    return struct.unpack(">i", _read_exact(f, 4, what))[0]


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair; pixels are scaled to [0,1] by /255."""
    with open(images_path, "rb") as f:
        magic = _read_be32(f, "image magic")
        if magic != IDX_IMAGE_MAGIC:
            raise FormatError(f"{images_path}: magic {magic:#010x}, expected {IDX_IMAGE_MAGIC:#010x}")
        count = _read_be32(f, "image count")
        rows = _read_be32(f, "image rows")
        cols = _read_be32(f, "image cols")
        pixels = np.frombuffer(
            _read_exact(f, count * rows * cols, "image payload"), dtype=np.uint8
        )
    labels = _read_idx_labels(labels_path)
    if len(labels) != count:
        raise FormatError(f"{count} images but {len(labels)} labels")
    inputs = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    return Dataset(inputs, labels, int(labels.max(initial=0)) + 1, name=str(images_path))


def _read_idx_labels(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = _read_be32(f, "label magic")
        if magic != IDX_LABEL_MAGIC:
            raise FormatError(f"{path}: magic {magic:#010x}, expected {IDX_LABEL_MAGIC:#010x}")
        count = _read_be32(f, "label count")
        return np.frombuffer(_read_exact(f, count, "label payload"), dtype=np.uint8).astype(np.int64)


def idx_num_classes(*labels_paths) -> int:
    """Largest label in the IDX label files plus one: one count for every split."""
    return 1 + max(int(_read_idx_labels(path).max(initial=0)) for path in labels_paths)


def _idx_bytes(values, what: str) -> np.ndarray:
    """`values` as a C-ordered uint8 array; ValueError for any value not an integer in 0..255.

    A cast alone would wrap 256 to 0 and -1 to 255 and truncate 1.7 to 1.
    Integer-valued floats are accepted.
    """
    a = np.asarray(values)
    if a.dtype.kind not in "uif":
        raise ValueError(f"{what} must be integers in 0..255, got dtype {a.dtype}")
    if a.size and not (a.min() >= 0 and a.max() <= 255):  # NaN fails both
        bad = a[~((a >= 0) & (a <= 255))]
        raise ValueError(f"{what} must be integers in 0..255, got {bad[0]}")
    out = np.ascontiguousarray(a, dtype=np.uint8)
    if a.dtype.kind == "f" and not np.array_equal(out, a):
        raise ValueError(f"{what} must be integers in 0..255, got {a[out != a][0]}")
    return out


def write_idx_images(path, images: np.ndarray):
    """Write a (count, rows, cols) array of integers in 0..255 in IDX image format."""
    images = _idx_bytes(images, "images")
    if images.ndim != 3:
        raise ValueError("images must have shape (count, rows, cols)")
    with open(path, "wb") as f:
        f.write(struct.pack(">iiii", IDX_IMAGE_MAGIC, *images.shape))
        f.write(images.tobytes())


def write_idx_labels(path, labels):
    """Write a 1-D sequence of integers in 0..255 in IDX label format."""
    labels = _idx_bytes(labels, "labels")
    with open(path, "wb") as f:
        f.write(struct.pack(">ii", IDX_LABEL_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())


def synth_blobs(num_classes: int, per_class: int, dim: int, spread: float, seed: int) -> Dataset:
    """Balanced Gaussian clusters at seeded random centers, clipped to [0,1]."""
    if min(num_classes, per_class, dim) < 1 or spread < 0:
        raise ValueError("num_classes, per_class, dim must be positive and spread >= 0")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 1.0, size=(num_classes, dim))
    inputs = np.empty((num_classes * per_class, dim))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        block = slice(c * per_class, (c + 1) * per_class)
        inputs[block] = centers[c] + spread * rng.standard_normal((per_class, dim))
        labels[block] = c
    np.clip(inputs, 0.0, 1.0, out=inputs)
    name = f"blobs-c{num_classes}-n{per_class}-d{dim}-s{spread:g}-seed{seed}"
    return Dataset(inputs, labels, num_classes, name=name)


def split_blobs(
    num_classes: int, train_per_class: int, test_per_class: int,
    dim: int, spread: float, seed: int,
) -> tuple[Dataset, Dataset]:
    """Train/test blob datasets sharing the same class centers.

    One generator draw produces train_per_class + test_per_class samples
    per class; the first block of each class becomes the train split.
    """
    if min(train_per_class, test_per_class) < 1:
        raise ValueError("train_per_class and test_per_class must be >= 1")
    full = synth_blobs(num_classes, train_per_class + test_per_class, dim, spread, seed)

    def rows_of_each_class(a: np.ndarray, rows: slice) -> np.ndarray:
        """`rows` of every class block of `a`, in class order, as one C-ordered array."""
        picked = a.reshape(num_classes, -1, *a.shape[1:])[:, rows]
        return np.ascontiguousarray(picked.reshape(-1, *a.shape[1:]))

    return tuple(Dataset(rows_of_each_class(full.inputs, rows), rows_of_each_class(full.labels, rows),
                         num_classes, name=f"{full.name}-{tag}")
                 for rows, tag in ((slice(train_per_class), "train"), (slice(train_per_class, None), "test")))


def epoch_seed_from(*parts: int) -> int:
    """Seed of the sub-stream named by `parts` (master seed first)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def batches(ds: Dataset, batch_size: int, epoch_seed: int):
    """Yield (inputs, labels) minibatches in a seeded shuffle order.

    The final partial batch is kept; the concatenation of all batches is a
    permutation of the dataset.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    perm = np.random.default_rng(epoch_seed).permutation(len(ds))
    for start in range(0, len(ds), batch_size):
        idx = perm[start : start + batch_size]
        yield ds.inputs[idx], ds.labels[idx]
