"""Dataset ingestion, splits, and synthetic fixtures.

The one on-disk format is IDX (big-endian): magic 0x00000803 for u8 image
tensors of shape count x H x W, magic 0x00000801 for u8 label vectors.

Pixels are scaled to [0, 1] by dividing by 255; labels exist only for
evaluation and never enter training.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numkit import integer, real

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Rows of examples in [0, 1], one integer label per row, and the (height,
    width) image each row flattens: every Dataset can be split by class and
    written as IDX."""

    examples: np.ndarray
    labels: np.ndarray
    image_shape: tuple

    def __post_init__(self):
        self.examples = np.asarray(self.examples, dtype=np.float64)
        if self.examples.ndim != 2:
            raise ValueError(f"examples must be 2-D, got shape {self.examples.shape}")
        if self.examples.size and not (self.examples.min() >= 0.0 and self.examples.max() <= 1.0):
            raise ValueError("example entries must lie in [0, 1]")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.shape != (self.examples.shape[0],):
            raise ValueError(f"labels length {self.labels.shape} does not match {self.examples.shape[0]} rows")
        h, w = self.image_shape
        self.image_shape = (integer(h, "image_shape[0]"), integer(w, "image_shape[1]"))
        if h * w != self.examples.shape[1]:
            raise ValueError(f"image shape {self.image_shape} does not match row length {self.examples.shape[1]}")

    @property
    def n(self) -> int:
        return self.examples.shape[0]

    @property
    def dim(self) -> int:
        return self.examples.shape[1]


@dataclass
class SplitSpec:
    """Per-class training selection: how many rows, which seed."""

    per_class_train: int
    seed: int = 0

    def __post_init__(self):
        self.per_class_train = integer(self.per_class_train, "per_class_train")
        self.seed = integer(self.seed, "seed", least=0)


def _read_be_u32(buf: bytes, offset: int, path) -> int:
    if offset + 4 > len(buf):
        raise ValueError(f"truncated IDX file {path}")
    return struct.unpack_from(">I", buf, offset)[0]


def load_idx(image_path, label_path) -> Dataset:
    """Parse an IDX image/label file pair into a Dataset."""
    image_path, label_path = Path(image_path), Path(label_path)
    img_buf = image_path.read_bytes()
    lab_buf = label_path.read_bytes()

    magic = _read_be_u32(img_buf, 0, image_path)
    if magic != IMAGE_MAGIC:
        raise ValueError(f"bad image magic 0x{magic:08x} in {image_path}")
    count = _read_be_u32(img_buf, 4, image_path)
    height = _read_be_u32(img_buf, 8, image_path)
    width = _read_be_u32(img_buf, 12, image_path)
    if len(img_buf) < 16 + count * height * width:
        raise ValueError(f"truncated IDX file {image_path}")
    pixels = np.frombuffer(img_buf, dtype=np.uint8, count=count * height * width, offset=16)

    magic = _read_be_u32(lab_buf, 0, label_path)
    if magic != LABEL_MAGIC:
        raise ValueError(f"bad label magic 0x{magic:08x} in {label_path}")
    lab_count = _read_be_u32(lab_buf, 4, label_path)
    if len(lab_buf) < 8 + lab_count:
        raise ValueError(f"truncated IDX file {label_path}")
    if lab_count != count:
        raise ValueError(
            f"count mismatch: {count} images in {image_path} but "
            f"{lab_count} labels in {label_path}"
        )
    labels = np.frombuffer(lab_buf, dtype=np.uint8, count=lab_count, offset=8)

    examples = pixels.reshape(count, height * width).astype(np.float64) / 255.0
    return Dataset(examples=examples, labels=labels.astype(np.int64), image_shape=(height, width))


def save_idx(dataset: Dataset, image_path, label_path) -> None:
    """Write a Dataset back to an IDX pair, quantizing pixels to bytes."""
    outside = np.flatnonzero((dataset.labels < 0) | (dataset.labels > 255))
    if outside.size:  # IDX labels are u8: astype would wrap 256 to 0
        row = outside[0]
        raise ValueError(f"label {dataset.labels[row]} in row {row} is outside the IDX u8 range 0..255")
    h, w = dataset.image_shape
    pixels = np.rint(dataset.examples * 255.0).astype(np.uint8)
    with open(image_path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGE_MAGIC, dataset.n, h, w))
        f.write(pixels.tobytes())
    with open(label_path, "wb") as f:
        f.write(struct.pack(">II", LABEL_MAGIC, dataset.n))
        f.write(dataset.labels.astype(np.uint8).tobytes())


def _subset(dataset: Dataset, rows: list) -> Dataset:
    return Dataset(dataset.examples[rows], dataset.labels[rows], dataset.image_shape)


def _draw_per_class(dataset: Dataset, per_class: int, seed: int, spare: int):
    """Row indices (chosen, rest) of a seeded draw of per_class rows from each
    class (np.unique order, one permutation each, rows sorted within a class);
    a class needs per_class + spare rows."""
    rng = np.random.default_rng(integer(seed, "seed", least=0))
    chosen, rest = [], []
    for cls in np.unique(dataset.labels):
        members = np.flatnonzero(dataset.labels == cls)
        if members.size < per_class + spare:
            raise ValueError(f"class {cls} has {members.size} rows, need {per_class + spare}")
        perm = rng.permutation(members.size)
        chosen.extend(sorted(members[perm[:per_class]]))
        rest.extend(sorted(members[perm[per_class:]]))
    return chosen, rest


def split_per_class(dataset: Dataset, spec: SplitSpec):
    """Seeded per-class split into (train, test), disjoint by source row."""
    chosen, rest = _draw_per_class(dataset, spec.per_class_train, spec.seed, spare=1)
    return _subset(dataset, chosen), _subset(dataset, rest)


def select_per_class(dataset: Dataset, per_class: int, seed: int) -> Dataset:
    """Seeded selection of exactly per_class rows from every class."""
    return _subset(dataset, _draw_per_class(dataset, integer(per_class, "per_class"), seed, spare=0)[0])


def train_test_rows(
    data: Dataset, test: Dataset | None, split: SplitSpec, per_class_test: int | None, test_seed: int
):
    """The (train, test) pair a run trains on and queries: split_per_class of
    data, or, given an explicit test set, split's draw from data against test
    capped at per_class_test rows per class (None: every row) by test_seed."""
    if test is None:
        return split_per_class(data, split)
    train = select_per_class(data, split.per_class_train, split.seed)
    if per_class_test:
        test = select_per_class(test, per_class_test, test_seed)
    return train, test


def synth_gaussian(classes: int, dim: int, per_class: int, spread: float, seed: int) -> Dataset:
    """Gaussian blobs around seeded class means in [0.25, 0.75]^dim.

    Examples are clipped to [0, 1]; labels attached. Each row is a 1 x dim
    image, so it can be written as IDX.
    """
    classes, dim, per_class = integer(classes, "classes"), integer(dim, "dim"), integer(per_class, "per_class")
    spread = real(spread, "spread", positive=True)
    rng = np.random.default_rng(integer(seed, "seed", least=0))
    blocks, labels = [], []
    for cls in range(classes):
        mean = rng.uniform(0.25, 0.75, size=dim)
        noise = rng.normal(0.0, spread, size=(per_class, dim))
        blocks.append(np.clip(mean + noise, 0.0, 1.0))
        labels.append(np.full(per_class, cls))
    return Dataset(examples=np.vstack(blocks), labels=np.concatenate(labels), image_shape=(1, dim))
