"""Dataset ingestion, augmentation, splits, and synthetic fixtures.

Supported on-disk formats:
  * IDX (big-endian): magic 0x00000803 for u8 image tensors of shape
    count x H x W, magic 0x00000801 for u8 label vectors.
  * Directories of binary portable graymaps ("P5", maxval 255), one
    subdirectory per class.

Pixels are scaled to [0, 1] by dividing by 255; labels exist only for
evaluation and never enter training.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Rows of examples in [0, 1] with optional labels and image shape."""

    examples: np.ndarray
    labels: np.ndarray | None = None
    image_shape: tuple | None = None

    def __post_init__(self):
        self.examples = np.asarray(self.examples, dtype=np.float64)
        if self.examples.ndim != 2:
            raise ValueError(f"examples must be 2-D, got shape {self.examples.shape}")
        if self.examples.size and not (self.examples.min() >= 0.0 and self.examples.max() <= 1.0):
            raise ValueError("example entries must lie in [0, 1]")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.examples.shape[0],):
                raise ValueError(
                    f"labels length {self.labels.shape} does not match "
                    f"{self.examples.shape[0]} rows"
                )
        if self.image_shape is not None:
            h, w = self.image_shape
            self.image_shape = (int(h), int(w))
            if h * w != self.examples.shape[1]:
                raise ValueError(
                    f"image shape {self.image_shape} does not match row length "
                    f"{self.examples.shape[1]}"
                )

    @property
    def n(self) -> int:
        return self.examples.shape[0]

    @property
    def dim(self) -> int:
        return self.examples.shape[1]


@dataclass
class SplitSpec:
    """Per-class training selection: how many rows, which seed, mirror or not."""

    per_class_train: int
    seed: int = 0
    mirror_train: bool = False

    def __post_init__(self):
        if self.per_class_train < 1:
            raise ValueError("per_class_train must be >= 1")


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
    if dataset.image_shape is None:
        raise ValueError("dataset has no image shape")
    if dataset.labels is None:
        raise ValueError("dataset has no labels")
    h, w = dataset.image_shape
    pixels = np.rint(dataset.examples * 255.0).astype(np.uint8)
    with open(image_path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGE_MAGIC, dataset.n, h, w))
        f.write(pixels.tobytes())
    with open(label_path, "wb") as f:
        f.write(struct.pack(">II", LABEL_MAGIC, dataset.n))
        f.write(dataset.labels.astype(np.uint8).tobytes())


def _read_pgm(path: Path) -> np.ndarray:
    """Binary P5 graymap with maxval 255 -> uint8 array (H, W)."""
    try:
        buf = path.read_bytes()
    except OSError as err:
        raise ValueError(f"unreadable image file {path}: {err}") from err

    # header tokens: "P5", width, height, maxval; '#' starts a comment
    pos, tokens = 0, []
    while len(tokens) < 4:
        if pos >= len(buf):
            raise ValueError(f"truncated graymap header in {path}")
        ch = buf[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < len(buf) and buf[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        else:
            start = pos
            while pos < len(buf) and not buf[pos : pos + 1].isspace():
                pos += 1
            tokens.append(buf[start:pos])
    pos += 1  # single whitespace byte after maxval

    if tokens[0] != b"P5":
        raise ValueError(f"not a binary graymap (P5): {path}")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 255:
        raise ValueError(f"unsupported graymap maxval {maxval} in {path} (want 255)")
    if len(buf) - pos < width * height:
        raise ValueError(f"truncated graymap pixel data in {path}")
    return np.frombuffer(buf, dtype=np.uint8, count=width * height, offset=pos).reshape(
        height, width
    )


def save_pgm(path, image: np.ndarray) -> None:
    """Write a uint8 (H, W) array as a binary P5 graymap."""
    image = np.asarray(image, dtype=np.uint8)
    h, w = image.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(image.tobytes())


def load_image_dir(root_path) -> Dataset:
    """One subdirectory per class of equal-sized graymaps.

    Rows are ordered by (class name, file name); labels enumerate the
    sorted class directories.
    """
    root = Path(root_path)
    class_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not class_dirs:
        raise ValueError(f"no class subdirectories under {root}")
    rows, labels, shape = [], [], None
    for label, class_dir in enumerate(class_dirs):
        for img_path in sorted(p for p in class_dir.iterdir() if p.is_file()):
            img = _read_pgm(img_path)
            if shape is None:
                shape = img.shape
            elif img.shape != shape:
                raise ValueError(
                    f"image size {img.shape} in {img_path} differs from first size {shape}"
                )
            rows.append(img.reshape(-1).astype(np.float64) / 255.0)
            labels.append(label)
    if not rows:
        raise ValueError(f"no image files under {root}")
    return Dataset(examples=np.vstack(rows), labels=np.asarray(labels), image_shape=shape)


def mirror(dataset: Dataset) -> Dataset:
    """Originals followed by horizontally flipped copies; labels duplicated."""
    if dataset.image_shape is None:
        raise ValueError("cannot mirror a dataset without an image shape")
    h, w = dataset.image_shape
    flipped = dataset.examples.reshape(dataset.n, h, w)[:, :, ::-1].reshape(dataset.n, h * w)
    labels = None
    if dataset.labels is not None:
        labels = np.concatenate([dataset.labels, dataset.labels])
    return Dataset(
        examples=np.vstack([dataset.examples, flipped]),
        labels=labels,
        image_shape=dataset.image_shape,
    )


def _subset(dataset: Dataset, rows: list) -> Dataset:
    return Dataset(dataset.examples[rows], dataset.labels[rows], dataset.image_shape)


def _draw_per_class(dataset: Dataset, per_class: int, seed: int, spare: int):
    """Row indices (chosen, rest) of a seeded draw of per_class rows from each
    class (np.unique order, one permutation each, rows sorted within a class);
    a class needs per_class + spare rows."""
    if dataset.labels is None:
        raise ValueError("per-class selection needs labels")
    rng = np.random.default_rng(seed)
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
    """Seeded per-class split into (train, test), disjoint by source row.

    Mirroring, when requested, is applied to the training side only,
    after selection.
    """
    chosen, rest = _draw_per_class(dataset, spec.per_class_train, spec.seed, spare=1)
    train = _subset(dataset, chosen)
    return (mirror(train) if spec.mirror_train else train), _subset(dataset, rest)


def select_per_class(dataset: Dataset, per_class: int, seed: int) -> Dataset:
    """Seeded selection of exactly per_class rows from every class."""
    if per_class < 1:
        raise ValueError(f"per_class must be >= 1, got {per_class}")
    return _subset(dataset, _draw_per_class(dataset, per_class, seed, spare=0)[0])


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
    return (mirror(train) if split.mirror_train else train), test


def synth_gaussian(classes: int, dim: int, per_class: int, spread: float, seed: int) -> Dataset:
    """Gaussian blobs around seeded class means in [0.25, 0.75]^dim.

    Examples are clipped to [0, 1]; labels attached.
    """
    if classes < 1 or dim < 1 or per_class < 1:
        raise ValueError("classes, dim and per_class must all be positive")
    if spread <= 0:
        raise ValueError(f"spread must be positive, got {spread}")
    rng = np.random.default_rng(seed)
    blocks, labels = [], []
    for cls in range(classes):
        mean = rng.uniform(0.25, 0.75, size=dim)
        noise = rng.normal(0.0, spread, size=(per_class, dim))
        blocks.append(np.clip(mean + noise, 0.0, 1.0))
        labels.append(np.full(per_class, cls))
    return Dataset(examples=np.vstack(blocks), labels=np.concatenate(labels))
