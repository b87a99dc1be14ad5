"""IDX parsing and writing, splits, synthetic blobs."""

import re
import struct

import numpy as np
import pytest

from exae.dataio import (
    Dataset,
    SplitSpec,
    load_idx,
    save_idx,
    select_per_class,
    split_per_class,
    synth_gaussian,
    train_test_rows,
)


def write_idx_pair(tmp_path, pixels, labels, h, w):
    """pixels: list of per-image byte lists."""
    img = tmp_path / "images-idx3-ubyte"
    lab = tmp_path / "labels-idx1-ubyte"
    with open(img, "wb") as f:
        f.write(struct.pack(">IIII", 0x803, len(pixels), h, w))
        for p in pixels:
            f.write(bytes(p))
    with open(lab, "wb") as f:
        f.write(struct.pack(">II", 0x801, len(labels)))
        f.write(bytes(labels))
    return img, lab


class TestLoadIdx:
    def test_hand_built_single_image(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [[0, 255, 128, 0]], [7], 2, 2)
        ds = load_idx(img, lab)
        assert ds.n == 1
        assert np.allclose(ds.examples[0], [0.0, 1.0, 128 / 255, 0.0])
        assert ds.labels.tolist() == [7]
        assert ds.image_shape == (2, 2)

    def test_empty_count_is_fine(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [], [], 2, 2)
        ds = load_idx(img, lab)
        assert ds.n == 0

    def test_bad_image_magic(self, tmp_path):
        img = tmp_path / "img"
        img.write_bytes(struct.pack(">IIII", 0x801, 0, 2, 2))
        lab = tmp_path / "lab"
        lab.write_bytes(struct.pack(">II", 0x801, 0))
        with pytest.raises(ValueError, match="image magic"):
            load_idx(img, lab)

    def test_bad_label_magic(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [[1, 2, 3, 4]], [0], 2, 2)
        lab.write_bytes(struct.pack(">II", 0x803, 1) + b"\x00")
        with pytest.raises(ValueError, match="label magic"):
            load_idx(img, lab)

    def test_truncated_pixels(self, tmp_path):
        img = tmp_path / "img"
        img.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + b"\x00" * 3)
        lab = tmp_path / "lab"
        lab.write_bytes(struct.pack(">II", 0x801, 2) + b"\x00\x00")
        with pytest.raises(ValueError, match="truncated"):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        img, _ = write_idx_pair(tmp_path, [[1, 2, 3, 4]], [0], 2, 2)
        lab = tmp_path / "lab2"
        lab.write_bytes(struct.pack(">II", 0x801, 2) + b"\x00\x01")
        with pytest.raises(ValueError, match="count mismatch"):
            load_idx(img, lab)

    def test_round_trip_byte_aligned(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=(5, 9), dtype=np.uint8)
        ds = Dataset(examples=raw / 255.0, labels=np.arange(5), image_shape=(3, 3))
        save_idx(ds, tmp_path / "i", tmp_path / "l")
        back = load_idx(tmp_path / "i", tmp_path / "l")
        assert np.array_equal(back.examples, ds.examples)
        assert np.array_equal(back.labels, ds.labels)
        assert back.image_shape == ds.image_shape

    def test_every_u8_label_round_trips(self, tmp_path):
        ds = Dataset(examples=np.zeros((256, 2)), labels=np.arange(256), image_shape=(1, 2))
        save_idx(ds, tmp_path / "i", tmp_path / "l")
        assert load_idx(tmp_path / "i", tmp_path / "l").labels.tolist() == list(range(256))

    @pytest.mark.parametrize("label", [256, -1])
    def test_label_outside_u8_refused_naming_its_row_before_writing(self, tmp_path, label):
        # a u8 cast would write 256 as 0 and -1 as 255
        ds = Dataset(examples=np.zeros((4, 2)), labels=[0, 1, label, label], image_shape=(1, 2))
        with pytest.raises(ValueError, match=f"^label {label} in row 2 is outside the IDX u8 range 0..255$"):
            save_idx(ds, tmp_path / "i", tmp_path / "l")
        assert list(tmp_path.iterdir()) == []


class TestSplitPerClass:
    def make(self, per_class=12, classes=3, dim=4, seed=0):
        rng = np.random.default_rng(seed)
        n = per_class * classes
        return Dataset(
            examples=rng.uniform(size=(n, dim)),
            labels=np.repeat(np.arange(classes), per_class),
        )

    def test_leave_one_out(self):
        ds = self.make(per_class=5)
        train, test = split_per_class(ds, SplitSpec(per_class_train=4))
        assert test.n == 3
        assert np.array_equal(np.unique(test.labels), [0, 1, 2])

    def test_same_seed_same_split_different_seed_differs(self):
        ds = self.make()
        a1, _ = split_per_class(ds, SplitSpec(per_class_train=6, seed=1))
        a2, _ = split_per_class(ds, SplitSpec(per_class_train=6, seed=1))
        b, _ = split_per_class(ds, SplitSpec(per_class_train=6, seed=2))
        assert np.array_equal(a1.examples, a2.examples)
        assert not np.array_equal(a1.examples, b.examples)

    def test_partition_is_disjoint_and_complete(self):
        ds = self.make(per_class=8, classes=2)
        train, test = split_per_class(ds, SplitSpec(per_class_train=5))
        assert train.n + test.n == ds.n
        seen = {tuple(r) for r in train.examples} | {tuple(r) for r in test.examples}
        assert len(seen) == ds.n  # random rows are unique, so no overlap

    def test_class_too_small_names_class(self):
        ds = self.make(per_class=3)
        with pytest.raises(ValueError, match="class 0"):
            split_per_class(ds, SplitSpec(per_class_train=3))

    def test_needs_labels(self):
        ds = Dataset(examples=np.zeros((4, 2)))
        with pytest.raises(ValueError, match="labels"):
            split_per_class(ds, SplitSpec(per_class_train=1))

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            SplitSpec(per_class_train=1, seed=-1)


class TestSynthGaussian:
    @pytest.mark.parametrize("spread", [0.0, -1.0, np.nan, np.inf])
    def test_spread_must_be_positive_and_finite(self, spread):
        with pytest.raises(ValueError, match=f"^spread must be positive and finite, got {spread}$"):
            synth_gaussian(2, 3, 4, spread, seed=0)

    def test_tight_spread_concentrates_on_class_mean(self):
        ds = synth_gaussian(classes=2, dim=5, per_class=20, spread=1e-8, seed=0)
        for cls in (0, 1):
            rows = ds.examples[ds.labels == cls]
            assert np.max(np.abs(rows - rows[0])) < 1e-6

    def test_deterministic(self):
        a = synth_gaussian(3, 8, 10, 0.1, seed=4)
        b = synth_gaussian(3, 8, 10, 0.1, seed=4)
        assert np.array_equal(a.examples, b.examples)

    def test_counts_and_labels(self):
        ds = synth_gaussian(3, 32, 100, 0.12, seed=0)
        assert ds.examples.shape == (300, 32)
        assert all(np.sum(ds.labels == c) == 100 for c in range(3))

    def test_range_clipped(self):
        ds = synth_gaussian(2, 4, 50, 0.8, seed=1)
        assert ds.examples.min() >= 0.0
        assert ds.examples.max() <= 1.0


def test_real_mnist_training_file_dimensions():
    import os
    from pathlib import Path

    root = Path(os.environ.get("EXAE_MNIST_DIR", "data/mnist"))
    img = root / "train-images-idx3-ubyte"
    lab = root / "train-labels-idx1-ubyte"
    if not (img.exists() and lab.exists()):
        pytest.skip("MNIST IDX files not available; set EXAE_MNIST_DIR to run")
    ds = load_idx(img, lab)
    assert ds.examples.shape == (60000, 784)
    assert ds.image_shape == (28, 28)


def test_select_per_class_counts_and_determinism():
    rng = np.random.default_rng(2)
    ds = Dataset(examples=rng.uniform(size=(30, 3)), labels=np.repeat([0, 1, 2], 10))
    a = select_per_class(ds, 4, seed=5)
    b = select_per_class(ds, 4, seed=5)
    assert a.n == 12
    assert np.array_equal(a.examples, b.examples)
    assert all(np.sum(a.labels == c) == 4 for c in range(3))
    # the train side of a split is the same draw
    train, _ = split_per_class(ds, SplitSpec(per_class_train=4, seed=5))
    assert np.array_equal(a.examples, train.examples) and np.array_equal(a.labels, train.labels)


@pytest.mark.parametrize("per_class", [-2, 0])
def test_select_per_class_refuses_fewer_than_one_row(per_class):
    ds = Dataset(examples=np.zeros((30, 3)), labels=np.repeat([0, 1, 2], 10))
    with pytest.raises(ValueError, match="per_class must be >= 1"):
        select_per_class(ds, per_class, seed=0)


def test_train_test_rows_with_explicit_test_set():
    rng = np.random.default_rng(3)
    data = Dataset(rng.uniform(size=(30, 4)), np.repeat([0, 1, 2], 10), image_shape=(2, 2))
    test = Dataset(rng.uniform(size=(24, 4)), np.repeat([0, 1, 2], 8), image_shape=(2, 2))
    split = SplitSpec(per_class_train=4, seed=7)
    train, queries = train_test_rows(data, test, split, per_class_test=3, test_seed=1)
    expected = select_per_class(data, 4, seed=7)
    assert np.array_equal(train.examples, expected.examples)
    assert np.array_equal(train.labels, expected.labels)
    assert np.array_equal(queries.examples, select_per_class(test, 3, seed=1).examples)
    # no cap: every test row is a query; no test set: the split itself
    assert train_test_rows(data, test, split, None, 1)[1] is test
    for got, want in zip(train_test_rows(data, None, split, 3, 1), split_per_class(data, split)):
        assert np.array_equal(got.examples, want.examples)


def test_dataset_refuses_nan_examples():
    # NaN compares False both ways, so min() < 0 or max() > 1 passes it
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        Dataset(examples=np.array([[0.5, 0.2], [0.1, np.nan]]))


def test_dataset_validates_range_and_labels():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        Dataset(examples=np.array([[1.5]]))
    with pytest.raises(ValueError, match="labels"):
        Dataset(examples=np.zeros((2, 2)), labels=np.array([1]))
    with pytest.raises(ValueError, match="image shape"):
        Dataset(examples=np.zeros((2, 4)), image_shape=(3, 3))


@pytest.mark.parametrize("examples", [np.zeros(4), np.zeros((2, 2, 2))], ids=["1-D", "3-D"])
def test_dataset_examples_must_be_2_d(examples):
    with pytest.raises(ValueError, match=rf"^examples must be 2-D, got shape {re.escape(str(examples.shape))}$"):
        Dataset(examples)


@pytest.mark.parametrize(
    "dataset, refused",
    [(Dataset(np.zeros((2, 4)), labels=[0, 1]), "dataset has no image shape"),
     (Dataset(np.zeros((2, 4)), image_shape=(2, 2)), "dataset has no labels")],
    ids=["no-image-shape", "no-labels"],
)
def test_save_idx_needs_an_image_shape_and_labels_before_writing(tmp_path, dataset, refused):
    with pytest.raises(ValueError, match=f"^{refused}$"):
        save_idx(dataset, tmp_path / "images", tmp_path / "labels")
    assert list(tmp_path.iterdir()) == []
