"""Seeded boundary fuzz: damaged artifacts are refused with a typed error.

Every truncation length of a tiny checkpoint, IDX pair and graymap, and a
seeded sample of checkpoint byte flips, must raise an error that names the
damaged file: CheckpointError for a checkpoint, ValueError for the data
files. Any other exception type, or a load that succeeds, fails the test.
"""

import numpy as np

from exae.autoencoder import AEConfig, build_model
from exae.dataio import Dataset, load_idx, load_image_dir, save_idx
from exae.evalharness import CheckpointError, load_checkpoint, save_checkpoint
from exae.stacking import assemble

N_FLIPS = 300


def damaged(whole: bytes, rng=None):
    """Every proper prefix of whole, then (with rng) N_FLIPS one-byte flips."""
    for length in range(len(whole)):
        yield f"truncated to {length} bytes", whole[:length]
    if rng is not None:
        for pos, xor in zip(rng.integers(len(whole), size=N_FLIPS), rng.integers(1, 256, size=N_FLIPS)):
            buf = bytearray(whole)
            buf[pos] ^= xor
            yield f"byte {pos} xor {xor}", bytes(buf)


def escapes(path, whole, load, error, name, rng=None):
    """The damaged versions of whole, written to path, that load does not
    refuse with an error of type error whose message holds name."""
    found = []
    for what, buf in damaged(whole, rng):
        path.write_bytes(buf)
        try:
            load()
        except Exception as err:  # another type is what the fuzz looks for, so it is recorded
            if not isinstance(err, error) or name not in str(err):
                found.append(f"{what}: {err!r}")
        else:
            found.append(f"{what}: loaded")
    path.write_bytes(whole)
    return found


def test_every_truncation_and_sampled_flip_of_a_checkpoint_is_refused(tmp_path):
    levels = [
        build_model(AEConfig(layer_sizes=[6, 4], seed=0)),
        build_model(AEConfig(layer_sizes=[4, 3], output_activation="relu", seed=1)),
    ]
    path = tmp_path / "stack.ckpt"
    save_checkpoint(assemble(levels), path, config={"stack": {"sizes": [6, 4, 3]}})
    load_checkpoint(path)  # the undamaged file loads
    rng = np.random.default_rng(0)
    assert escapes(path, path.read_bytes(), lambda: load_checkpoint(path), CheckpointError, str(path), rng) == []


def test_every_truncation_of_an_idx_pair_is_refused_naming_the_file(tmp_path):
    rng = np.random.default_rng(1)
    pair = Dataset(rng.integers(0, 256, size=(6, 6)) / 255.0, np.arange(6) % 3, (2, 3))
    images, labels = tmp_path / "images-idx3-ubyte", tmp_path / "labels-idx1-ubyte"
    save_idx(pair, images, labels)
    load_idx(images, labels)  # the undamaged pair loads
    for path in (images, labels):
        assert escapes(path, path.read_bytes(), lambda: load_idx(images, labels), ValueError, str(path)) == []


def test_every_truncation_of_a_graymap_is_refused_naming_the_file(tmp_path):
    (tmp_path / "c").mkdir()
    path = tmp_path / "c" / "img.pgm"
    whole = b"P5\n2 3\n255\n" + bytes(range(10, 70, 10))
    path.write_bytes(whole)
    assert load_image_dir(tmp_path).image_shape == (3, 2)  # the undamaged file loads
    assert escapes(path, whole, lambda: load_image_dir(tmp_path), ValueError, str(path)) == []
