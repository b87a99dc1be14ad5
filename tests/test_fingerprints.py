"""Byte fingerprints: SHA-256 digests of a run's outputs against the recorded ones.

A7 compares two runs of one tree with each other; this compares a run with
the digests recorded in tests/fingerprints.json, so a change of rounding
anywhere in training, fine-tuning or scoring shows, and so does a change of
rank in one neighbor table or of a k-NN prediction. Entries are keyed by the
numpy version, the BLAS name and version, the machine and the OpenBLAS kernel
that runs, and not by the thread count: these small runs must give the same
bytes at any thread setting, so CI's pinned and default legs check one entry.
An environment with no entry skips, naming its key; to record one, run

    PYTHONPATH=src python tests/test_fingerprints.py --record

A digest that changes is a byte change to declare, never a test to re-record.
EXAE_FINGERPRINTS names another digest file, as mutants/run.py does to compare
each mutant with its unmutated source wherever it runs.
"""

import ctypes
import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from test_acceptance import _tiny_experiment

from exae.cli import main
from exae.evalharness import knn_classify, run_experiment
from exae.exclusivity import build_context

FINGERPRINTS = Path(os.environ.get("EXAE_FINGERPRINTS", Path(__file__).resolve().parent / "fingerprints.json"))

# a 2-trial two-level synth experiment: level 2 trains on codes and builds its own
# neighbor table, and batches of 5 over 36 rows leave a short last batch
TWO_LEVEL = {
    "data": {"classes": 3, "dim": 12, "per_class": 20, "spread": 0.1, "split": {"per_class_train": 12}},
    "stack": {"sizes": [12, 8, 4], "excl_weight": 2.0, "n_neighbors": 3, "epochs": 2, "batch_size": 5},
    "finetune": {"epochs": 2, "batch_size": 5},
    "experiment": {"trials": 2, "base_seed": 3},
}


# rows 0 and 1 are a duplicate pair, row 2 is all zero, and rows 3 and 4 have
# the same cosine to rows 0 and 1: an exact tie, which goes to the lower index
TABLE_ROWS = np.array([
    [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0],
    [0.3, 0.7, 0.2], [0.9, 0.1, 0.5], [0.2, 0.2, 0.9],
])
# k-NN inputs on a grid of tenths: three overlapping classes, and train rows 0 and 11,
# of classes 0 and 2, are a duplicate pair, whose distance tie goes to row 0
KNN_TRAIN = 0.8 * np.eye(3)[np.arange(12) % 3] + (np.arange(36).reshape(12, 3) * 7 % 11) / 10.0
KNN_TRAIN[11] = KNN_TRAIN[0]
KNN_LABELS = np.arange(12) % 3
KNN_QUERIES = (np.arange(24).reshape(8, 3) * 5 % 13) / 10.0


def openblas_config() -> str | None:
    """The configuration string of the OpenBLAS numpy loaded, as it reports it at run
    time, or None where it cannot be read. numpy's show_config keeps the string of the
    host its wheel was built on: under DYNAMIC_ARCH that names the build host's kernel
    (a wheel built on Haswell says Haswell on a SkylakeX or Zen machine)."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:  # not Linux
        return None
    for path in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping that names no loadable file
            continue
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if get_config is not None:
                get_config.restype = ctypes.c_char_p
                return get_config().decode()
    return None


def environment_key(blas_config: str | None) -> str:
    """The fingerprint entry's key. The kernel named in blas_config, an OpenBLAS
    configuration string ("OpenBLAS 0.3.31  USE64BITINT DYNAMIC_ARCH NO_AFFINITY
    SkylakeX MAX_THREADS=64": the word before the thread setting), is appended;
    the key is left without one when blas_config is None or names none."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 reports no build dependencies
        blas = "unreported BLAS"
    key = f"numpy {np.__version__}, {blas}, {platform.machine()}"
    words = (blas_config or "").split()
    if words[:1] == ["OpenBLAS"]:
        words = [w for w in words[2:] if not w.startswith("MAX_THREADS=") and w != "SINGLE_THREADED"]
        key += f", {words[-1]}" if words else ""
    return key


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def checkpoint_digests(path: Path) -> dict:
    """The digests of a checkpoint's JSON header and of its parameter block."""
    data = path.read_bytes()
    end = 16 + int.from_bytes(data[12:16], "little")
    return {"header": sha256(data[16:end]), "parameters": sha256(data[end:-4])}


def run_digests(tmp: Path) -> dict:
    """{output: digest} of A7's tiny experiment and of the TWO_LEVEL one, run under tmp."""
    run_experiment(_tiny_experiment(tmp / "a7"))
    digests = {f"a7/{name}": sha256((tmp / "a7" / name).read_bytes()) for name in ("metrics.csv", "summary.json")}
    two = tmp / "two-level"
    two.mkdir()
    (two / "config.json").write_text(json.dumps(TWO_LEVEL))
    cwd = os.getcwd()
    os.chdir(two)  # output.dir is the relative "out": the header's config names no temporary path
    try:
        assert main(["--config", "config.json", "experiment"]) == 0
    finally:
        os.chdir(cwd)
    digests.update({f"two-level/{name}": sha256((two / "out" / name).read_bytes())
                    for name in ("metrics.csv", "summary.json")})
    digests.update({f"two-level/model.ckpt {part}": digest
                    for part, digest in checkpoint_digests(two / "out" / "model.ckpt").items()})
    digests["neighbors m=3"] = sha256(build_context(TABLE_ROWS, 3).neighbors.astype("<i8").tobytes())
    for metric in ("euclidean", "cosine"):
        for k in (1, 3):
            predicted = knn_classify(KNN_TRAIN, KNN_LABELS, KNN_QUERIES, k=k, metric=metric)
            digests[f"knn {metric} k={k}"] = sha256(predicted.astype("<i8").tobytes())
    return digests


def test_outputs_match_the_recorded_digests(tmp_path):
    key = environment_key(openblas_config())
    recorded = json.loads(FINGERPRINTS.read_text()).get(key)
    if recorded is None:
        pytest.skip(f"no fingerprints recorded for {key!r}: run tests/test_fingerprints.py --record")
    assert run_digests(tmp_path) == recorded


def test_two_kernels_give_two_keys():
    config = "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY {} MAX_THREADS=64"
    haswell, skylake = environment_key(config.format("Haswell")), environment_key(config.format("SkylakeX"))
    assert haswell != skylake
    assert haswell.endswith(", Haswell") and skylake.endswith(", SkylakeX")
    assert environment_key(None) == haswell.removesuffix(", Haswell")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    with tempfile.TemporaryDirectory() as tmp:
        entry = run_digests(Path(tmp))
    table = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    key = environment_key(openblas_config())
    table[key] = entry
    FINGERPRINTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(entry)} digests for {key!r} in {FINGERPRINTS}")
