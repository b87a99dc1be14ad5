"""Byte fingerprints: SHA-256 digests of a run's outputs against the recorded ones.

A7 compares two runs of one tree with each other; this compares a run with
the digests recorded in tests/fingerprints.json, so a change of rounding
anywhere in training, fine-tuning or scoring shows. Entries are keyed by the
numpy version, the BLAS name and version and the machine, and not by the
thread count: these small runs must give the same bytes at any thread
setting, so CI's pinned and default legs check one entry. An environment
with no entry skips, naming its key; to record one, run

    PYTHONPATH=src python tests/test_fingerprints.py --record

A digest that changes is a byte change to declare, never a test to re-record.
EXAE_FINGERPRINTS names another digest file, as mutants/run.py does to compare
each mutant with its unmutated source wherever it runs.
"""

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
from exae.evalharness import run_experiment

FINGERPRINTS = Path(os.environ.get("EXAE_FINGERPRINTS", Path(__file__).resolve().parent / "fingerprints.json"))

# a 2-trial two-level synth experiment: level 2 trains on codes and builds its own
# neighbor table, and batches of 5 over 36 rows leave a short last batch
TWO_LEVEL = {
    "data": {"classes": 3, "dim": 12, "per_class": 20, "spread": 0.1, "split": {"per_class_train": 12}},
    "stack": {"sizes": [12, 8, 4], "excl_weight": 2.0, "n_neighbors": 3, "epochs": 2, "batch_size": 5},
    "finetune": {"epochs": 2, "batch_size": 5},
    "experiment": {"trials": 2, "base_seed": 3},
}


def environment_key() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 reports no build dependencies
        blas = "unreported BLAS"
    return f"numpy {np.__version__}, {blas}, {platform.machine()}"


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
    return digests


def test_outputs_match_the_recorded_digests(tmp_path):
    key = environment_key()
    recorded = json.loads(FINGERPRINTS.read_text()).get(key)
    if recorded is None:
        pytest.skip(f"no fingerprints recorded for {key!r}: run tests/test_fingerprints.py --record")
    assert run_digests(tmp_path) == recorded


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    with tempfile.TemporaryDirectory() as tmp:
        entry = run_digests(Path(tmp))
    table = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    table[environment_key()] = entry
    FINGERPRINTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(entry)} digests for {environment_key()!r} in {FINGERPRINTS}")
