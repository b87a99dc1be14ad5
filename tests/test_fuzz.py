"""Seeded boundary fuzz: damaged artifacts are refused with a typed error,
and the neighbor table and k-NN equal their oracles on hostile sets.

Every truncation length of a tiny checkpoint and IDX pair, and a
seeded sample of checkpoint byte flips, must raise an error that names the
damaged file: CheckpointError for a checkpoint, ValueError for the data
files. Any other exception type, or a load that succeeds, fails the test.
A checkpoint whose header fields are rewritten, with its CRC recomputed,
must load or raise CheckpointError, and never raise another type.

On seeded sets with duplicate rows, exact ties, all-zero rows and norms just
inside the refusal bounds, build_context equals top_m_neighbors row for row
and knn_classify equals the full-lexsort oracle, at 1 and 2 row-block workers.
A row past a bound, a NaN row, and a cosine row whose norm underflows are
refused with the same ValueError under np.errstate(all="raise") as without it.

Every one-key override of the default config, for each value of a pool of
bad signs, sizes, types and JSON kinds, builds its ExperimentConfig or is
refused with a ValueError that names the key's field. So does a seeded sample
of two-key overrides (naming one of its two fields), plus every pair of
data-file keys with a path on one: there a named file that does not exist
must be opened, and so refused, not built around. Each synth key, at each
pool value, beside the data files is refused naming it unless it holds its
default, as the files leave it unread.

Each one-key override that builds, laid over a tiny one-epoch base, runs its
experiment to the end with RuntimeWarnings ignored, as a user's run leaves
them: every trial completes or is recorded as failed naming its phase. A
finite lr of 1e308 gets no load-time bound; it diverges in its first epoch
and the trial names the phase it failed in.
"""

import itertools
import json
import re
import threading
import zlib

import numpy as np
import pytest
from test_evalharness import full_sort_knn

from exae import exclusivity, numkit
from exae.autoencoder import AEConfig, build_model
from exae.cli import DEFAULT_CONFIG, experiment_from, load_config
from exae.dataio import Dataset, load_idx, save_idx
from exae.evalharness import (
    KNN_METRICS, CheckpointError, DataSpec, knn_classify, load_checkpoint, run_experiment, save_checkpoint)
from exae.exclusivity import build_context, top_m_neighbors
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


# values a rewritten header field takes: bad signs, sizes, types and JSON kinds
HEADER_POOL = [-1, 0, float("nan"), 1e300, 1.5, "x", [], {}, None, True]


def header_fields(header):
    """(description, container, key) of each header field the fuzz rewrites:
    every level layer's in, out and activation, the level list and config."""
    for k, model in enumerate(header["levels"]):
        for half in ("encoder", "decoder"):
            for j, layer in enumerate(model[half]):
                for key in ("in", "out", "activation"):
                    yield f"levels[{k}].{half}[{j}].{key}", layer, key
    for key in ("levels", "config"):
        yield key, header, key


def test_rewritten_header_fields_load_or_raise_checkpoint_error(tmp_path):
    levels = [
        build_model(AEConfig(layer_sizes=[6, 4], seed=0)),
        build_model(AEConfig(layer_sizes=[4, 3], output_activation="relu", seed=1)),
    ]
    path = tmp_path / "stack.ckpt"
    save_checkpoint(assemble(levels), path, config={"stack": {"sizes": [6, 4, 3]}})
    whole = path.read_bytes()
    header_len = int.from_bytes(whole[12:16], "little")
    params = whole[16 + header_len : -4]
    n_fields = len(list(header_fields(json.loads(whole[16 : 16 + header_len]))))
    assert n_fields == 3 * 4 + 2  # 4 layers in two levels
    found = []
    for f in range(n_fields):
        for val in HEADER_POOL:
            header = json.loads(whole[16 : 16 + header_len])  # a fresh copy to rewrite
            what, container, key = list(header_fields(header))[f]
            container[key] = val
            text = json.dumps(header, sort_keys=True).encode()
            body = whole[:12] + len(text).to_bytes(4, "little") + text + params
            path.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
            try:
                load_checkpoint(path)
            except CheckpointError:
                pass
            except Exception as err:  # another type is what the fuzz looks for, so it is recorded
                found.append(f"{what} = {val!r}: {err!r}")
    assert found == []


def test_every_truncation_of_an_idx_pair_is_refused_naming_the_file(tmp_path):
    rng = np.random.default_rng(1)
    pair = Dataset(rng.integers(0, 256, size=(6, 6)) / 255.0, np.arange(6) % 3, (2, 3))
    images, labels = tmp_path / "images-idx3-ubyte", tmp_path / "labels-idx1-ubyte"
    save_idx(pair, images, labels)
    load_idx(images, labels)  # the undamaged pair loads
    for path in (images, labels):
        assert escapes(path, path.read_bytes(), lambda: load_idx(images, labels), ValueError, str(path)) == []


def hostile_rows(rng, n, edge):
    """n quantized rows (exact ties; with one column every nonzero pair ties at 1),
    a quarter of them copies of others, a twentieth all zero and a twentieth
    scaled to a norm just inside edge: near ties with the rows they copy."""
    data = rng.integers(0, 4, size=(n, int(rng.integers(1, 9)))) / 3.0
    data[rng.choice(n, n // 4, replace=False)] = data[rng.integers(0, n, size=n // 4)]
    data[rng.choice(n, max(1, n // 20), replace=False)] = 0.0
    big = rng.choice(n, max(1, n // 20), replace=False)
    norms = np.linalg.norm(data[big], axis=1, keepdims=True)
    data[big] *= edge * (1 - 1e-9) / np.where(norms > 0.0, norms, np.inf)
    return data


def fallback_widths(monkeypatch):
    """The rows of each block-wide fallback: an exclusivity.smallest call that
    ranks the rows whose oracle cosines its thread has just computed."""
    oracle_rows, widths = {}, []
    real_cosine, real_smallest = exclusivity._cosine_to_row, exclusivity.smallest

    def cosine_spy(dataset, j, norms):
        oracle_rows.setdefault(threading.get_ident(), []).append(j)
        return real_cosine(dataset, j, norms)

    def smallest_spy(values, reach):
        rows = oracle_rows.pop(threading.get_ident(), [])
        if rows:
            assert len(rows) == values.shape[0], "the fallback ranks other rows than it computed"
            widths.append(len(rows))
        return real_smallest(values, reach)

    monkeypatch.setattr(exclusivity, "_cosine_to_row", cosine_spy)
    monkeypatch.setattr(exclusivity, "smallest", smallest_spy)
    return widths


def refused_copies(rng, rows, edge, tiny):
    """Copies of rows in which one seeded row is refused: its first two entries
    (v, 2v) past edge, or NaN, and with tiny 1e-170: a norm that underflows."""
    for v in [2 * edge, np.nan] + [1e-170] * tiny:
        bad = rows.copy()
        r = int(rng.integers(len(rows)))
        bad[r] = 0.0
        bad[r, :2] = np.array([v, 2 * v])[: rows.shape[1]]
        yield bad


def same_refusal_when_raising(call):
    """call() raises ValueError, and the same one under np.errstate(all="raise"):
    no over- or underflow on its way to the refusal escapes as FloatingPointError."""
    found = []
    for state in ({}, {"all": "raise"}):
        with np.errstate(**state):
            try:
                call()
            except Exception as err:  # the type is what is compared
                found.append(repr(err))
            else:
                found.append("accepted")
    assert found[0].startswith("ValueError(") and found[1] == found[0], found


@pytest.mark.parametrize("seed", range(6))
def test_neighbor_table_equals_oracle_on_hostile_sets(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    n = [2, 7, 40, 150, 260, 300][seed]  # one block, then two and three of them
    data = hostile_rows(rng, n, np.sqrt(np.finfo(float).max / 2))
    # top_m_neighbors(j, m) is the first m of top_m_neighbors(j, n - 1): one sort
    oracle = np.array([top_m_neighbors(data, j, n - 1) for j in range(n)]).reshape(n, n - 1)
    widths = fallback_widths(monkeypatch)
    for m in sorted({1, min(6, n - 1), n - 1}):
        for workers in (1, 2):
            monkeypatch.setattr(numkit, "ROW_BLOCK_WORKERS", workers)
            assert np.array_equal(build_context(data, m).neighbors, oracle[:, :m]), (m, workers)
    if n >= 150:
        assert max(widths) > 1, widths  # a block ranked several uncertified rows in one call
    for bad in refused_copies(rng, data, np.sqrt(np.finfo(float).max / 2), tiny=True):
        same_refusal_when_raising(lambda: build_context(bad, min(6, n - 1)))


@pytest.mark.parametrize("metric", sorted(KNN_METRICS))
@pytest.mark.parametrize("seed", range(4))
def test_knn_equals_full_sort_on_hostile_sets(monkeypatch, metric, seed):
    rng = np.random.default_rng(10 + seed)
    n = [3, 20, 90, 300][seed]
    # the euclidean bound is on the squared norm, the cosine one on the norm
    edge = np.sqrt(KNN_METRICS[metric]) if metric == "euclidean" else KNN_METRICS[metric]
    feats = hostile_rows(rng, n + [5, 60, 130, 250][seed], edge)
    train, queries = feats[:n], feats[n:]
    labels = rng.integers(0, 3, size=n)
    for k in sorted({1, min(6, n), n}):  # k = n sums n distances of up to max/2 at the euclidean bound
        for workers in (1, 2):  # the oracle ranks the distances of the same row blocks
            monkeypatch.setattr(numkit, "ROW_BLOCK_WORKERS", workers)
            want = full_sort_knn(train, labels, queries, k, metric)
            assert np.array_equal(knn_classify(train, labels, queries, k, metric), want), (k, workers)
    # a cosine row whose norm underflows is refused; a euclidean one is ranked
    for bad in refused_copies(rng, train, edge, tiny=metric == "cosine"):
        same_refusal_when_raising(lambda: knn_classify(bad, labels, queries, 1, metric))
    for bad in refused_copies(rng, queries, edge, tiny=metric == "cosine"):
        same_refusal_when_raising(lambda: knn_classify(train, labels, bad, 1, metric))


# the values each config key takes in turn: bad signs, sizes, types and JSON kinds
CONFIG_POOL = [-1, 0, 1, 3, 2.5, 1e-300, 1e308, float("nan"), float("inf"), "x", [], {}, None, True, [8, 4, 2]]


def value_keys(section, path=""):
    """The dotted key of every value of a config section, nested sections included."""
    for key, val in section.items():
        if isinstance(val, dict):
            yield from value_keys(val, f"{path}{key}.")
        else:
            yield path + key


def laid(override, base=None):
    """A copy of base (None: no section) with each (dotted key, value) of override set in it."""
    config = json.loads(json.dumps(base or {}))
    for key, val in override:
        *sections, last = key.split(".")
        node = config
        for section in sections:
            node = node.setdefault(section, {})
        node[last] = val
    return config


def escape(path, override):
    """What the override, a list of (dotted key, value) written to path, did, or None
    when it built its ExperimentConfig naming no file, raised a ValueError naming one
    of its keys' last parts (so finetune.lr may be named lr or finetune.lr, and
    output.dir out_dir), or failed to open a file it names. The sweeps run where no
    file the pool names exists, so a config that names one and builds never read it."""
    path.write_text(json.dumps(laid(override)))
    try:
        exp, _ = experiment_from(load_config(str(path)))
    except FileNotFoundError as err:  # a path the config names is opened, and no synth setting is set beside it
        unread = [key for key, val in override if key in SYNTH_KEYS and val != DEFAULT_CONFIG["data"][key[5:]]]
        return None if not unread and any(err.filename == val for _, val in override) else f"{err!r}, {unread} unread"
    except Exception as err:  # another type is what the sweep looks for, so it is recorded
        named = any(key.rpartition(".")[2] in str(err) for key, _ in override)
        return None if isinstance(err, ValueError) and named else repr(err)
    unread = [name for name in PATHS if getattr(exp.data, name) is not None]
    return f"built without reading {unread}" if unread else None


# the data paths and the data-file keys, and the pool's one string: a path that names no file
PATHS = ("images", "labels", "test_images", "test_labels")
FILE_KEYS = [f"data.{name}" for name in (*PATHS, "per_class_test")]
SYNTH_KEYS = [f"data.{name}" for name in DataSpec.SYNTH]
NO_FILE = "x"
N_PAIRS = 300


def sweep(tmp_path, overrides):
    """(override, what it did) of each override that escapes."""
    found = [(override, escape(tmp_path / "config.json", override)) for override in overrides]
    return [(override, what) for override, what in found if what is not None]


def test_every_one_key_config_override_builds_or_is_refused_naming_its_field(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    keys = list(value_keys(DEFAULT_CONFIG))
    assert len(keys) == 27
    assert sweep(tmp_path, [[(key, val)] for key in keys for val in CONFIG_POOL]) == []


def test_sampled_two_key_config_overrides_build_or_are_refused_naming_a_field(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert NO_FILE in CONFIG_POOL and not (tmp_path / NO_FILE).exists()
    rng = np.random.default_rng(0)
    pairs = list(itertools.combinations(value_keys(DEFAULT_CONFIG), 2))
    drawn = [
        [(pairs[p][0], CONFIG_POOL[i]), (pairs[p][1], CONFIG_POOL[j])]
        for p, i, j in rng.integers([len(pairs), len(CONFIG_POOL), len(CONFIG_POOL)], size=(N_PAIRS, 3))
    ]
    # and every ordered pair of data-file keys: each pool value on one, the path on the other
    files = [[(a, val), (b, NO_FILE)] for a, b in itertools.permutations(FILE_KEYS, 2) for val in CONFIG_POOL]
    # and each synth key at each pool value beside each data file: the training pair, then both pairs
    named = [[(f"data.{name}", NO_FILE) for name in PATHS[:n]] for n in (2, 4)]
    synth = [[*paths, (key, val)] for paths in named for key in SYNTH_KEYS for val in CONFIG_POOL]
    assert sweep(tmp_path, drawn + files + synth) == []


# the one-epoch base each one-key override is laid over: 3 classes of 12 rows of dim 8,
# 6 training rows of each, a two-level stack, one epoch per phase and one trial
RUN_BASE = {
    "data": {"classes": 3, "per_class": 12, "dim": 8, "split": {"per_class_train": 6}},
    "stack": {"sizes": [8, 4, 2], "epochs": 1, "n_neighbors": 3, "batch_size": 8},
    "finetune": {"epochs": 1},
    "experiment": {"trials": 1},
}
# a trial failure names its phase: the split, a pretraining level (refused before
# level 1 trains, or failed while it trains), or the fine-tune
PHASE = re.compile(r"^\w+: (split failed: |level \d+ |pretraining failed at level \d+: |fine-tuning failed: )")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # as a user's run: a diverging value warns, it does not raise
def test_every_one_key_override_that_builds_runs_one_epoch_or_names_the_failed_phase(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path, ran, found = tmp_path / "config.json", 0, []
    for key in value_keys(DEFAULT_CONFIG):
        for val in CONFIG_POOL:
            path.write_text(json.dumps(laid([(key, val)], RUN_BASE)))
            try:
                built = experiment_from(load_config(str(path)))
            except (ValueError, FileNotFoundError):  # the load-time sweeps check how it is refused
                continue
            ran += 1
            try:
                failures = run_experiment(*built)[1]["failures"]
            except Exception as err:  # a run must record a failing trial, not raise
                failures = {"run": repr(err)}
            found += [(key, val, what) for what in failures.values() if not PHASE.match(what)]
    assert ran == 64  # the base itself, and every pool value its key takes
    assert found == []
