"""Feature extraction, nearest-neighbor evaluation, the repeated-trial
experiment protocol, metrics output, and binary checkpoints.

The experiment loop is deliberately boring: per trial, derive a seed,
split, pretrain, fine-tune, extract features, classify, score. Trials are
independent; a failed trial is recorded and the rest proceed.

Checkpoint binary layout (all integers little-endian):
  8-byte magic "EXAECKPT" | u32 version | u32 header length |
  JSON header (level architectures, optional config) |
  parameter block (float64 LE: the levels in header order, then the layers
  assembled from them in stacking.assembly_order) | u32 CRC-32 of all prior bytes
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass, fields, replace
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .autoencoder import AEModel, LossBreakdown, build_model, encode, model_parameters
from .dataio import Dataset, SplitSpec, load_idx, synth_gaussian, train_test_rows
from .numkit import COSINE_NORM_BOUND, DenseLayer, Matrix, as_matrix, cosine_norms, integer, integer_array, map_row_blocks, real
from .numkit import smallest, square_sums
from .stacking import FinetuneEpoch, StackConfig, StackedModel, assembly_order, fine_tune, train_stack

CHECKPOINT_MAGIC = b"EXAECKPT"
CHECKPOINT_VERSION = 1
# Bytes load_checkpoint reads at once to take the CRC, so it never holds the whole file.
_CRC_CHUNK = 1 << 20

# Each k-NN metric and the largest row side knn_classify accepts for it: as
# |q.t| <= |q||t|, no product, sum or quotient in _pairwise_dist can then overflow.
KNN_METRICS = {"euclidean": np.finfo(float).max / 8, "cosine": COSINE_NORM_BOUND}


def check_metric(metric) -> None:
    """ValueError unless metric names a KNN_METRICS entry: the one metric check."""
    if not isinstance(metric, str) or metric not in KNN_METRICS:  # [] is unhashable
        raise ValueError(f"metric must be one of {tuple(KNN_METRICS)}, got {metric!r}")


class CheckpointError(ValueError):
    """Raised for unreadable, truncated, corrupt, or wrong-version checkpoints."""


def extract_features(stacked: StackedModel, dataset) -> Matrix:
    """Latent codes from the assembled encoder, _FEATURE_BLOCK_ROWS rows in
    flight at a time (see map_row_blocks); rows follow the input rows."""
    x = dataset.examples if isinstance(dataset, Dataset) else np.asarray(dataset, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != stacked.assembled.input_dim:
        raise ValueError(
            f"dataset shape {x.shape} does not match encoder input dim "
            f"{stacked.assembled.input_dim}"
        )
    features = np.empty((x.shape[0], stacked.assembled.latent_dim))

    def encode_rows(start, stop):
        features[start:stop] = encode(stacked.assembled, x[start:stop])

    map_row_blocks(encode_rows, x.shape[0], _FEATURE_BLOCK_ROWS)
    return features


def _side(feats: Matrix, metric: str, name: str) -> np.ndarray:
    """Row sums of squares (euclidean) or norms (cosine), a block at a time as the distances.
    Refuses, naming it, a row past KNN_METRICS[metric], and (numkit.cosine_norms) a cosine row not
    all zero whose norm is below 1e-150: two nonzero norms then multiply to at least 1e-300."""
    if metric == "cosine":
        return cosine_norms(feats, _KNN_BLOCK_ROWS, f"{name} row")
    with np.errstate(over="ignore", under="ignore"):  # refused below, not raised: an overflowed side is inf
        side = square_sums(feats, _KNN_BLOCK_ROWS)
    ok = side <= KNN_METRICS[metric]
    if not ok.all():
        r = np.argmin(ok)
        raise ValueError(f"{name} row {r} is past the euclidean bound: squared norm {side[r]:.3g} > max/8")
    return side


def _pairwise_dist(query: Matrix, train: Matrix, metric: str, query_side, train_side) -> Matrix:
    """(queries x train) distances, computed in place in the product matrix.

    euclidean is max(|q|^2 - 2 q.t + |t|^2, 0) and cosine is 1 - q.t /
    max(|q||t|, 1e-300), each operation applied in that order, so the
    values are those of the plain expressions without their full-size
    temporaries: the cosine divisor is formed _COSINE_ROWS rows at a time.
    The sides are _side(query, ...) and _side(train, ...).
    """
    if metric == "euclidean":
        dists = (2.0 * query) @ train.T  # the doubling is exact unless a product is subnormal
        np.subtract(query_side[:, None], dists, out=dists)
        dists += train_side[None, :]
        return np.maximum(dists, 0.0, out=dists)
    dists = query @ train.T
    for start in range(0, len(dists), _COSINE_ROWS):  # the divisor a few rows at a time
        norms = np.outer(query_side[start : start + _COSINE_ROWS], train_side)
        dists[start : start + _COSINE_ROWS] /= np.maximum(norms, 1e-300, out=norms)
    return np.subtract(1.0, dists, out=dists)


# Queries whose distances knn_classify holds at once, in one block or its parts:
# memory is O(192 x train rows) for any number of queries. Each block's product
# packs the whole train side again; 10000 x 2000 x 128 products took 0.146 s in
# 64-row blocks and 0.110 s in 192-row ones (x86-64, OpenBLAS 0.3.31, 1 thread).
# 256-row blocks would hold more than an eighth of a 4000 x 2000 distance matrix.
_KNN_BLOCK_ROWS = 192
# Query rows of the cosine divisor |q||t| formed at once, beside a block's
# distances: a twelfth of a 192-row block, where a whole one held two blocks.
_COSINE_ROWS = 16
# Rows whose layer activations extract_features holds at once, in one block or
# its parts: 10000 rows through 784-256-128 took 0.123 s as one matrix and
# 0.092 s in 1024-row blocks, with equal bytes (same hardware and BLAS).
_FEATURE_BLOCK_ROWS = 1024


def knn_classify(
    train_feats: Matrix,
    train_labels,
    query_feats: Matrix,
    k: int = 1,
    metric: str = "euclidean",
) -> np.ndarray:
    """Majority vote among the k nearest training rows.

    Distance ties go to the lower training index. Vote ties go to the
    label with the smaller summed distance, then to the lower label.
    Non-finite features, and rows past the metric's KNN_METRICS bound
    (train rows first), raise ValueError naming the row: no distance overflows.

    Selection, per block of queries whose distances are computed, ranked
    and dropped in turn, gives the same neighbors, in the same order, as a
    lexsort of every distance on (distance, index), so the distances, tie
    rules and votes are unchanged. See numkit.smallest.
    """
    train_feats = as_matrix(train_feats, "train features")
    query_feats = as_matrix(query_feats, "query features")
    if query_feats.shape[1] != train_feats.shape[1]:
        raise ValueError(
            f"query features have {query_feats.shape[1]} columns, "
            f"train features {train_feats.shape[1]}"
        )
    train_labels = integer_array(train_labels, "train labels")
    if train_feats.shape[0] == 0:
        raise ValueError("empty training set")
    if train_labels.shape != (train_feats.shape[0],):
        raise ValueError("train labels length does not match train rows")
    if integer(k, "k") > train_feats.shape[0]:
        raise ValueError(f"k={k} out of range for {train_feats.shape[0]} training rows")

    check_metric(metric)
    train_side = _side(train_feats, metric, "train")
    query_side = _side(query_feats, metric, "query")
    labels, codes = np.unique(train_labels, return_inverse=True)
    predictions = np.empty(query_feats.shape[0], dtype=np.int64)

    def classify(start, stop):
        query = query_feats[start:stop]
        block = _pairwise_dist(query, train_feats, metric, query_side[start:stop], train_side)
        top = smallest(block, k)
        votes = _majority(codes[top], np.take_along_axis(block, top, axis=1), len(labels))
        predictions[start:stop] = labels[votes]

    map_row_blocks(classify, query_feats.shape[0], _KNN_BLOCK_ROWS)
    return predictions


def _majority(codes: np.ndarray, dists: Matrix, n_labels: int) -> np.ndarray:
    """The winning label code of each row: codes and dists hold a query's
    neighbors' label codes and distances in neighbor order, the order each
    label's distances are summed in, each times 2^-ceil(log2 k): exact but for
    subnormals, and k distances of up to max/2 (the euclidean bound) sum below max."""
    rows, scale = np.arange(codes.shape[0]), 0.5 ** (codes.shape[1] - 1).bit_length()
    counts = np.zeros((codes.shape[0], n_labels), dtype=np.int64)
    sums = np.zeros(counts.shape)
    for j in range(codes.shape[1]):
        counts[rows, codes[:, j]] += 1
        sums[rows, codes[:, j]] += dists[:, j] * scale
    top = counts == counts.max(axis=1, keepdims=True)
    least = np.min(np.where(top, sums, np.inf), axis=1, keepdims=True)
    return np.argmax(top & (sums == least), axis=1)


def evaluate(stacked: StackedModel, train: Dataset, test: Dataset, k: int, metric: str) -> float:
    """k-NN accuracy of test's codes against train's codes, both from stacked's encoder."""
    train_feats = extract_features(stacked, train)
    test_feats = extract_features(stacked, test)
    return accuracy(knn_classify(train_feats, train.labels, test_feats, k, metric), test.labels)


def accuracy(predicted, truth) -> float:
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise ValueError(f"length mismatch: {predicted.shape} vs {truth.shape}")
    if predicted.size == 0:
        raise ValueError("empty prediction array")
    return float(np.mean(predicted == truth))


# ---------------------------------------------------------------------------
# experiment protocol


@dataclass
class DataSpec:
    """Where the experiment's data comes from.

    Given images and labels, that IDX pair is read (plus an optional held-out
    test pair, in which case no split is performed); else synth_gaussian draws blobs.
    """

    SYNTH = ("classes", "dim", "per_class", "spread", "synth_seed")  # read only without images

    classes: int = 3
    dim: int = 32
    per_class: int = 100
    spread: float = 0.12
    synth_seed: int = 0
    images: str | None = None
    labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    per_class_test: int | None = None  # cap the explicit test set, per class

    def __post_init__(self):
        for name in ("images", "labels", "test_images", "test_labels"):
            if not isinstance(getattr(self, name), (str, Path, type(None))):
                raise ValueError(f"{name} must be a str, a Path or None, got {getattr(self, name)!r}")
        for pair in ("images", "labels"), ("test_images", "test_labels"):
            if (getattr(self, pair[0]) is None) != (getattr(self, pair[1]) is None):
                raise ValueError(f"{pair[0]} and {pair[1]} must be given together")
        if self.test_images is not None and self.images is None:  # every file named is read
            raise ValueError("test_images and test_labels need images and labels")
        if self.per_class_test is not None:
            self.per_class_test = integer(self.per_class_test, "per_class_test")
            if self.test_images is None:  # it caps nothing else
                raise ValueError("per_class_test needs test_images and test_labels")
        for name in ("classes", "dim", "per_class"):
            setattr(self, name, integer(getattr(self, name), name))
        self.spread = real(self.spread, "spread", positive=True)
        self.synth_seed = integer(self.synth_seed, "synth_seed", least=0)
        for f in fields(self):  # a synth setting beside the files would go unread
            if self.images is not None and f.name in self.SYNTH and getattr(self, f.name) != f.default:
                raise ValueError(f"{f.name} is unread when images are given, got {getattr(self, f.name)!r}")


def load_data(spec: DataSpec):
    """Returns (dataset, explicit_test_or_None). A dataset of fewer than two
    classes, and a test set whose rows are not as wide as the dataset's, are
    refused here, before any training."""
    if spec.images is None:
        data = synth_gaussian(spec.classes, spec.dim, spec.per_class, spec.spread, spec.synth_seed)
    else:
        data = load_idx(spec.images, spec.labels)
    n_classes = np.unique(data.labels).size
    if n_classes < 2:  # k-NN over one label scores 1.0 whatever the features
        raise ValueError(f"classes must be >= 2 for k-NN to score, got {n_classes} in {spec.labels or 'the synth rows'}")
    if spec.test_images is None:
        return data, None
    test = load_idx(spec.test_images, spec.test_labels)
    if test.dim != data.dim:
        raise ValueError(
            f"test rows in {spec.test_images} are {test.dim} wide but "
            f"training rows in {spec.images} are {data.dim} wide"
        )
    return data, test


@dataclass
class ExperimentConfig:
    data: DataSpec
    split: SplitSpec
    stack: StackConfig
    trials: int = 10
    knn_k: int = 1
    metric: str = "euclidean"
    base_seed: int = 0
    out_dir: str = "out"

    def __post_init__(self):
        self.trials = integer(self.trials, "trials")
        self.knn_k = integer(self.knn_k, "knn_k")
        self.base_seed = integer(self.base_seed, "base_seed", least=0)
        check_metric(self.metric)
        if not isinstance(self.out_dir, (str, Path)):
            raise ValueError(f"out_dir must be a str or a Path, got {self.out_dir!r}")


@dataclass
class MetricsRecord:
    """Everything measured in one trial."""

    trial: int
    pretrain: list  # per level: list of LossBreakdown
    finetune: list  # list of FinetuneEpoch
    accuracy: float
    seconds: float

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy {self.accuracy} outside [0, 1]")


def trial_setup(config: ExperimentConfig, loaded, trial: int):
    """Trial t's (train, test) rows and StackConfig: its split, every level and
    its fine-tune are seeded base_seed + t. loaded is the (data, test) pair of
    load_data(config.data). A knn_k past the training rows is refused here,
    before any training, as knn_classify would refuse it after it."""
    seed = config.base_seed + trial
    try:  # base_seed draws a capped explicit test set: every trial faces the same queries
        train_set, test_set = train_test_rows(
            *loaded, replace(config.split, seed=seed), config.data.per_class_test, config.base_seed)
    except ValueError as err:  # named as train_stack names its level and fine_tune its phase
        raise ValueError(f"split failed: {err}") from err
    if config.knn_k > train_set.n:
        raise ValueError(f"evaluation failed: k={config.knn_k} out of range for {train_set.n} training rows")
    levels = [replace(level, seed=seed) for level in config.stack.levels]
    return train_set, test_set, replace(config.stack, levels=levels, finetune_seed=seed)


def run_trial(config: ExperimentConfig, data: Dataset, test: Dataset | None, trial: int) -> tuple[MetricsRecord, StackedModel]:
    started = time.perf_counter()
    train_set, test_set, stack_cfg = trial_setup(config, (data, test), trial)
    stacked, pretrain_hist = train_stack(stack_cfg, train_set.examples)
    stacked, finetune_hist = fine_tune(stacked, train_set.examples, stack_cfg)
    try:
        acc = evaluate(stacked, train_set, test_set, config.knn_k, config.metric)
    except ValueError as err:  # named as the split, each level and the fine-tune are
        raise ValueError(f"evaluation failed: {err}") from err
    return MetricsRecord(trial=trial, pretrain=pretrain_hist, finetune=finetune_hist, accuracy=acc,
                         seconds=time.perf_counter() - started), stacked


def run_experiment(config: ExperimentConfig, loaded=None, header_config: dict | None = None):
    """All trials, metrics files, the accuracy summary, and trial 0's model.

    loaded is the (dataset, test) pair load_data(config.data) returns, for
    a caller that has already read the data; None reads it here.
    Returns (records, summary). A failing trial is recorded in
    summary["failures"] and the remaining trials still run. Trial 0's
    fine-tuned stack is saved as out_dir/model.ckpt, with header_config as
    its header's config; if trial 0 fails, no model.ckpt is left.
    """
    data, test = load_data(config.data) if loaded is None else loaded
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "model.ckpt").unlink(missing_ok=True)  # never an earlier run's model

    records, failures = [], {}
    for trial in range(config.trials):
        try:
            record, stacked = run_trial(config, data, test, trial)
        except Exception as err:
            failures[trial] = f"{type(err).__name__}: {err}"
            continue
        records.append(record)
        if trial == 0:  # after the trial's timer stopped: timings.csv times the trial alone
            save_checkpoint(stacked, out_dir / "model.ckpt", config=header_config)
        del stacked  # no trial's model is held while the next one trains
    accs = [r.accuracy for r in records]
    summary = {
        "trials": config.trials,
        "completed": len(records),
        "partial": bool(failures),
        "failures": failures,
        "accuracy_mean": float(np.mean(accs)) if accs else None,
        "accuracy_std": float(np.std(accs)) if accs else None,
        "accuracies": accs,
    }
    write_metrics(records, out_dir / "metrics.csv")
    write_timings(records, out_dir / "timings.csv")
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return records, summary


def write_metrics(records: list, path) -> None:
    """Flat CSV in LossBreakdown.FIELDS columns: per-epoch loss rows per phase, then one result row per trial.

    Wall-clock times go to the timings sidecar so this file is
    byte-stable for a fixed seed.
    """
    lines = ["trial,phase,epoch," + ",".join(LossBreakdown.FIELDS) + ",accuracy"]
    for rec in records:
        phases = [(f"pretrain-level-{level}", history) for level, history in enumerate(rec.pretrain, start=1)]
        for phase, history in phases + [("finetune", [fe.loss for fe in rec.finetune])]:
            for epoch, b in enumerate(history):
                vals = ",".join(repr(getattr(b, name)) for name in LossBreakdown.FIELDS)
                lines.append(f"{rec.trial},{phase},{epoch},{vals},")
        lines.append(f"{rec.trial},result,," + "," * len(LossBreakdown.FIELDS) + repr(rec.accuracy))
    Path(path).write_text("\n".join(lines) + "\n")


def write_timings(records: list, path) -> None:
    lines = ["trial,seconds"]
    for rec in records:
        lines.append(f"{rec.trial},{rec.seconds:.3f}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# checkpoints


def _model_descriptor(model: AEModel) -> dict:
    return {
        half: [{"in": l.in_dim, "out": l.out_dim, "activation": l.activation} for l in layers]
        for half, layers in (("encoder", model.encoder), ("decoder", model.decoder))
    }


def check_levels(stacked: StackedModel, levels: list, path) -> StackedModel:
    """stacked, the checkpoint at path, unless a level's sizes or activations differ from
    those build_model gives the AEConfig levels: ValueError naming the first that does."""
    want = [_model_descriptor(build_model(level)) for level in levels]
    for k, (have, built) in enumerate(zip_longest(map(_model_descriptor, stacked.levels), want, fillvalue="none"), 1):
        if have != built:
            raise ValueError(f"checkpoint {path} level {k} is {have}, but the stack section builds {built}")
    return stacked


def save_checkpoint(stacked: StackedModel, path, config: dict | None = None) -> None:
    """Write the levels and the assembled model's parameters; bit-exact on reload.

    Each parameter is written from its own buffer under a running CRC: no copy of the file."""
    header = {"levels": [_model_descriptor(m) for m in stacked.levels], "config": config}
    header_bytes = json.dumps(header, sort_keys=True).encode()  # fails before the file exists
    chunks = [CHECKPOINT_MAGIC, CHECKPOINT_VERSION.to_bytes(4, "little")]
    chunks += [len(header_bytes).to_bytes(4, "little"), header_bytes]
    for model in [*stacked.levels, stacked.assembled]:  # ascontiguousarray: no copy of C float64
        chunks += [np.ascontiguousarray(p, dtype="<f8") for p in model_parameters(model)]
    crc = 0
    with open(path, "wb") as f:
        for chunk in chunks:
            f.write(chunk)
            crc = zlib.crc32(chunk, crc)
        f.write(crc.to_bytes(4, "little"))


def load_checkpoint(path) -> StackedModel:
    """The StackedModel save_checkpoint wrote to path, bit for bit.

    The magic, the version and the CRC, taken a _CRC_CHUNK at a time, are
    checked before any other byte is parsed; each weight and bias is then
    read straight into its own array, so the load holds no copy of the file."""
    with open(path, "rb") as f:
        head = f.read(16)
        if len(head) < 16 or head[:8] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"corrupt checkpoint header in {path}")
        version = int.from_bytes(head[8:12], "little")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {version} in {path} not supported (want {CHECKPOINT_VERSION})"
            )
        size = f.seek(0, 2) - 4  # the bytes the CRC covers
        f.seek(0)
        crc = 0
        for done in range(0, size, _CRC_CHUNK):
            crc = zlib.crc32(f.read(min(size - done, _CRC_CHUNK)), crc)
        if crc != int.from_bytes(f.read(4), "little"):
            raise CheckpointError(f"checksum mismatch in {path} (truncated or corrupt)")

        header_len = int.from_bytes(head[12:16], "little")
        if 16 + header_len > size:
            raise CheckpointError(f"truncated checkpoint {path}")
        f.seek(16)
        header_bytes, left = f.read(header_len), size - 16 - header_len

        def layer(n_in, n_out, activation) -> DenseLayer:  # the next weight and bias in the block
            nonlocal left
            nbytes = 8 * n_out * (n_in + 1)
            if not 0 < nbytes <= left:
                raise CheckpointError(f"truncated checkpoint {path}")
            left -= nbytes
            weight, bias = np.empty((n_out, n_in), "<f8"), np.empty(n_out, "<f8")
            if f.readinto(weight) + f.readinto(bias) != nbytes:  # cut short since its CRC was taken
                raise CheckpointError(f"truncated checkpoint {path}")
            return DenseLayer(weight, bias, activation)

        try:
            header = json.loads(header_bytes.decode())
            levels = [
                AEModel(*([layer(s["in"], s["out"], s["activation"]) for s in desc[h]] for h in ("encoder", "decoder")))
                for desc in header["levels"]
            ]
            halves = assembly_order(levels)  # the assembled layers' shapes and activations
            assembled = AEModel(*([layer(l.in_dim, l.out_dim, l.activation) for l in half] for half in halves))
            if left != 0:
                raise CheckpointError(f"truncated checkpoint {path}")
            return StackedModel(levels, assembled)
        except CheckpointError:
            raise
        except (ValueError, KeyError, TypeError) as err:
            raise CheckpointError(f"malformed checkpoint {path}: {err!r}") from err
