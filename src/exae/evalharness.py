"""Feature extraction, nearest-neighbor evaluation, the repeated-trial
experiment protocol, metrics output, and binary checkpoints.

The experiment loop is deliberately boring: per trial, derive a seed,
split, pretrain, fine-tune, extract features, classify, score. Trials are
independent; a failed trial is recorded and the rest proceed.

Checkpoint binary layout (all integers little-endian):
  8-byte magic "EXAECKPT" | u32 version | u32 header length |
  JSON header (architecture, snapshots, optional config) |
  parameter block (float64 LE, header order) | u32 CRC-32 of all prior bytes
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .autoencoder import AEModel, LossBreakdown, encode, model_parameters
from .dataio import Dataset, SplitSpec, load_idx, load_image_dir, synth_gaussian, train_test_rows
from .numkit import DenseLayer, Matrix, as_matrix
from .stacking import FinetuneEpoch, StackConfig, StackedModel, fine_tune, train_stack

CHECKPOINT_MAGIC = b"EXAECKPT"
CHECKPOINT_VERSION = 1

KNN_METRICS = ("euclidean", "cosine")


class CheckpointError(ValueError):
    """Raised for unreadable, truncated, corrupt, or wrong-version checkpoints."""


def extract_features(stacked: StackedModel, dataset) -> Matrix:
    """Latent codes from the assembled encoder; rows follow the input rows."""
    x = dataset.examples if isinstance(dataset, Dataset) else np.asarray(dataset, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != stacked.assembled.input_dim:
        raise ValueError(
            f"dataset shape {x.shape} does not match encoder input dim "
            f"{stacked.assembled.input_dim}"
        )
    return encode(stacked.assembled, x)


def _train_side(train: Matrix, metric: str) -> np.ndarray:
    """sum(train**2, axis=1) for euclidean, norm(train, axis=1) for cosine."""
    if metric not in KNN_METRICS:
        raise ValueError(f"metric must be one of {KNN_METRICS}, got {metric!r}")
    return np.sum(train**2, axis=1) if metric == "euclidean" else np.linalg.norm(train, axis=1)


def _pairwise_dist(query: Matrix, train: Matrix, metric: str, train_side=None) -> Matrix:
    """(queries x train) distances, computed in place in the product matrix.

    euclidean is max(|q|^2 - 2 q.t + |t|^2, 0) and cosine is 1 - q.t /
    max(|q||t|, 1e-300), each operation applied in that order, so the
    values are those of the plain expressions without their full-size
    temporaries. train_side defaults to _train_side(train, metric).
    """
    if train_side is None:
        train_side = _train_side(train, metric)
    dists = query @ train.T
    if metric == "euclidean":
        dists *= 2.0
        np.subtract(np.sum(query**2, axis=1)[:, None], dists, out=dists)
        dists += train_side[None, :]
        return np.maximum(dists, 0.0, out=dists)
    norms = np.outer(np.linalg.norm(query, axis=1), train_side)
    dists /= np.maximum(norms, 1e-300, out=norms)
    return np.subtract(1.0, dists, out=dists)


# Queries whose distances knn_classify holds at once: memory is O(64 x train
# rows), whatever the number of queries.
_KNN_BLOCK_ROWS = 64


def knn_classify(
    train_feats: Matrix,
    train_labels,
    query_feats: Matrix,
    k: int = 1,
    metric: str = "euclidean",
    exclude_self: bool = False,
) -> np.ndarray:
    """Majority vote among the k nearest training rows.

    Distance ties go to the lower training index. Vote ties go to the
    label with the smaller summed distance, then to the lower label.
    exclude_self skips the candidate with the query's own row index, for
    evaluating a training set against itself. Non-finite features, and
    finite ones whose distances overflow, raise ValueError naming the row.

    Selection, per block of queries whose distances are computed, ranked
    and dropped in turn, gives the same neighbors, in the same order, as a
    lexsort of every distance on (distance, index), so the distances, tie
    rules and votes are unchanged. See _nearest.
    """
    train_feats = as_matrix(train_feats, "train features")
    query_feats = as_matrix(query_feats, "query features")
    train_labels = np.asarray(train_labels, dtype=np.int64)
    if train_feats.shape[0] == 0:
        raise ValueError("empty training set")
    if train_labels.shape != (train_feats.shape[0],):
        raise ValueError("train labels length does not match train rows")
    if exclude_self and query_feats.shape[0] != train_feats.shape[0]:
        raise ValueError("exclude_self only makes sense when the query set is the training set")
    n_candidates = train_feats.shape[0] - (1 if exclude_self else 0)
    if not 1 <= k <= n_candidates:
        raise ValueError(f"k={k} out of range for {n_candidates} candidates")

    train_side = _train_side(train_feats, metric)
    labels, codes = np.unique(train_labels, return_inverse=True)
    reach = k + (1 if exclude_self else 0)
    predictions = np.empty(query_feats.shape[0], dtype=np.int64)
    for start in range(0, query_feats.shape[0], _KNN_BLOCK_ROWS):
        stop = min(start + _KNN_BLOCK_ROWS, query_feats.shape[0])
        block = _pairwise_dist(query_feats[start:stop], train_feats, metric, train_side)
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            raise ValueError(f"non-finite distance for query row {start + np.argmin(finite)}")
        top = _nearest(block, reach)
        if exclude_self:  # top[top != q][:k] for every query q of the block
            keep = top != np.arange(start, stop)[:, None]
            keep[:, -1] &= ~keep.all(axis=1)
            top = top[keep].reshape(-1, k)
        votes = _majority(codes[top], np.take_along_axis(block, top, axis=1), len(labels))
        predictions[start:stop] = labels[votes]
    return predictions


# Every _KNN_SAMPLE_STRIDE-th column of a block bounds each row's reach-th
# distance (8 and 16 were slower on 2000 training rows), and a row with at most
# _KNN_GATHER_WIDTH distances under that bound is ranked on those alone.
_KNN_SAMPLE_STRIDE = 4
_KNN_GATHER_WIDTH = 64


def _nearest(block: Matrix, reach: int) -> np.ndarray:
    """The reach smallest entries of each row, as column indices in
    (distance, index) order: the first reach columns of a full lexsort.

    The reach-th smallest value of a strided sample of a row's columns is
    an upper bound on the row's own reach-th distance, so the row's
    candidates, its at least reach distances at or below the bound, hold
    the reach nearest. Rows with few candidates are lexsorted on those
    alone; the rest (ties at the bound) take _sorted_nearest.
    """
    n = block.shape[1]
    sample = block[:, ::_KNN_SAMPLE_STRIDE]
    if sample.shape[1] < reach:
        return _sorted_nearest(block, reach)
    bound = np.sort(sample, axis=1)[:, reach - 1 : reach]
    candidate = block <= bound
    counts = candidate.sum(axis=1)
    gathered = counts <= _KNN_GATHER_WIDTH
    if not gathered.any():
        return _sorted_nearest(block, reach)
    rows = np.flatnonzero(gathered)
    counts = counts[rows]
    # candidates of each gathered row, left-aligned and padded with (inf, n)
    line, cols = np.divmod(np.flatnonzero(candidate[rows]), n)
    slot = np.arange(cols.size) - np.repeat(np.cumsum(counts) - counts, counts)
    index = np.full((rows.size, counts.max()), n)
    dists = np.full(index.shape, np.inf)
    index[line, slot] = cols
    dists[line, slot] = block[rows[line], cols]
    order = np.lexsort((index, dists), axis=1)[:, :reach]
    nearest = np.empty((block.shape[0], reach), dtype=np.int64)
    nearest[rows] = np.take_along_axis(index, order, axis=1)
    if rows.size < block.shape[0]:
        nearest[~gathered] = _sorted_nearest(block[~gathered], reach)
    return nearest


def _sorted_nearest(block: Matrix, reach: int) -> np.ndarray:
    """_nearest by a sort of whole rows, for rows of any ties."""
    # np.partition runs about ten times slower than a sort on rows full of
    # tied distances, as collapsed (mostly all-zero) codes give
    kth = np.sort(block, axis=1)[:, reach - 1 : reach]
    below = block < kth
    tied = block == kth
    # the lowest-index ties fill the places left below the reach-th distance
    room = reach - below.sum(axis=1)
    over = tied.sum(axis=1) > room
    if over.any():
        tied[over] &= np.cumsum(tied[over], axis=1) <= room[over, None]
    cols = (np.flatnonzero(below | tied) % block.shape[1]).reshape(-1, reach)
    order = np.lexsort((cols, np.take_along_axis(block, cols, axis=1)), axis=1)
    return np.take_along_axis(cols, order, axis=1)


def _majority(codes: np.ndarray, dists: Matrix, n_labels: int) -> np.ndarray:
    """The winning label code of each row: codes and dists hold a query's
    neighbors' label codes and distances in neighbor order, the order each
    label's distances are summed in."""
    rows = np.arange(codes.shape[0])
    counts = np.zeros((codes.shape[0], n_labels), dtype=np.int64)
    sums = np.zeros(counts.shape)
    for j in range(codes.shape[1]):
        counts[rows, codes[:, j]] += 1
        sums[rows, codes[:, j]] += dists[:, j]
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

    source "synth" draws Gaussian blobs; "idx" reads an IDX pair (plus an
    optional held-out test pair, in which case no split is performed);
    "image_dir" reads a graymap directory tree.
    """

    source: str = "synth"
    classes: int = 3
    dim: int = 32
    per_class: int = 100
    spread: float = 0.12
    synth_seed: int = 0
    images: str | None = None
    labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    root: str | None = None
    per_class_test: int | None = None  # cap the explicit test set, per class

    def __post_init__(self):
        if self.source not in ("synth", "idx", "image_dir"):
            raise ValueError(f"unknown data source {self.source!r}")
        if self.per_class_test is not None and self.per_class_test < 1:
            raise ValueError(f"per_class_test must be >= 1 or null, got {self.per_class_test}")


def load_data(spec: DataSpec):
    """Returns (dataset, explicit_test_or_None)."""
    if spec.source == "synth":
        return (
            synth_gaussian(spec.classes, spec.dim, spec.per_class, spec.spread, spec.synth_seed),
            None,
        )
    if spec.source == "idx":
        data = load_idx(spec.images, spec.labels)
        test = None
        if spec.test_images is not None:
            test = load_idx(spec.test_images, spec.test_labels)
        return data, test
    return load_image_dir(spec.root), None


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
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.knn_k < 1:
            raise ValueError("knn_k must be >= 1")
        if self.metric not in KNN_METRICS:
            raise ValueError(f"metric must be one of {KNN_METRICS}")


@dataclass
class MetricsRecord:
    """Everything measured in one trial.

    accuracy is None for training-only runs that never evaluated.
    """

    trial: int
    pretrain: list  # per level: list of LossBreakdown
    finetune: list  # list of FinetuneEpoch
    accuracy: float | None
    seconds: float

    def __post_init__(self):
        if self.accuracy is not None and not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy {self.accuracy} outside [0, 1]")


def _reseed_stack(stack: StackConfig, seed: int) -> StackConfig:
    levels = [replace(cfg, seed=seed) for cfg in stack.levels]
    return replace(stack, levels=levels, finetune_seed=seed)


def run_trial(config: ExperimentConfig, data: Dataset, test: Dataset | None, trial: int) -> MetricsRecord:
    seed = config.base_seed + trial
    started = time.perf_counter()
    # base_seed draws a capped explicit test set: every trial faces the same queries
    train_set, test_set = train_test_rows(
        data, test, replace(config.split, seed=seed), config.data.per_class_test, config.base_seed
    )
    stack_cfg = _reseed_stack(config.stack, seed)
    stacked, pretrain_hist = train_stack(stack_cfg, train_set.examples)
    stacked, finetune_hist = fine_tune(stacked, train_set.examples, stack_cfg)
    return MetricsRecord(
        trial=trial,
        pretrain=pretrain_hist,
        finetune=finetune_hist,
        accuracy=evaluate(stacked, train_set, test_set, config.knn_k, config.metric),
        seconds=time.perf_counter() - started,
    )


def run_experiment(config: ExperimentConfig, loaded=None):
    """All trials, metrics files, and the accuracy summary.

    loaded is the (dataset, test) pair load_data(config.data) returns, for
    a caller that has already read the data; None reads it here.
    Returns (records, summary). A failing trial is recorded in
    summary["failures"] and the remaining trials still run.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data, test = load_data(config.data) if loaded is None else loaded

    records, failures = [], {}
    for trial in range(config.trials):
        try:
            records.append(run_trial(config, data, test, trial))
        except Exception as err:
            failures[trial] = f"{type(err).__name__}: {err}"
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


def _loss_row(trial: int, phase: str, epoch: int, b: LossBreakdown) -> str:
    vals = [repr(getattr(b, name)) for name in LossBreakdown.FIELDS]
    return f"{trial},{phase},{epoch}," + ",".join(vals) + ","


def write_metrics(records: list, path) -> None:
    """Flat CSV: per-epoch loss rows per phase, then one result row per trial.

    Wall-clock times go to the timings sidecar so this file is
    byte-stable for a fixed seed.
    """
    lines = ["trial,phase,epoch,recon,hetero_sim,homo_sim,excl,total,accuracy"]
    for rec in records:
        for level, history in enumerate(rec.pretrain, start=1):
            for epoch, b in enumerate(history):
                lines.append(_loss_row(rec.trial, f"pretrain-level-{level}", epoch, b))
        for epoch, fe in enumerate(rec.finetune):
            lines.append(_loss_row(rec.trial, "finetune", epoch, fe.loss))
        if rec.accuracy is not None:
            lines.append(f"{rec.trial},result,,,,,,,{rec.accuracy!r}")
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


def save_checkpoint(stacked: StackedModel, path, config: dict | None = None) -> None:
    """Write the levels, assembled model, and snapshots; bit-exact on reload."""
    header = {
        "levels": [_model_descriptor(m) for m in stacked.levels],
        "assembled": _model_descriptor(stacked.assembled),
        "snapshots": stacked.snapshots,
        "norm_order": stacked.norm_order,
        "config": config,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    params = []
    for model in stacked.levels:
        params.extend(model_parameters(model))
    params.extend(model_parameters(stacked.assembled))
    blob = b"".join(p.astype("<f8").tobytes() for p in params)

    body = (
        CHECKPOINT_MAGIC
        + CHECKPOINT_VERSION.to_bytes(4, "little")
        + len(header_bytes).to_bytes(4, "little")
        + header_bytes
        + blob
    )
    body += zlib.crc32(body).to_bytes(4, "little")
    Path(path).write_bytes(body)


def load_checkpoint(path) -> StackedModel:
    buf = Path(path).read_bytes()
    if len(buf) < 16 or buf[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"corrupt checkpoint header in {path}")
    version = int.from_bytes(buf[8:12], "little")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version} not supported (want {CHECKPOINT_VERSION})"
        )
    view = memoryview(buf)  # slices of a view copy nothing
    stored_crc = int.from_bytes(buf[-4:], "little")
    if zlib.crc32(view[:-4]) != stored_crc:
        raise CheckpointError(f"checksum mismatch in {path} (truncated or corrupt)")

    header_len = int.from_bytes(buf[12:16], "little")
    if 16 + header_len > len(buf) - 4:
        raise CheckpointError(f"truncated checkpoint {path}")
    try:
        header = json.loads(buf[16 : 16 + header_len].decode())

        # parameters in header order: per layer the weight, then the bias
        blob, offset, models = view[16 + header_len : -4], 0, []
        for desc in header["levels"] + [header["assembled"]]:
            halves = {"encoder": [], "decoder": []}
            for half, layers in halves.items():
                for s in desc[half]:
                    n_out, n_in = s["out"], s["in"]
                    end = offset + 8 * n_out * (n_in + 1)
                    if not offset < end <= len(blob):
                        raise CheckpointError(f"truncated checkpoint {path}")
                    flat = np.frombuffer(blob[offset:end], "<f8")
                    weight = flat[: n_out * n_in].reshape(n_out, n_in).copy()
                    layers.append(DenseLayer(weight, flat[n_out * n_in :].copy(), s["activation"]))
                    offset = end
            models.append(AEModel(**halves))
        if offset != len(blob):
            raise CheckpointError(f"truncated checkpoint {path}")
        return StackedModel(
            levels=models[:-1],
            assembled=models[-1],
            snapshots=header["snapshots"],
            norm_order=header.get("norm_order", 2),
        )
    except CheckpointError:
        raise
    except (ValueError, KeyError, TypeError) as err:
        raise CheckpointError(f"malformed checkpoint header in {path}: {err!r}") from err
