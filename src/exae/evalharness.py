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

from .autoencoder import AEModel, LossBreakdown, model_parameters
from .dataio import (
    Dataset,
    SplitSpec,
    load_idx,
    load_image_dir,
    mirror,
    select_per_class,
    split_per_class,
    synth_gaussian,
)
from .numkit import DenseLayer, Matrix
from .stacking import FinetuneEpoch, StackConfig, StackedModel, fine_tune, train_stack

CHECKPOINT_MAGIC = b"EXAECKPT"
CHECKPOINT_VERSION = 1

KNN_METRICS = ("euclidean", "cosine")


class CheckpointError(ValueError):
    """Raised for unreadable, truncated, corrupt, or wrong-version checkpoints."""


def extract_features(stacked: StackedModel, dataset) -> Matrix:
    """Latent codes from the assembled encoder; rows follow the input rows."""
    from .autoencoder import encode

    x = dataset.examples if isinstance(dataset, Dataset) else np.asarray(dataset, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != stacked.assembled.input_dim:
        raise ValueError(
            f"dataset shape {x.shape} does not match encoder input dim "
            f"{stacked.assembled.input_dim}"
        )
    return encode(stacked.assembled, x)


def _pairwise_dist(query: Matrix, train: Matrix, metric: str) -> Matrix:
    if metric == "euclidean":
        d2 = (
            np.sum(query**2, axis=1)[:, None]
            - 2.0 * query @ train.T
            + np.sum(train**2, axis=1)[None, :]
        )
        return np.maximum(d2, 0.0)
    if metric == "cosine":
        qn = np.linalg.norm(query, axis=1)
        tn = np.linalg.norm(train, axis=1)
        sims = query @ train.T / np.maximum(np.outer(qn, tn), 1e-300)
        return 1.0 - sims
    raise ValueError(f"metric must be one of {KNN_METRICS}, got {metric!r}")


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
    evaluating a training set against itself.
    """
    train_feats = np.asarray(train_feats, dtype=np.float64)
    query_feats = np.asarray(query_feats, dtype=np.float64)
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

    dists = _pairwise_dist(query_feats, train_feats, metric)
    predictions = np.empty(query_feats.shape[0], dtype=np.int64)
    for q in range(query_feats.shape[0]):
        order = np.lexsort((np.arange(train_feats.shape[0]), dists[q]))
        if exclude_self:
            order = order[order != q]
        top = order[:k]
        votes = {}
        for idx in top:
            lbl = int(train_labels[idx])
            cnt, tot = votes.get(lbl, (0, 0.0))
            votes[lbl] = (cnt + 1, tot + dists[q, idx])
        predictions[q] = min(votes, key=lambda lbl: (-votes[lbl][0], votes[lbl][1], lbl))
    return predictions


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


def _trial_datasets(config: ExperimentConfig, data: Dataset, test: Dataset | None, seed: int):
    if test is not None:
        train = data
        if config.split.per_class_train:
            train = select_per_class(data, config.split.per_class_train, seed)
        if config.split.mirror_train:
            train = mirror(train)
        if config.data.per_class_test:
            # fixed across trials so every trial faces the same queries
            test = select_per_class(test, config.data.per_class_test, config.base_seed)
        return train, test
    spec = replace(config.split, seed=seed)
    return split_per_class(data, spec)


def run_trial(config: ExperimentConfig, data: Dataset, test: Dataset | None, trial: int) -> MetricsRecord:
    seed = config.base_seed + trial
    started = time.perf_counter()
    train_set, test_set = _trial_datasets(config, data, test, seed)
    stack_cfg = _reseed_stack(config.stack, seed)
    stacked, pretrain_hist = train_stack(stack_cfg, train_set.examples)
    stacked, finetune_hist = fine_tune(stacked, train_set.examples, stack_cfg)
    train_feats = extract_features(stacked, train_set)
    test_feats = extract_features(stacked, test_set)
    predicted = knn_classify(train_feats, train_set.labels, test_feats, config.knn_k, config.metric)
    acc = accuracy(predicted, test_set.labels)
    return MetricsRecord(
        trial=trial,
        pretrain=pretrain_hist,
        finetune=finetune_hist,
        accuracy=acc,
        seconds=time.perf_counter() - started,
    )


def run_experiment(config: ExperimentConfig):
    """All trials, metrics files, and the accuracy summary.

    Returns (records, summary). A failing trial is recorded in
    summary["failures"] and the remaining trials still run.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data, test = load_data(config.data)

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


def _layer_descriptor(layer: DenseLayer) -> dict:
    return {"in": layer.in_dim, "out": layer.out_dim, "activation": layer.activation}


def _model_descriptor(model: AEModel) -> dict:
    return {
        "encoder": [_layer_descriptor(l) for l in model.encoder],
        "decoder": [_layer_descriptor(l) for l in model.decoder],
    }


def _model_from_descriptor(desc: dict, params: list, cursor: int):
    def read_layers(specs):
        nonlocal cursor
        layers = []
        for s in specs:
            weight = params[cursor].reshape(s["out"], s["in"])
            bias = params[cursor + 1]
            cursor += 2
            layers.append(DenseLayer(weight, bias, s["activation"]))
        return layers

    model = AEModel(encoder=read_layers(desc["encoder"]), decoder=read_layers(desc["decoder"]))
    return model, cursor


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
    stored_crc = int.from_bytes(buf[-4:], "little")
    if zlib.crc32(buf[:-4]) != stored_crc:
        raise CheckpointError(f"checksum mismatch in {path} (truncated or corrupt)")

    header_len = int.from_bytes(buf[12:16], "little")
    if 16 + header_len > len(buf) - 4:
        raise CheckpointError(f"truncated checkpoint {path}")
    try:
        header = json.loads(buf[16 : 16 + header_len].decode())

        descriptors = header["levels"] + [header["assembled"]]
        sizes = []
        for desc in descriptors:
            for s in desc["encoder"] + desc["decoder"]:
                sizes.append(s["out"] * s["in"])
                sizes.append(s["out"])
        blob = buf[16 + header_len : -4]
        if len(blob) != 8 * sum(sizes):
            raise CheckpointError(f"truncated checkpoint {path}")
        flat = np.frombuffer(blob, dtype="<f8")
        params, offset = [], 0
        for size in sizes:
            params.append(flat[offset : offset + size].copy())
            offset += size

        cursor = 0
        levels = []
        for desc in header["levels"]:
            model, cursor = _model_from_descriptor(desc, params, cursor)
            levels.append(model)
        assembled, cursor = _model_from_descriptor(header["assembled"], params, cursor)
        return StackedModel(
            levels=levels,
            assembled=assembled,
            snapshots=header["snapshots"],
            norm_order=header.get("norm_order", 2),
        )
    except CheckpointError:
        raise
    except (ValueError, KeyError, TypeError) as err:
        raise CheckpointError(f"malformed checkpoint header in {path}: {err!r}") from err
