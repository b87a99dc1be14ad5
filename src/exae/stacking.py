"""Greedy layerwise pretraining, stack assembly, and banded fine-tuning.

Each level trains as a standalone autoencoder on the previous level's
latent codes. Assembly concatenates the encoders in level order and the
decoders in reverse level order, then records each layer's flattened
weight norm. Fine-tuning retrains the assembled network end to end and,
after every epoch, rescales any layer whose snapshot-to-current norm ratio
left the band [1 - band, 1 + band].
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autoencoder import AEModel, LossBreakdown, build_model, encode, sgd_epochs, train, training_rows
from .numkit import Matrix

# Unused here, but perfbench/tracing.py patches these names on this module.
from .autoencoder import sgd_step, total_loss  # noqa: F401


@dataclass
class StackConfig:
    """Stack of autoencoder levels plus the fine-tuning phase.

    band is the allowed relative deviation of each layer's weight-norm
    ratio (snapshot norm over current norm) during fine-tuning; band = 0
    pins every norm to its snapshot, band >= 1 disables the lower edge.
    norm_order is the p of the flattened-vector p-norm.
    """

    levels: list  # AEConfig per level, dimensions chained
    band: float = 0.6
    norm_order: float = 2
    finetune_epochs: int = 50
    finetune_lr: float = 0.05
    finetune_batch_size: int = 32
    finetune_seed: int = 0
    finetune_excl_weight: float = 0.0  # 0 keeps fine-tuning reconstruction-only
    finetune_neighbors: int = 6

    def __post_init__(self):
        if not self.levels:
            raise ValueError("need at least one level")
        for k, (prev, nxt) in enumerate(zip(self.levels, self.levels[1:]), start=1):
            if prev.latent_dim != nxt.input_dim:
                raise ValueError(
                    f"level {k + 1} input dim {nxt.input_dim} does not match "
                    f"level {k} latent dim {prev.latent_dim}"
                )
        if self.band < 0:
            raise ValueError(f"band must be >= 0, got {self.band}")
        if self.finetune_epochs < 0:
            raise ValueError("finetune_epochs must be >= 0")
        if self.finetune_lr <= 0:
            raise ValueError("finetune_lr must be positive")
        if self.finetune_batch_size < 1:
            raise ValueError("finetune_batch_size must be >= 1")
        if self.finetune_excl_weight < 0:
            raise ValueError(f"finetune_excl_weight must be >= 0, got {self.finetune_excl_weight}")
        if self.finetune_neighbors < 1:
            raise ValueError(f"finetune_neighbors must be >= 1, got {self.finetune_neighbors}")

    @property
    def n_levels(self) -> int:
        return len(self.levels)


@dataclass
class StackedModel:
    """Pretrained levels, the assembled deep model, and its norm snapshots.

    snapshots holds one flattened weight norm per assembled layer (encoder
    layers first, then decoder layers), taken at assembly time.
    """

    levels: list
    assembled: AEModel
    snapshots: list
    norm_order: float = 2

    def __post_init__(self):
        n_layers = len(self.assembled.encoder) + len(self.assembled.decoder)
        if len(self.snapshots) != n_layers:
            raise ValueError(
                f"{len(self.snapshots)} snapshots for {n_layers} assembled layers"
            )
        if any(s <= 0 for s in self.snapshots):
            raise ValueError("snapshot norms must be positive")


@dataclass
class FinetuneEpoch:
    """One fine-tuning epoch: averaged losses and post-projection ratios."""

    loss: LossBreakdown
    ratios: list


def flat_norm(weight: Matrix, p: float = 2) -> float:
    """p-norm of the weight matrix flattened to a single vector."""
    return float(np.linalg.norm(np.asarray(weight).ravel(), ord=p))


def weight_ratio(snapshot_norm: float, current_weight: Matrix, p: float = 2) -> float:
    """Snapshot norm over the current flattened weight norm."""
    if snapshot_norm <= 0:
        raise ValueError(f"snapshot norm must be positive, got {snapshot_norm}")
    cur = flat_norm(current_weight, p)
    if cur == 0.0:
        raise ValueError("current weight has zero norm")
    return snapshot_norm / cur


def project_to_band(snapshot_norm: float, current_weight: Matrix, band: float, p: float = 2) -> Matrix:
    """Rescale the weight so its ratio sits on the nearest band edge.

    In-band weights are returned unchanged (same object). For band >= 1
    the lower edge is never binding. The projection multiplies by a
    nonnegative scalar, so weight direction is preserved.
    """
    if band < 0:
        raise ValueError(f"band must be >= 0, got {band}")
    r = weight_ratio(snapshot_norm, current_weight, p)
    lo = 0.0 if band >= 1.0 else 1.0 - band
    hi = 1.0 + band
    if lo <= r <= hi:
        return current_weight
    edge = hi if r > hi else lo
    return current_weight * (r / edge)


def assemble(levels: list, norm_order: float = 2) -> StackedModel:
    """Deep model from trained levels: encoders in order, decoders reversed.

    Layers are copied, so later fine-tuning never mutates the pretrained
    levels. Snapshots are recorded from the copies.
    """
    encoder = [layer.copy() for level in levels for layer in level.encoder]
    decoder = [layer.copy() for level in reversed(levels) for layer in level.decoder]
    assembled = AEModel(encoder=encoder, decoder=decoder)
    snapshots = [flat_norm(layer.weight, norm_order) for layer in assembled.layers]
    return StackedModel(
        levels=levels, assembled=assembled, snapshots=snapshots, norm_order=norm_order
    )


def train_stack(config: StackConfig, dataset: Matrix):
    """Greedy pretraining of every level, then assembly.

    Level 1 trains on the raw rows; level k trains on level k-1's latent
    codes, with the exclusivity context rebuilt in that input space.
    Returns (StackedModel, per-level histories), pre-finetune.
    """
    data = np.asarray(dataset, dtype=np.float64)
    levels, histories = [], []
    for k, level_cfg in enumerate(config.levels, start=1):
        model = build_model(level_cfg)
        try:
            model, history = train(model, level_cfg, data)
        except Exception as err:
            raise RuntimeError(f"pretraining failed at level {k}: {err}") from err
        levels.append(model)
        histories.append(history)
        if k < config.n_levels:
            data = encode(model, data)
    return assemble(levels, config.norm_order), histories


def _project_all(stacked: StackedModel, band: float) -> list:
    """Project every assembled layer's weight; returns the new ratios."""
    ratios = []
    for snap, layer in zip(stacked.snapshots, stacked.assembled.layers):
        layer.weight = project_to_band(snap, layer.weight, band, stacked.norm_order)
        ratios.append(weight_ratio(snap, layer.weight, stacked.norm_order))
    return ratios


def fine_tune(stacked: StackedModel, dataset: Matrix, config: StackConfig):
    """End-to-end training of the assembled model under the norm band.

    Reconstruction-only by default; finetune_excl_weight > 0 turns the
    exclusivity term back on, with its context built on the raw rows.
    After every epoch each layer is projected back into its band (biases
    are not constrained). Returns (stacked, history of FinetuneEpoch).
    """
    model = stacked.assembled
    data = training_rows(model, dataset)
    # total_loss reads only the loss settings: level 1's, at the fine-tune weight
    loss_cfg = replace(
        config.levels[0], excl_weight=config.finetune_excl_weight, n_neighbors=config.finetune_neighbors
    )
    epochs = sgd_epochs(
        model, loss_cfg, data, config.finetune_lr, config.finetune_epochs,
        config.finetune_batch_size, config.finetune_seed,
    )
    history = [FinetuneEpoch(loss=loss, ratios=_project_all(stacked, config.band)) for loss in epochs]
    return stacked, history
