"""Greedy layerwise pretraining, stack assembly, and banded fine-tuning.

Each level trains as a standalone autoencoder on the previous level's
latent codes. Assembly copies the level layers in assembly_order. Each
assembled layer's snapshot is the flattened weight norm of the level layer
it was copied from. Fine-tuning retrains the assembled network end to end
and, after every epoch, rescales any layer whose snapshot-to-current norm
ratio left the band [1 - band, 1 + band].
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autoencoder import AEConfig, AEModel, LossBreakdown, build_model, encode, sgd_epochs, train, training_rows
from .numkit import Matrix, real

# Unused here, but perfbench/tracing.py patches these names on this module.
from .autoencoder import sgd_step, total_loss  # noqa: F401


@dataclass
class StackConfig:
    """Stack of autoencoder levels plus the fine-tuning phase.

    band is the allowed relative deviation of each layer's weight-norm
    ratio (snapshot norm over current norm) during fine-tuning; band = 0
    pins every norm to its snapshot, band >= 1 disables the lower edge,
    and band = inf means no band: no layer is ever rescaled.
    """

    levels: list  # AEConfig per level, dimensions chained
    band: float = 0.6
    finetune_epochs: int = 50
    finetune_lr: float = 0.05
    finetune_batch_size: int = 32
    finetune_seed: int = 0

    def __post_init__(self):
        if not self.levels:
            raise ValueError("need at least one level")
        for k, (prev, nxt) in enumerate(zip(self.levels, self.levels[1:]), start=1):
            if prev.latent_dim != nxt.input_dim:
                raise ValueError(
                    f"level {k + 1} input dim {nxt.input_dim} does not match "
                    f"level {k} latent dim {prev.latent_dim}"
                )
        self.band = real(self.band, "finetune.band", finite=False)
        self.finetune  # AEConfig's checks refuse a bad finetune_* value here, before any pretraining

    @property
    def finetune(self) -> AEConfig:
        """The fine-tune phase: level 1's AEConfig at weight 0 and the finetune_* values."""
        try:
            return replace(
                self.levels[0], excl_weight=0.0, lr=self.finetune_lr, epochs=self.finetune_epochs,
                batch_size=self.finetune_batch_size, seed=self.finetune_seed,
            )
        except ValueError as err:  # AEConfig's message names its field, the finetune section's key
            raise ValueError(f"finetune.{err}") from None

    @property
    def n_levels(self) -> int:
        return len(self.levels)


@dataclass
class StackedModel:
    """Pretrained levels and the deep model assembled from them."""

    levels: list
    assembled: AEModel

    def __post_init__(self):
        self.snapshots  # refuses a level weight whose norm is zero or not finite

    @property
    def snapshots(self) -> list:
        """One flattened weight norm per assembled layer, taken from the level layer it
        was assembled from: fine-tuning moves only the assembled copies."""
        snapshots = [flat_norm(layer.weight) for half in assembly_order(self.levels) for layer in half]
        if not all(0 < s < np.inf for s in snapshots):
            raise ValueError("snapshot norms must be finite and positive")
        return snapshots


@dataclass
class FinetuneEpoch:
    """One fine-tuning epoch: averaged losses and post-projection ratios."""

    loss: LossBreakdown
    ratios: list


def flat_norm(weight: Matrix) -> float:
    """Euclidean norm of the weight matrix flattened to a single vector; inf if it overflows."""
    with np.errstate(over="ignore"):  # each caller refuses an overflowed norm by name
        return float(np.linalg.norm(np.asarray(weight).ravel()))


def weight_ratio(snapshot_norm: float, current_weight: Matrix) -> float:
    """Snapshot norm over the current flattened weight norm."""
    if not 0 < snapshot_norm < np.inf:
        raise ValueError(f"snapshot norm must be finite and positive, got {snapshot_norm}")
    cur = flat_norm(current_weight)
    if cur == 0.0:
        raise ValueError("current weight has zero norm")
    if not cur < np.inf:  # else the ratio would read 0.0
        raise ValueError(f"current weight norm is not finite, got {cur}")
    return snapshot_norm / cur


def project_to_band(snapshot_norm: float, current_weight: Matrix, band: float) -> Matrix:
    """Rescale the weight so its ratio sits on the nearest band edge.

    In-band weights are returned unchanged (same object). For band >= 1
    the lower edge is never binding. The projection multiplies by a
    nonnegative scalar, so weight direction is preserved.
    """
    real(band, "band", finite=False)
    r = weight_ratio(snapshot_norm, current_weight)
    lo = 0.0 if band >= 1.0 else 1.0 - band
    hi = 1.0 + band
    if lo <= r <= hi:
        return current_weight
    edge = hi if r > hi else lo
    return current_weight * (r / edge)


def assembly_order(levels: list) -> tuple:
    """The level layers as the deep model stacks them, (encoder, decoder): the
    encoders in level order, then the decoders in reverse level order."""
    encoder = [layer for level in levels for layer in level.encoder]
    decoder = [layer for level in reversed(levels) for layer in level.decoder]
    return encoder, decoder


def assemble(levels: list) -> StackedModel:
    """Deep model from trained levels, its layers copied in assembly_order, so
    later fine-tuning never mutates the pretrained levels."""
    return StackedModel(levels, AEModel(*([layer.copy() for layer in half] for half in assembly_order(levels))))


def train_stack(config: StackConfig, dataset: Matrix):
    """Greedy pretraining of every level, then assembly.

    Level 1 trains on the raw rows; level k trains on level k-1's latent
    codes, with the exclusivity context rebuilt in that input space.
    Returns (StackedModel, per-level histories), pre-finetune. A level whose
    neighbor table the rows cannot fill is refused before level 1 trains.
    """
    data = np.asarray(dataset, dtype=np.float64)
    n = len(data)
    for k, level in enumerate(config.levels, start=1):
        if level.excl_weight != 0.0 and level.n_neighbors >= n:  # a row's m peers exclude itself
            raise ValueError(f"level {k} n_neighbors={level.n_neighbors} needs at least {level.n_neighbors + 1} rows, have {n}")
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
    return assemble(levels), histories


def _project_all(snapshots: list, model: AEModel, band: float) -> list:
    """Project every layer's weight into the band around its snapshot; returns the new ratios."""
    ratios = []
    for snap, layer in zip(snapshots, model.layers):
        layer.weight = project_to_band(snap, layer.weight, band)
        ratios.append(weight_ratio(snap, layer.weight))
    return ratios


def fine_tune(stacked: StackedModel, dataset: Matrix, config: StackConfig):
    """End-to-end training of the assembled model under the norm band.

    Reconstruction-only: no neighbor table is built. After every epoch
    each layer is projected back into its band (biases are not
    constrained). Returns (stacked, history of FinetuneEpoch). A failure past
    training_rows' checks is raised naming the phase, as train_stack names its level.
    """
    model, snapshots = stacked.assembled, stacked.snapshots
    epochs = sgd_epochs(model, config.finetune, training_rows(model, dataset))
    try:
        history = [FinetuneEpoch(loss=loss, ratios=_project_all(snapshots, model, config.band)) for loss in epochs]
    except Exception as err:
        raise RuntimeError(f"fine-tuning failed: {err}") from err
    return stacked, history
