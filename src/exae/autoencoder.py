"""Single autoencoder with the exclusivity-regularized objective.

The objective is the reconstruction error plus excl_weight times the
exclusivity term. excl_weight != 0 is the one switch for the regularizer:
at 0 the objective is a plain autoencoder's, no neighbor table is built or
read, and the exclusivity fields of the loss history take their inactive
values 0 / 1 / 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exclusivity as excl
from .numkit import (
    ACTIVATIONS,
    LayerGrads,
    Matrix,
    affine_backward,
    affine_forward,
    as_matrix,
    init_layer,
    integer,
    real,
    sgd_step,
)


@dataclass
class AEConfig:
    """Hyperparameters of one autoencoder.

    layer_sizes runs input -> ... -> latent; the decoder mirrors it.
    """

    layer_sizes: list
    latent_activation: str = "relu"
    output_activation: str = "sigmoid"
    excl_weight: float = 7.0
    n_neighbors: int = 6
    lr: float = 0.05
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ValueError("layer_sizes needs at least input and latent dims")
        self.layer_sizes = [integer(s, f"layer_sizes[{i}]") for i, s in enumerate(self.layer_sizes)]
        self.n_neighbors = integer(self.n_neighbors, "n_neighbors")
        self.epochs = integer(self.epochs, "epochs", least=0)
        self.batch_size = integer(self.batch_size, "batch_size")
        # numpy would refuse a negative seed only when this level's model is built
        self.seed = integer(self.seed, "seed", least=0)
        for name in ("latent_activation", "output_activation"):
            if getattr(self, name) not in ACTIVATIONS:
                raise ValueError(f"{name} must be one of {ACTIVATIONS}, got {getattr(self, name)!r}")
        self.excl_weight = real(self.excl_weight, "excl_weight")
        self.lr = real(self.lr, "lr", positive=True)

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def latent_dim(self) -> int:
        return self.layer_sizes[-1]


@dataclass
class AEModel:
    """Encoder and decoder layer stacks with mirror-symmetric dimensions."""

    encoder: list
    decoder: list

    def __post_init__(self):
        if not (self.encoder and self.decoder):
            raise ValueError("encoder and decoder need at least one layer each")
        for name, half in (("encoder", self.encoder), ("decoder", self.decoder)):
            if any(prev.out_dim != nxt.in_dim for prev, nxt in zip(half, half[1:])):
                raise ValueError(f"{name} layer dimensions do not chain")
        if self.decoder[0].in_dim != self.latent_dim:
            raise ValueError("decoder input dim does not match latent dim")
        if self.decoder[-1].out_dim != self.input_dim:
            raise ValueError("decoder output dim does not match encoder input dim")

    @property
    def input_dim(self) -> int:
        return self.encoder[0].in_dim

    @property
    def latent_dim(self) -> int:
        return self.encoder[-1].out_dim

    @property
    def layers(self) -> list:
        return list(self.encoder) + list(self.decoder)


@dataclass
class LossBreakdown:
    """All scalars of one objective evaluation; excl and total are derived."""

    recon: float
    hetero_sim: float
    homo_sim: float
    weight: float

    FIELDS = ("recon", "hetero_sim", "homo_sim", "excl", "total")

    @property
    def excl(self) -> float:
        return self.hetero_sim + (1.0 - self.homo_sim)

    @property
    def total(self) -> float:
        return self.recon + self.weight * self.excl


def build_model(config: AEConfig) -> AEModel:
    """Seeded model: encoder over layer_sizes, decoder over the reverse."""
    rng = np.random.default_rng(config.seed)

    def half(sizes: list, last: str) -> list:  # hidden layers take latent_activation, the last one last
        tags = [config.latent_activation] * (len(sizes) - 2) + [last]
        return [init_layer(a, b, tag, rng) for a, b, tag in zip(sizes, sizes[1:], tags)]

    # the encoder draws from rng first, then the decoder
    encoder = half(config.layer_sizes, config.latent_activation)
    return AEModel(encoder=encoder, decoder=half(config.layer_sizes[::-1], config.output_activation))


def _forward(layers: list, x: Matrix) -> list:
    """Run a layer stack; returns its cache [x, a1, ..., aL]: layer i maps acts[i] to acts[i + 1]."""
    acts = [x]
    for layer in layers:
        acts.append(affine_forward(layer, acts[-1]))
    return acts


def _backward(layers: list, acts: list, grad_out: Matrix, grads: list, input_grad: bool = True):
    """Backpropagate grad_out through a stack's cache, writing layer i's gradients
    into grads[i]; returns grad_in, or None when input_grad is false."""
    g = grad_out
    for i in range(len(layers) - 1, -1, -1):
        g = affine_backward(layers[i], acts[i], acts[i + 1], g, grads[i], input_grad=input_grad or i > 0)
    return g


def encode(model: AEModel, x_batch: Matrix) -> Matrix:
    return _forward(model.encoder, x_batch)[-1]


def decode(model: AEModel, h_batch: Matrix) -> Matrix:
    return _forward(model.decoder, h_batch)[-1]


def recon_loss(x_batch: Matrix, xhat_batch: Matrix):
    """Summed squared error per row, averaged over the batch.

    Returns (loss, grad wrt xhat_batch).
    """
    if x_batch.shape != xhat_batch.shape:
        raise ValueError(f"shape mismatch: x {x_batch.shape}, xhat {xhat_batch.shape}")
    diff = xhat_batch - x_batch
    loss = float(np.sum(diff * diff) / x_batch.shape[0])
    return loss, 2.0 * diff / x_batch.shape[0]


def total_loss(model: AEModel, config: AEConfig, ctx, dataset: Matrix, batch_indices, grads: list) -> LossBreakdown:
    """Full objective for one batch; returns its LossBreakdown.

    ctx must have been built over the same dataset. The gradients go into
    grads, one LayerGrads per layer of model.layers (encoder, then decoder).
    The encoded-prototype branches share the encoder weights, so the rows
    [x; exclude-one means; peer means] run through it in one forward and
    one backward pass, where their gradients add.
    At excl_weight 0 only x is encoded, ctx is ignored and the exclusivity
    fields read 0 / 1 / 0.
    """
    idx = np.asarray(batch_indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("empty batch")
    w = config.excl_weight
    if ctx is None and w != 0.0:
        raise ValueError("excl_weight is nonzero but no exclusivity context given")
    x = dataset[idx]
    rows = np.vstack((x, *excl.batch_targets(ctx, dataset, idx))) if w != 0.0 else x
    enc_acts = _forward(model.encoder, rows)
    h = enc_acts[-1][: len(x)]
    dec_acts = _forward(model.decoder, h)

    la, d_xhat = recon_loss(x, dec_acts[-1])
    d_h = _backward(model.decoder, dec_acts, d_xhat, grads[len(model.encoder) :])

    if w == 0.0:
        breakdown = LossBreakdown(recon=la, hetero_sim=0.0, homo_sim=1.0, weight=0.0)
    else:
        hetero_sim, homo_sim, d_enc = excl.exclusivity_loss(*np.split(enc_acts[-1], 3))
        breakdown = LossBreakdown(recon=la, hetero_sim=hetero_sim, homo_sim=homo_sim, weight=w)
        d_enc *= w
        d_enc[: len(x)] += d_h  # the x rows' codes also feed the decoder
        d_h = d_enc
    _backward(model.encoder, enc_acts, d_h, grads, input_grad=False)
    return breakdown


def model_parameters(model: AEModel) -> list:
    """Flat list of parameter arrays: layer order, weight then bias."""
    return [p for layer in model.layers for p in (layer.weight, layer.bias)]


def _average_breakdowns(records: list, sizes: list) -> LossBreakdown:
    """Batch-size-weighted epoch record of the independent terms; excl and
    total derive from them, so the breakdown identities hold exactly."""
    weights = np.asarray(sizes, dtype=np.float64)
    weights /= weights.sum()
    avg = {
        name: float(np.dot(weights, [getattr(r, name) for r in records]))
        for name in ("recon", "hetero_sim", "homo_sim")
    }
    return LossBreakdown(weight=records[0].weight, **avg)


def training_rows(model: AEModel, dataset) -> Matrix:
    """The rows as a finite float64 matrix of the model's input width."""
    data = np.asarray(dataset, dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != model.input_dim:
        raise ValueError(
            f"dataset shape {data.shape} does not match model input dim {model.input_dim}"
        )
    if data.shape[0] == 0:
        raise ValueError("dataset has no rows to train on")
    return as_matrix(data, "dataset")


def sgd_epochs(model: AEModel, config: AEConfig, dataset: Matrix):
    """The one training loop: seeded minibatch SGD on total_loss.

    config is the phase's: its loss settings, lr, epochs, batch_size and
    seed; its layer_sizes are not read. Yields one batch-size-weighted
    LossBreakdown per epoch, after the epoch's last step, so the caller can
    act on the model before the next epoch starts. One gradient set, made
    once per phase, takes every step's gradients, which sgd_step then
    scales in place: no step allocates a gradient array.
    """
    ctx = excl.build_context(dataset, config.n_neighbors) if config.excl_weight != 0.0 else None
    rng = np.random.default_rng(config.seed)
    layers = model.layers
    grads = [LayerGrads.like(layer) for layer in layers]
    n = dataset.shape[0]
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        records, sizes = [], []
        for start in range(0, n, config.batch_size):
            batch = perm[start : start + config.batch_size]
            breakdown = total_loss(model, config, ctx, dataset, batch, grads)
            if not np.isfinite(breakdown.total):
                raise RuntimeError(
                    f"non-finite loss {breakdown.total} at epoch {epoch}, "
                    f"batch starting at {start}"
                )
            sgd_step(layers, grads, config.lr)
            records.append(breakdown)
            sizes.append(batch.size)
        yield _average_breakdowns(records, sizes)


def train(model: AEModel, config: AEConfig, dataset: Matrix):
    """Seeded minibatch SGD on the full objective.

    Returns (model, history) with one batch-size-weighted LossBreakdown
    per epoch. The neighbor table and row sum are computed once, on the
    raw dataset, before the first step; with excl_weight == 0 the
    exclusivity machinery is skipped entirely.
    """
    return model, list(sgd_epochs(model, config, training_rows(model, dataset)))
