"""Single autoencoder with the exclusivity-regularized objective.

The objective is the reconstruction error plus excl_weight times the
exclusivity term; excl_weight = 0 recovers a plain autoencoder and in that
case the trainer runs a pure reconstruction path (no neighbor table is
built and the exclusivity fields of the loss history stay at their
inactive values 0 / 1 / 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exclusivity as excl
from .numkit import (
    ACTIVATIONS,
    Matrix,
    activate,
    affine_backward,
    affine_forward,
    as_matrix,
    init_layer,
    sgd_step,
)

REDUCTIONS = excl.REDUCTIONS
MEAN_GRAD_MODES = ("full", "stopped")


@dataclass
class AEConfig:
    """Hyperparameters of one autoencoder.

    layer_sizes runs input -> ... -> latent; the decoder mirrors it.
    loss_reduction chooses between batch-mean losses (default, keeps the
    regularizer's strength independent of batch size) and raw sums.
    mean_grad chooses whether gradients flow through the encoded prototype
    branches ("full") or only through the latent branch ("stopped").
    """

    layer_sizes: list
    hidden_activation: str = "relu"
    latent_activation: str = "relu"
    output_activation: str = "sigmoid"
    excl_weight: float = 7.0
    n_neighbors: int = 6
    lr: float = 0.05
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0
    loss_reduction: str = "mean"
    mean_grad: str = "full"

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ValueError("layer_sizes needs at least input and latent dims")
        if any(int(s) <= 0 for s in self.layer_sizes):
            raise ValueError(f"layer sizes must be positive, got {self.layer_sizes}")
        self.layer_sizes = [int(s) for s in self.layer_sizes]
        for tag in (self.hidden_activation, self.latent_activation, self.output_activation):
            if tag not in ACTIVATIONS:
                raise ValueError(f"unknown activation {tag!r}, expected one of {ACTIVATIONS}")
        if self.excl_weight < 0:
            raise ValueError(f"excl_weight must be >= 0, got {self.excl_weight}")
        if self.n_neighbors < 1:
            raise ValueError(f"n_neighbors must be >= 1, got {self.n_neighbors}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.loss_reduction not in REDUCTIONS:
            raise ValueError(f"loss_reduction must be one of {REDUCTIONS}")
        if self.mean_grad not in MEAN_GRAD_MODES:
            raise ValueError(f"mean_grad must be one of {MEAN_GRAD_MODES}")

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
        for prev, nxt in zip(self.encoder, self.encoder[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ValueError("encoder layer dimensions do not chain")
        for prev, nxt in zip(self.decoder, self.decoder[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ValueError("decoder layer dimensions do not chain")
        if self.decoder and self.encoder:
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

    def copy(self) -> "AEModel":
        return AEModel(
            encoder=[layer.copy() for layer in self.encoder],
            decoder=[layer.copy() for layer in self.decoder],
        )


@dataclass
class LossBreakdown:
    """All scalars of one objective evaluation.

    Identities: excl == hetero_sim + (1 - homo_sim) and
    total == recon + weight * excl.
    """

    recon: float
    hetero_sim: float
    homo_sim: float
    excl: float
    total: float
    weight: float

    FIELDS = ("recon", "hetero_sim", "homo_sim", "excl", "total")


INACTIVE_EXCL = {"hetero_sim": 0.0, "homo_sim": 1.0, "excl": 0.0}


def build_model(config: AEConfig) -> AEModel:
    """Seeded model: encoder over layer_sizes, decoder over the reverse."""
    rng = np.random.default_rng(config.seed)
    sizes = config.layer_sizes
    encoder = []
    for i, (a, b) in enumerate(zip(sizes, sizes[1:])):
        tag = config.latent_activation if i == len(sizes) - 2 else config.hidden_activation
        encoder.append(init_layer(a, b, tag, rng))
    rev = sizes[::-1]
    decoder = []
    for i, (a, b) in enumerate(zip(rev, rev[1:])):
        tag = config.output_activation if i == len(rev) - 2 else config.hidden_activation
        decoder.append(init_layer(a, b, tag, rng))
    return AEModel(encoder=encoder, decoder=decoder)


def _forward(layers: list, x: Matrix):
    """Run a layer stack, returning the output and each layer's input."""
    inputs = []
    out = x
    for layer in layers:
        inputs.append(out)
        out = affine_forward(layer, out)
    return out, inputs


def _backward(layers: list, inputs: list, grad_out: Matrix):
    """Backpropagate grad_out through a stack; returns (GradSet, grad_in)."""
    grads = [None] * len(layers)
    g = grad_out
    for i in range(len(layers) - 1, -1, -1):
        grads[i], g = affine_backward(layers[i], inputs[i], g)
    return grads, g


def encode(model: AEModel, x_batch: Matrix) -> Matrix:
    return _forward(model.encoder, x_batch)[0]


def decode(model: AEModel, h_batch: Matrix) -> Matrix:
    return _forward(model.decoder, h_batch)[0]


def recon_loss(x_batch: Matrix, xhat_batch: Matrix, reduction: str = "mean"):
    """Summed squared error per row, reduced over the batch.

    Returns (loss, grad wrt xhat_batch).
    """
    if x_batch.shape != xhat_batch.shape:
        raise ValueError(f"shape mismatch: x {x_batch.shape}, xhat {xhat_batch.shape}")
    if reduction not in REDUCTIONS:
        raise ValueError(f"reduction must be one of {REDUCTIONS}")
    diff = xhat_batch - x_batch
    div = x_batch.shape[0] if reduction == "mean" else 1
    loss = float(np.sum(diff * diff) / div)
    return loss, 2.0 * diff / div


def total_loss(model: AEModel, config: AEConfig, ctx, dataset: Matrix, batch_indices):
    """Full objective and parameter gradients for one batch.

    ctx must have been built over the same dataset. Returns
    (LossBreakdown, GradSet) with gradients ordered encoder layers then
    decoder layers. The encoded-prototype branches share the encoder
    weights, so the rows [x; exclude-one means; peer means] run through
    it in one forward and one backward pass, where their gradients add.
    With mean_grad="stopped" the prototype rows get zero upstream gradient,
    so only the x rows are backpropagated.
    """
    idx = np.asarray(batch_indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("empty batch")
    w = config.excl_weight
    if ctx is None and w != 0.0:
        raise ValueError("excl_weight is nonzero but no exclusivity context given")
    x = dataset[idx]
    protos = excl.batch_targets(ctx, dataset, idx) if ctx is not None else ()
    if w != 0.0:
        codes, enc_inputs = _forward(model.encoder, np.vstack((x, *protos)))
        h, *enc_protos = np.split(codes, 3)
    else:
        # x alone, so the gradients match the plain autoencoder bit for bit;
        # prototypes are encoded only to report their similarities
        h, enc_inputs = _forward(model.encoder, x)
        enc_protos = [encode(model, p) for p in protos]
    xhat, dec_inputs = _forward(model.decoder, h)

    la, d_xhat = recon_loss(x, xhat, config.loss_reduction)
    dec_grads, d_h = _backward(model.decoder, dec_inputs, d_xhat)

    if ctx is None:
        breakdown = LossBreakdown(recon=la, total=la, weight=0.0, **INACTIVE_EXCL)
    else:
        res = excl.exclusivity_loss(h, *enc_protos, reduction=config.loss_reduction)
        breakdown = LossBreakdown(
            recon=la,
            hetero_sim=res.hetero_sim,
            homo_sim=res.homo_sim,
            excl=res.excl,
            total=la + w * res.excl,
            weight=w,
        )
    if w != 0.0:
        d_h = d_h + w * res.grad_latent
        if config.mean_grad == "full":
            d_h = np.vstack((d_h, w * res.grad_hetero, w * res.grad_homo))
        else:  # zero gradient for the prototype rows: backpropagate x alone
            enc_inputs = [rows[: len(x)] for rows in enc_inputs]
    enc_grads, _ = _backward(model.encoder, enc_inputs, d_h)
    return breakdown, enc_grads + dec_grads


def model_parameters(model: AEModel) -> list:
    """Flat list of parameter arrays: layer order, weight then bias."""
    return [p for layer in model.layers for p in (layer.weight, layer.bias)]


def grad_check_objective(model: AEModel, config: AEConfig, ctx, dataset: Matrix, batch_indices):
    """A loss_fn for numkit.grad_check over model_parameters(model).

    With mean_grad="full" the probed function is the objective itself.
    With "stopped" the analytic gradient is by definition the gradient of
    a partially frozen objective whose prototype encodings stay at their
    current values, so that frozen function is what gets probed; at the
    unperturbed point its value coincides with the true objective.
    """
    idx = np.asarray(batch_indices, dtype=np.int64)
    _, grads = total_loss(model, config, ctx, dataset, idx)
    flat = [g for lg in grads for g in (lg.weight, lg.bias)]

    if config.mean_grad == "full" or ctx is None or config.excl_weight == 0.0:

        def loss_fn():
            b, g = total_loss(model, config, ctx, dataset, idx)
            return b.total, [p for lg in g for p in (lg.weight, lg.bias)]

        return loss_fn

    x = dataset[idx]
    het_raw, hom_raw = excl.batch_targets(ctx, dataset, idx)
    frozen_het = encode(model, het_raw)
    frozen_hom = encode(model, hom_raw)

    def loss_fn():
        h = encode(model, x)
        xhat = decode(model, h)
        la, _ = recon_loss(x, xhat, config.loss_reduction)
        res = excl.exclusivity_loss(h, frozen_het, frozen_hom, reduction=config.loss_reduction)
        return la + config.excl_weight * res.excl, flat

    return loss_fn


def fd_margins(model: AEModel, config: AEConfig, ctx, dataset: Matrix, batch_indices):
    """Distance of a batch from the objective's non-smooth set.

    Returns (kink_margin, min_norm): the smallest |pre-activation| over
    every relu unit in any forward branch together with the smallest
    |entry| of either clamp argument, and the smallest vector norm that
    enters a cosine denominator. Central differences are only meaningful
    when both sit comfortably above the probe step, so fixture generators
    should resample cases that come back too small.
    """

    def run(layers, x, margins):
        out = x
        for layer in layers:
            z = out @ layer.weight.T + layer.bias
            if layer.activation == "relu":
                margins.append(float(np.abs(z).min()))
            out = activate(layer.activation, z)
        return out

    idx = np.asarray(batch_indices, dtype=np.int64)
    x = dataset[idx]
    kinks = []
    h = run(model.encoder, x, kinks)
    run(model.decoder, h, kinks)
    norms = [float(np.linalg.norm(h, axis=1).min())]
    if ctx is not None and config.excl_weight != 0.0:
        het_raw, hom_raw = excl.batch_targets(ctx, dataset, idx)
        for raw in (het_raw, hom_raw):
            enc = run(model.encoder, raw, kinks)
            d = enc - h
            kinks.append(float(np.abs(d).min()))
            norms.append(float(np.linalg.norm(excl.omega(d), axis=1).min()))
    return min(kinks) if kinks else np.inf, min(norms)


def _average_breakdowns(records: list, sizes: list) -> LossBreakdown:
    """Batch-size-weighted epoch record.

    Only the independent terms are averaged; the combined terms are
    rebuilt from them so the breakdown identities hold exactly on epoch
    records too.
    """
    weights = np.asarray(sizes, dtype=np.float64)
    weights /= weights.sum()
    avg = {
        name: float(np.dot(weights, [getattr(r, name) for r in records]))
        for name in ("recon", "hetero_sim", "homo_sim")
    }
    w = records[0].weight
    excl_term = avg["hetero_sim"] + (1.0 - avg["homo_sim"])
    return LossBreakdown(
        excl=excl_term, total=avg["recon"] + w * excl_term, weight=w, **avg
    )


def training_rows(model: AEModel, dataset) -> Matrix:
    """The rows as a finite float64 matrix of the model's input width."""
    data = np.asarray(dataset, dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != model.input_dim:
        raise ValueError(
            f"dataset shape {data.shape} does not match model input dim {model.input_dim}"
        )
    return as_matrix(data, "dataset")


def sgd_epochs(
    model: AEModel, config: AEConfig, dataset: Matrix, lr: float, epochs: int, batch_size: int, seed: int
):
    """The one training loop: seeded minibatch SGD on total_loss.

    config supplies only the loss settings. Yields one batch-size-weighted
    LossBreakdown per epoch, after the epoch's last step, so the caller can
    act on the model before the next epoch starts.
    """
    ctx = excl.build_context(dataset, config.n_neighbors) if config.excl_weight > 0 else None
    rng = np.random.default_rng(seed)
    layers = model.layers
    n = dataset.shape[0]
    for epoch in range(epochs):
        perm = rng.permutation(n)
        records, sizes = [], []
        for start in range(0, n, batch_size):
            batch = perm[start : start + batch_size]
            breakdown, grads = total_loss(model, config, ctx, dataset, batch)
            if not np.isfinite(breakdown.total):
                raise RuntimeError(
                    f"non-finite loss {breakdown.total} at epoch {epoch}, "
                    f"batch starting at {start}"
                )
            sgd_step(layers, grads, lr)
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
    dataset = training_rows(model, dataset)
    n = dataset.shape[0]
    if n < max(2, config.n_neighbors + 1):
        raise ValueError(
            f"need at least max(2, n_neighbors+1) = {max(2, config.n_neighbors + 1)} rows, have {n}"
        )
    epochs = sgd_epochs(model, config, dataset, config.lr, config.epochs, config.batch_size, config.seed)
    return model, list(epochs)
