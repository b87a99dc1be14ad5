"""The backward pass reads its activation derivatives off the forward cache.

References kept here are the earlier kernels: a backward pass that
recomputes z = x @ W.T + b and differentiates the activation at z, and a
sigmoid that evaluates each sign branch on its own rows through boolean
masks. Swapping them back into total_loss must give the same bytes. The
earlier fd_margins, with its own hand-written forward pass, is kept as the
reference for the probe's (tests/gradprobe.py), which reads _forward's cache.
"""

from dataclasses import replace

import numpy as np
import pytest
from gradprobe import fd_margins, gradcheck_case

from exae import autoencoder, exclusivity, numkit
from exae.autoencoder import AEConfig, build_model, total_loss
from exae.exclusivity import build_context
from exae.numkit import LayerGrads, affine_backward, affine_forward, init_layer


def mask_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_activation(tag, z):
    if tag == "relu":
        return np.maximum(z, 0.0)
    return mask_sigmoid(z) if tag == "sigmoid" else z


def recompute_backward(layer, x, out, grad_out, input_grad=True, grads=None):
    """The earlier kernel: ignores out and grads, differentiates at a recomputed
    z and returns a fresh LayerGrads."""
    z = x @ layer.weight.T + layer.bias
    if layer.activation == "identity":
        d = np.ones_like(z)
    elif layer.activation == "relu":
        d = (z > 0).astype(np.float64)
    else:
        s = mask_sigmoid(z)
        d = s * (1.0 - s)
    dz = grad_out * d
    return LayerGrads(weight=dz.T @ x, bias=dz.sum(axis=0)), dz @ layer.weight


def flat(grads):
    return [g for lg in grads for g in (lg.weight, lg.bias)]


def sparse_rows(n, dim, seed):
    """MNIST-like rows: about 70% exact zeros, the rest uniform in [0, 1)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(n, dim)) * (rng.uniform(size=(n, dim)) < 0.3)


def gradients_both_ways(monkeypatch, config, n, batch, seed=0):
    model = build_model(config)
    data = sparse_rows(n, config.input_dim, seed)
    ctx = build_context(data, config.n_neighbors) if config.excl_weight > 0 else None
    _, grads = total_loss(model, config, ctx, data, batch)
    with monkeypatch.context() as m:
        m.setattr(numkit, "_sigmoid", mask_sigmoid)
        m.setattr(autoencoder, "affine_backward", recompute_backward)
        _, ref = total_loss(model, config, ctx, data, batch)
    return flat(grads), flat(ref)


def cfg(sizes, act="relu", **kwargs):
    return AEConfig(layer_sizes=sizes, latent_activation=act, **kwargs)


BATCH32 = list(range(1, 64, 2))


@pytest.mark.parametrize(
    "config,batch",
    [
        (cfg([784, 256], excl_weight=7.0), BATCH32),
        (cfg([784, 256], excl_weight=0.0), BATCH32),
        (cfg([784, 256], excl_weight=7.0), [5, 9, 40]),
        (cfg([784, 256], excl_weight=0.0), [5, 9, 40]),
        (cfg([64, 32, 16], "relu", excl_weight=7.0), BATCH32),
        (cfg([64, 32, 16], "sigmoid", excl_weight=7.0), BATCH32),
        (cfg([64, 32, 16], "identity", output_activation="identity", excl_weight=7.0), BATCH32),
        (cfg([64, 32, 16], "identity", excl_weight=7.0), BATCH32),
        (cfg([64, 32, 16], "sigmoid", excl_weight=0.0), [5, 9, 40]),
    ],
    ids=[
        "784x256-batch32-w7-full",
        "784x256-batch32-w0",
        "784x256-batch3-w7",
        "784x256-batch3-w0",
        "relu",
        "sigmoid",
        "identity",
        "identity-sigmoid",
        "sigmoid-w0-batch3",
    ],
)
def test_total_loss_gradients_bitwise_equal_to_recompute(monkeypatch, config, batch):
    grads, ref = gradients_both_ways(monkeypatch, config, 64, batch)
    for a, b in zip(grads, ref):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("act", numkit.ACTIVATIONS)
def test_affine_backward_bitwise_equal_to_recompute(act):
    rng = np.random.default_rng(3)
    layer = init_layer(40, 24, act, rng)
    layer.bias[:] = rng.normal(size=24)
    x = rng.normal(size=(17, 40))
    grad_out = rng.normal(size=(17, 24))
    out = affine_forward(layer, x)
    grads, grad_in = affine_backward(layer, x, out, grad_out)
    ref, ref_in = recompute_backward(layer, x, None, grad_out)
    assert np.array_equal(grads.weight, ref.weight)
    assert np.array_equal(grads.bias, ref.bias)
    assert np.array_equal(grad_in, ref_in)
    bottom, no_grad_in = affine_backward(layer, x, out, grad_out, input_grad=False)
    assert no_grad_in is None
    assert np.array_equal(bottom.weight, ref.weight)


def test_sigmoid_bitwise_equal_to_mask_form():
    special = [0.0, 1e-300, 1.0, 709.0, 745.0, np.inf]
    z = np.array(special + [-v for v in special])
    rng = np.random.default_rng(0)
    z = np.concatenate([z, rng.normal(size=10_000), 40.0 * rng.normal(size=10_000)])
    got, ref = numkit._sigmoid(z), mask_sigmoid(z)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))  # also the sign of 0


def test_sigmoid_nan_in_gives_nan_out():
    out = numkit._sigmoid(np.array([np.nan, -np.nan, 0.5]))
    assert np.isnan(out[:2]).all()
    assert out[2] == mask_sigmoid(np.array([0.5]))[0]


def handwritten_fd_margins(model, config, ctx, dataset, batch_indices):
    """The earlier fd_margins: a third forward pass that keeps each relu z."""

    def run(layers, x, margins):
        out = x
        for layer in layers:
            z = out @ layer.weight.T + layer.bias
            if layer.activation == "relu":
                margins.append(float(np.abs(z).min()))
            out = reference_activation(layer.activation, z)
        return out

    idx = np.asarray(batch_indices, dtype=np.int64)
    x = dataset[idx]
    kinks = []
    h = run(model.encoder, x, kinks)
    run(model.decoder, h, kinks)
    norms = [float(np.linalg.norm(h, axis=1).min())]
    if ctx is not None and config.excl_weight != 0.0:
        het_raw, hom_raw = exclusivity.batch_targets(ctx, dataset, idx)
        relu_latent = model.encoder[-1].activation == "relu"
        for raw in (het_raw, hom_raw):
            enc = run(model.encoder, raw, kinks)
            d = enc - h
            clamp_args = d[(enc != 0) | (h != 0)] if relu_latent else d
            kinks.append(float(np.abs(clamp_args).min(initial=np.inf)))
            norms.append(float(np.linalg.norm(exclusivity.omega(d), axis=1).min()))
    return min(kinks) if kinks else np.inf, min(norms)


@pytest.mark.parametrize("case", range(20))
def test_fd_margins_equal_the_handwritten_forward(case):
    config, model, ctx, data, batch = gradcheck_case(case)
    for probe in (config, replace(config, excl_weight=0.0)):
        assert fd_margins(model, probe, ctx, data, batch) == handwritten_fd_margins(
            model, probe, ctx, data, batch
        )


def test_weight_zero_runs_one_forward_pass_and_ignores_the_context(monkeypatch):
    config = cfg([16, 8, 4], excl_weight=0.0)
    model = build_model(config)
    data = sparse_rows(40, 16, seed=3)
    ctx = build_context(data, config.n_neighbors)
    rows = []

    def spy(layer, x):
        rows.append(x.shape[0])
        return affine_forward(layer, x)

    def no_targets(*args):
        raise AssertionError("prototypes gathered at weight 0")

    monkeypatch.setattr(autoencoder, "affine_forward", spy)
    monkeypatch.setattr(exclusivity, "batch_targets", no_targets)
    b, _ = total_loss(model, config, ctx, data, range(8))
    assert rows == [8] * (len(model.encoder) + len(model.decoder))
    assert (b.hetero_sim, b.homo_sim, b.excl, b.weight) == (0.0, 1.0, 0.0, 0.0)
    assert b.total == b.recon
