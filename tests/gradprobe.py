"""The finite-difference probe the hand-written gradients are checked against:
grad_check for any loss, and gate A1's cases (gradcheck_case: small random
models at batches clear of every kink) scored by gradcheck_error."""

import numpy as np

from exae import exclusivity as excl
from exae.autoencoder import AEConfig, AEModel, _forward, build_model, model_parameters, total_loss
from exae.numkit import Matrix, real


def grad_check(loss_fn, params: list, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn takes no arguments and returns (loss, grads) where grads is a
    list of arrays aligned with params. It must be deterministic and pure
    in the current values of params; the arrays in params are perturbed in
    place while probing and restored afterwards.

    Relative error per coordinate: |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    real(epsilon, "epsilon", positive=True)
    loss, grads = loss_fn()
    if not np.isfinite(loss):
        raise ValueError(f"loss_fn returned non-finite loss {loss}")
    if len(grads) != len(params):
        raise ValueError(f"{len(params)} params but {len(grads)} gradients")
    worst = 0.0
    for p, g in zip(params, grads):
        g = np.asarray(g)
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("loss_fn returned a non-finite gradient")
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for k in range(flat_p.size):
            orig = flat_p[k]
            flat_p[k] = orig + epsilon
            lo_hi = loss_fn()[0]
            flat_p[k] = orig - epsilon
            lo_lo = loss_fn()[0]
            flat_p[k] = orig
            if not (np.isfinite(lo_hi) and np.isfinite(lo_lo)):
                raise ValueError("loss_fn returned non-finite loss while probing")
            numeric = (lo_hi - lo_lo) / (2.0 * epsilon)
            analytic = flat_g[k]
            err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            worst = max(worst, err)
    return worst


def _relu_margins(layers: list, acts: list) -> list:
    """The smallest |pre-activation| of each relu layer, recomputed from a _forward cache."""
    return [
        float(np.abs(a @ layer.weight.T + layer.bias).min())
        for layer, a in zip(layers, acts)
        if layer.activation == "relu"
    ]


def fd_margins(model: AEModel, config: AEConfig, ctx, dataset: Matrix, batch_indices):
    """Distance of a batch from the objective's non-smooth set.

    Returns (kink_margin, min_norm): the smallest |pre-activation| over
    every relu unit in any forward branch together with the smallest
    |entry| of either clamp argument (leaving out entries where a relu
    latent is 0 on both sides), and the smallest vector norm that
    enters a cosine denominator. Central differences are only meaningful
    when both sit comfortably above the probe step, so fixture generators
    should resample cases that come back too small.
    """
    idx = np.asarray(batch_indices, dtype=np.int64)
    acts = _forward(model.layers, dataset[idx])
    kinks = _relu_margins(model.layers, acts)
    h = acts[len(model.encoder)]
    norms = [float(np.linalg.norm(h, axis=1).min())]
    if config.excl_weight != 0.0:
        relu_latent = model.encoder[-1].activation == "relu"
        for raw in excl.batch_targets(ctx, dataset, idx):
            enc_acts = _forward(model.encoder, raw)
            kinks += _relu_margins(model.encoder, enc_acts)
            d = enc_acts[-1] - h
            # a relu latent unit at 0 on both sides keeps d exactly 0 under the
            # probe (its pre-activations are margins already), so it is no kink
            clamp_args = d[(enc_acts[-1] != 0) | (h != 0)] if relu_latent else d
            kinks.append(float(np.abs(clamp_args).min(initial=np.inf)))
            norms.append(float(np.linalg.norm(excl.omega(d), axis=1).min()))
    return min(kinks) if kinks else np.inf, min(norms)


def gradcheck_case(case: int):
    """The first draw of probe case `case` whose batch sits clear of every kink.

    Cases take the activations in turn, so every one is probed. Central
    differences are only valid away from clamp/relu kinks and small cosine
    norms, so a draw too close to one is resampled (about 1 sigmoid draw in
    20 clears both margins); attempt a is seeded case*100 + a.
    Returns (config, model, neighbor context, data, batch) and raises
    RuntimeError when none of 100 attempts is well conditioned.
    """
    act = ("sigmoid", "relu", "identity")[case % 3]
    for attempt in range(100):
        rng = np.random.default_rng(case * 100 + attempt)
        dims = [int(rng.integers(2, 9)) for _ in range(int(rng.integers(2, 4)))]
        n = int(rng.integers(4, 9))
        batch = list(range(min(n, int(rng.integers(2, 7)))))
        data = rng.uniform(0.05, 0.95, size=(n, dims[0]))
        weight = float(rng.uniform(0.5, 8.0))
        config = AEConfig(
            layer_sizes=dims,
            latent_activation=act,
            excl_weight=weight,
            n_neighbors=min(3, n - 1),
            seed=int(rng.integers(0, 2**31)),
        )
        model = build_model(config)
        ctx = excl.build_context(data, config.n_neighbors)
        kink, norm = fd_margins(model, config, ctx, data, batch)
        if kink > 1e-3 and norm > 0.05:
            return config, model, ctx, data, batch
    raise RuntimeError(f"gradcheck case {case}: no well-conditioned draw in 100 attempts")


def gradcheck_error(config: AEConfig, model: AEModel, ctx, dataset: Matrix, batch_indices) -> float:
    """grad_check's error for the objective over model_parameters(model)."""
    idx = np.asarray(batch_indices, dtype=np.int64)

    def loss_fn():
        b, g = total_loss(model, config, ctx, dataset, idx)
        return b.total, [p for lg in g for p in (lg.weight, lg.bias)]

    return grad_check(loss_fn, model_parameters(model), epsilon=1e-5)
