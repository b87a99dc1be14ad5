"""Minimal dense numeric core.

Everything downstream runs on 2-D float64 numpy arrays with examples as
rows. This module owns the per-layer primitives: affine layers with their
analytic gradients, plain SGD updates, and a central-finite-difference
gradient checker used to validate every hand-coded backward pass. The
backward pass reads activation derivatives off the forward output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The sole numeric container: a dense 2-D float64 array, rows are examples.
Matrix = np.ndarray

ACTIVATIONS = ("identity", "relu", "sigmoid")


def as_matrix(data, name: str = "matrix") -> Matrix:
    """Coerce to a 2-D float64 array, rejecting non-finite entries (named in errors)."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise ValueError(f"{name} contains non-finite entries, first in row {np.argmin(finite)}")
    return arr


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, with e = e^-|z| so
    # exp never overflows: the same bytes as evaluating each branch on its rows
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e)
    out /= 1.0 + e
    return out


def activate(tag: str, z: np.ndarray) -> np.ndarray:
    if tag == "identity":
        return z
    if tag == "relu":
        return np.maximum(z, 0.0)
    if tag == "sigmoid":
        return _sigmoid(z)
    raise ValueError(f"unknown activation {tag!r}, expected one of {ACTIVATIONS}")


@dataclass
class DenseLayer:
    """One affine layer: out = activation(x @ weight.T + bias).

    weight is (out_dim, in_dim), bias is (out_dim,).
    """

    weight: Matrix
    bias: np.ndarray
    activation: str = "identity"

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2:
            raise ValueError(f"weight must be 2-D, got shape {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[0],):
            raise ValueError(
                f"bias shape {self.bias.shape} inconsistent with weight "
                f"{self.weight.shape}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}"
            )

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    def copy(self) -> "DenseLayer":
        return DenseLayer(self.weight.copy(), self.bias.copy(), self.activation)


@dataclass
class LayerGrads:
    """Gradients for one DenseLayer, shape-congruent with its parameters."""

    weight: Matrix
    bias: np.ndarray


# One LayerGrads entry per layer, in layer order.
GradSet = list


def init_layer(in_dim: int, out_dim: int, activation: str, rng: np.random.Generator) -> DenseLayer:
    """Seeded uniform init in +-sqrt(6 / (in + out)), zero bias."""
    limit = math.sqrt(6.0 / (in_dim + out_dim))
    weight = rng.uniform(-limit, limit, size=(out_dim, in_dim))
    return DenseLayer(weight, np.zeros(out_dim), activation)


def affine_forward(layer: DenseLayer, x: Matrix) -> Matrix:
    if x.ndim != 2 or x.shape[1] != layer.in_dim:
        raise ValueError(
            f"input shape {x.shape} does not match layer weight shape "
            f"{layer.weight.shape} (expected {layer.in_dim} columns)"
        )
    # the bias and relu go into the product's own buffer: the bytes of
    # activate(tag, x @ W.T + b) without its full-size temporaries
    z = x @ layer.weight.T
    z += layer.bias
    if layer.activation == "relu":
        return np.maximum(z, 0.0, out=z)
    return activate(layer.activation, z)


def affine_backward(layer: DenseLayer, x: Matrix, out: Matrix, grad_out: Matrix, input_grad: bool = True):
    """Chain rule through one layer from its forward cache.

    x is the layer's forward input and out = affine_forward(layer, x) its
    output. The activation derivative is read off out: relu' is out > 0
    (relu'(0) is 0), sigmoid' is out * (1 - out), and identity passes
    grad_out through. Returns (LayerGrads, grad_in) for upstream gradient
    grad_out; grad_in is None when input_grad is false, which saves the
    dz @ W product for a stack's bottom layer.
    """
    if x.ndim != 2 or x.shape[1] != layer.in_dim:
        raise ValueError(
            f"input shape {x.shape} does not match layer weight shape {layer.weight.shape}"
        )
    expected = (x.shape[0], layer.out_dim)
    if out.shape != expected or grad_out.shape != expected:
        raise ValueError(f"out {out.shape} and grad_out {grad_out.shape} must be {expected}")
    if layer.activation == "relu":
        dz = grad_out * (out > 0)
    elif layer.activation == "sigmoid":
        dz = grad_out * (out * (1.0 - out))
    else:
        dz = grad_out
    grads = LayerGrads(weight=dz.T @ x, bias=dz.sum(axis=0))
    return grads, dz @ layer.weight if input_grad else None


def sgd_step(layers: list, grads: GradSet, lr: float) -> list:
    """In-place p <- p - lr * g over every layer. Deterministic."""
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if len(layers) != len(grads):
        raise ValueError(f"{len(layers)} layers but {len(grads)} gradient entries")
    for i, (layer, g) in enumerate(zip(layers, grads)):
        if g.weight.shape != layer.weight.shape or g.bias.shape != layer.bias.shape:
            raise ValueError(f"gradient shapes do not match parameters at layer {i}")
        if not (np.all(np.isfinite(g.weight)) and np.all(np.isfinite(g.bias))):
            raise ValueError(f"non-finite gradient entry at layer {i}")
    # every layer is checked before any moves, so a refused step changes nothing
    for layer, g in zip(layers, grads):
        layer.weight -= lr * g.weight
        layer.bias -= lr * g.bias
    return layers


def grad_check(loss_fn, params: list, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn takes no arguments and returns (loss, grads) where grads is a
    list of arrays aligned with params. It must be deterministic and pure
    in the current values of params; the arrays in params are perturbed in
    place while probing and restored afterwards.

    Relative error per coordinate: |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
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
