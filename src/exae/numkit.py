"""Minimal dense numeric core.

Everything downstream runs on 2-D float64 numpy arrays with examples as
rows. This module owns the per-layer primitives: affine layers with their
analytic gradients and plain SGD updates. The backward pass reads
activation derivatives off the forward output and writes each layer's
gradients into a LayerGrads set that a training phase allocates once.
map_row_blocks runs independent row blocks, two at a time on large jobs when
the BLAS is pinned to one thread; smallest is the one (value, index) selection,
and integer and real the one check of a whole-number and of a real-valued setting.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

# The sole numeric container: a dense 2-D float64 array, rows are examples.
Matrix = np.ndarray

ACTIVATIONS = ("identity", "relu", "sigmoid")


def integer(value, name: str, least: int = 1) -> int:
    """value as an int. Every size, count, seed and k is checked here: anything
    but an int or numpy integer (a bool, 2.5, "3", NaN), or one below least,
    raises ValueError naming name."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def real(value, name: str, positive: bool = False, finite: bool = True) -> float:
    """value as a float. Every real-valued setting is checked here: anything but an
    int, float or numpy integer or float (a bool, "0.5", None), an int past the
    float range, NaN, a value below 0, 0 itself when positive, or infinity when
    finite raises ValueError naming name."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None
    if not (x > 0 if positive else x >= 0) or (finite and x == math.inf):
        want = ("positive" if positive else ">= 0") + (" and finite" if finite else "")
        raise ValueError(f"{name} must be {want}, got {value}")
    return x


def as_matrix(data, name: str = "matrix") -> Matrix:
    """Coerce to a 2-D float64 array, rejecting non-finite entries (named in errors)."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise ValueError(f"{name} contains non-finite entries, first in row {np.argmin(finite)}")
    return arr


def refuse_underflowed_norms(rows: Matrix, norms: np.ndarray, name: str) -> None:
    """Refuses, naming it, a row not all zero whose norm is below 1e-150, as its squares
    may have underflowed: it would read as an all-zero row."""
    tiny = (norms < 1e-150) & rows.any(axis=1)
    if tiny.any():
        raise ValueError(f"{name} {np.argmax(tiny)} is not all zero but its norm is below 1e-150")


def square_sums(rows: Matrix, size: int) -> np.ndarray:
    """np.sum(rows**2, axis=1), size rows at a time, in its bytes; its np.sqrt is np.linalg.norm's.
    The last block takes 2 rows: a 1-row slice of a Fortran-ordered matrix sums in another order."""
    sums = np.empty(rows.shape[0])
    for start in range(0, rows.shape[0], size):
        start = min(start, max(rows.shape[0] - 2, 0))
        sums[start : start + size] = np.sum(rows[start : start + size] ** 2, axis=1)
    return sums


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, with e = e^-|z| so
    # exp never overflows: the same bytes as evaluating each branch on its rows
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e)
    out /= 1.0 + e
    return out


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

    @classmethod
    def like(cls, layer: DenseLayer) -> "LayerGrads":
        """Unset arrays shaped like layer's parameters, for affine_backward to write."""
        return cls(np.empty(layer.weight.shape), np.empty(layer.bias.shape))


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
    # relu, sigmoid or identity of x @ W.T + b without its full-size temporaries
    z = x @ layer.weight.T
    z += layer.bias
    if layer.activation == "relu":
        return np.maximum(z, 0.0, out=z)
    return _sigmoid(z) if layer.activation == "sigmoid" else z


def affine_backward(
    layer: DenseLayer, x: Matrix, out: Matrix, grad_out: Matrix, input_grad: bool = True, grads: LayerGrads | None = None
):
    """Chain rule through one layer from its forward cache.

    x is the layer's forward input and out = affine_forward(layer, x) its
    output. The activation derivative is read off out: relu' is out > 0
    (relu'(0) is 0), sigmoid' is out * (1 - out), and identity passes
    grad_out through. Returns (grads, grad_in) for upstream gradient
    grad_out: the parameter gradients are written into grads (None: a fresh
    LayerGrads.like(layer)); grad_in is None when input_grad is false, which
    saves the dz @ W product for a stack's bottom layer.
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
    grads = LayerGrads.like(layer) if grads is None else grads
    np.matmul(dz.T, x, out=grads.weight)
    np.sum(dz, axis=0, out=grads.bias)
    return grads, dz @ layer.weight if input_grad else None


def sgd_step(layers: list, grads: list, lr: float) -> list:
    """In-place p <- p - lr * g over every layer. Deterministic.

    The gradients are scratch: each is scaled by lr in place and then
    subtracted, so the update holds no full-size temporary. Every layer's
    shapes, float64 dtype, writeability and finiteness are checked before any array
    is written, so a refused step leaves the parameters and gradients unchanged.
    """
    real(lr, "learning rate", positive=True)
    if len(layers) != len(grads):
        raise ValueError(f"{len(layers)} layers but {len(grads)} gradient entries")
    for i, (layer, g) in enumerate(zip(layers, grads)):
        if g.weight.shape != layer.weight.shape or g.bias.shape != layer.bias.shape:
            raise ValueError(f"gradient shapes do not match parameters at layer {i}")
        if g.weight.dtype != np.float64 or g.bias.dtype != np.float64:  # the in-place scale needs floats
            raise ValueError(f"gradients at layer {i} are not float64")
        if not (g.weight.flags.writeable and g.bias.flags.writeable):
            raise ValueError(f"gradients at layer {i} are read-only")
        if not (np.all(np.isfinite(g.weight)) and np.all(np.isfinite(g.bias))):
            raise ValueError(f"non-finite gradient entry at layer {i}")
    for layer, g in zip(layers, grads):
        layer.weight -= np.multiply(g.weight, lr, out=g.weight)
        layer.bias -= np.multiply(g.bias, lr, out=g.bias)
    return layers


def row_block_workers(environ, blas: str | None) -> int:
    """2 when the BLAS is OpenBLAS and takes one thread from environ (the first of
    these variables set to a positive count), else 1: another BLAS keeps the core."""
    if "openblas" in (blas or "").lower():
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            if environ.get(var, "").strip().isdigit() and int(environ[var]) > 0:
                return 2 if int(environ[var]) == 1 else 1
    return 1


try:  # numpy >= 1.26 names its BLAS; with an older one the BLAS is unknown
    _BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
except (TypeError, KeyError):
    _BLAS = None
# read once, as the BLAS reads its thread count once, when numpy loads it
ROW_BLOCK_WORKERS = row_block_workers(os.environ, _BLAS)


def row_blocks(n: int, size: int) -> list:
    """The (start, stop) blocks map_row_blocks runs: each size-row block of range(n)
    cut into parts of size / ROW_BLOCK_WORKERS rows, so size rows are in flight at
    once. A 1-row remainder stays with the part before it: a 1-row product is a
    GEMV, which can round otherwise than the rows of its whole block."""
    step, blocks = max(size // ROW_BLOCK_WORKERS, 1), []
    for start in range(0, n, size):
        stop = min(start + size, n)
        cuts = [cut for cut in range(start, stop, step) if cut == start or stop - cut > 1]
        blocks += zip(cuts, cuts[1:] + [stop])
    return blocks


# Rows a job needs before map_row_blocks starts a helper. A helper keeps its own
# OpenBLAS workspace (1.7-2.9 MB for concurrent products) and malloc arena resident
# for the life of the process, so it is started only for jobs that outgrow one core.
# One worker against two, at 1 BLAS thread (x86-64, OpenBLAS 0.3.31): features of
# 1000, 2000, 4000 and 10000 rows through 784-256-128 took 8.6 -> 5.6, 16.2 -> 10.2,
# 32.6 -> 17.7 and 81.0 -> 43.4 ms; k-NN of 1000, 2000 and 10000 queries against
# 2000 x 128 train codes 18.9 -> 12.5, 36.1 -> 21.7 and 183 -> 111 ms; a 2000 x 784
# neighbor table 116 -> 73 ms. So the A6 protocol's jobs (2000 table rows, 2000 +
# 1000 feature rows, 1000 queries) run on the caller, at a few ms per job and about
# 8 MB less peak RSS on an a6proxy run, and a 10000-query evaluation keeps the helper.
_HELPER_MIN_ROWS = 4096


def map_row_blocks(fn, n: int, size: int) -> None:
    """fn(start, stop) on each of row_blocks(n, size); each block writes its own rows.

    This thread and ROW_BLOCK_WORKERS - 1 helpers (none for one block, or for a job
    under _HELPER_MIN_ROWS rows), under this thread's numpy error state, take blocks
    in order until one fails. The helpers are joined, then the error of the first
    failing block in row order, the one an in-order run would raise, is raised here.
    """
    blocks = row_blocks(n, size)
    pending, failed, lock, errstate = iter(blocks), [], threading.Lock(), np.geterr()

    def drain():
        with np.errstate(**errstate):
            while not failed:
                with lock:
                    block = next(pending, None)
                if block is None:
                    return
                try:
                    fn(*block)
                except BaseException as err:
                    failed.append((block, err))

    workers = ROW_BLOCK_WORKERS if n >= _HELPER_MIN_ROWS else 1
    helpers = [threading.Thread(target=drain) for _ in range(min(workers, len(blocks)) - 1)]
    for helper in helpers:
        helper.start()
    try:
        drain()
    finally:
        for helper in helpers:
            helper.join()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]


# Every _SMALLEST_SAMPLE_STRIDE-th column of a block bounds each row's reach-th
# value (8 and 16 were slower on 2000 training rows), and a row with more
# than _SMALLEST_GATHER_WIDTH values under that bound drops its surplus ties,
# _SMALLEST_TRIM_ROWS rows at a time: 16 held 0.77 times a tied 96 x 2000 block (32: 1.17, all: 2.75).
_SMALLEST_SAMPLE_STRIDE = 4
_SMALLEST_GATHER_WIDTH = 64
_SMALLEST_TRIM_ROWS = 16


def smallest(values: Matrix, reach: int) -> np.ndarray:
    """The reach smallest entries of each row, as column indices in
    (value, index) order: the first reach columns of a full lexsort.

    The reach-th smallest value of a strided sample of a row's columns (+inf
    when the sample is shorter than reach) bounds the row's own reach-th
    value, so the row's candidates, its values at or below the bound,
    hold the reach smallest. A row with more than _SMALLEST_GATHER_WIDTH
    candidates keeps only the lowest-index ties at the bound that fit below
    its reach-th place, a few such rows at a time; then every row lexsorts its candidates.
    """
    n = values.shape[1]
    sample = values[:, ::_SMALLEST_SAMPLE_STRIDE]
    bound = np.full((values.shape[0], 1), np.inf)
    if sample.shape[1] >= reach:
        bound = np.sort(sample, axis=1)[:, reach - 1 : reach]
    picked = values <= bound
    counts = picked.sum(axis=1)
    wide = np.flatnonzero(counts > _SMALLEST_GATHER_WIDTH)
    for start in range(0, wide.size, _SMALLEST_TRIM_ROWS):
        rows = wide[start : start + _SMALLEST_TRIM_ROWS]
        tied = values[rows] == bound[rows]
        room = reach - (counts[rows] - tied.sum(axis=1))
        picked[rows] &= ~tied | (np.cumsum(tied, axis=1) <= room[:, None])
        counts[rows] = picked[rows].sum(axis=1)
    # candidates of each row, left-aligned and padded with (inf, n)
    line, cols = np.divmod(np.flatnonzero(picked), n)
    slot = np.arange(cols.size) - np.repeat(np.cumsum(counts) - counts, counts)
    index = np.full((values.shape[0], counts.max()), n)
    vals = np.full(index.shape, np.inf)
    index[line, slot] = cols
    vals[line, slot] = values[line, cols]
    order = np.lexsort((index, vals), axis=1)[:, :reach]
    return np.take_along_axis(index, order, axis=1)
