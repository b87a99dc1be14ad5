"""Exclusivity structure over a training set and the two cosine constraints.

For every example the training set yields two prototypes, both computed in
the raw input space once, before training:

  * the exclude-one mean: the mean of every other row, standing in for
    "everything else" (the heterogeneous case);
  * the peer mean: the mean of the example's m most cosine-similar rows,
    standing in for "more of the same kind" (the homologous case).

During training both prototypes are pushed through the current encoder and
compared against the example's latent code with a clamped cosine: the
difference (prototype minus code) is clamped dimension-wise to its
nonnegative part before the cosine is taken. The loss rewards low
similarity to the encoded exclude-one mean and high similarity to the
encoded peer mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import Matrix, integer, map_row_blocks, refuse_underflowed_norms, smallest, square_sums

# Norms below this are treated as degenerate: the term contributes 0 loss
# and 0 gradient instead of dividing by ~0.
DEGENERATE_EPS = 1e-12


@dataclass(frozen=True)
class ExclusivityContext:
    """Precomputed training-set structure, immutable after construction."""

    row_sum: np.ndarray  # exact sum of all training rows
    neighbors: np.ndarray  # (training rows, m) indices, row i never contains i


@dataclass
class ExclusivityLossResult:
    hetero_sim: float  # batch mean of cos terms against exclude-one means
    homo_sim: float  # batch mean of cos terms against peer means
    grad_latent: Matrix
    grad_hetero: Matrix
    grad_homo: Matrix


def omega(v: np.ndarray) -> np.ndarray:
    """Dimension-wise nonnegative clamp: keeps v_i if v_i >= 0, else 0."""
    v = np.asarray(v, dtype=np.float64)
    return np.where(v >= 0.0, v, 0.0)


def _clamped_cosine_batch(u: Matrix, h: Matrix):
    """Row-wise clamped cosine with gradients.

    Returns (sims, grad_u, grad_h), each row independent. The clamp's
    subgradient at exactly 0 is taken as 0, so gradients flow only through
    strictly positive components of u - h. Degenerate rows (either norm
    below DEGENERATE_EPS) yield 0 similarity and 0 gradient.
    """
    d = u - h
    mask = (d > 0.0).astype(np.float64)
    c = d * mask
    nc = np.linalg.norm(c, axis=1)
    nh = np.linalg.norm(h, axis=1)
    ok = (nc >= DEGENERATE_EPS) & (nh >= DEGENERATE_EPS)
    nc_safe = np.where(ok, nc, 1.0)
    nh_safe = np.where(ok, nh, 1.0)
    dot = np.einsum("ij,ij->i", c, h)
    sims = np.where(ok, dot / (nc_safe * nh_safe), 0.0)

    inv = 1.0 / (nc_safe * nh_safe)
    # d cos / d c and the direct d cos / d h, rows zeroed where degenerate
    g_c = h * inv[:, None] - c * (sims / nc_safe**2)[:, None]
    g_h_direct = c * inv[:, None] - h * (sims / nh_safe**2)[:, None]
    g_c *= ok[:, None]
    g_h_direct *= ok[:, None]
    grad_u = g_c * mask
    grad_h = g_h_direct - g_c * mask
    return sims, grad_u, grad_h


# Rows of the cosine matrix build_context holds at once, in one block or in its
# map_row_blocks parts: 2 MB for a 2000-row set. _row_norms squares as many.
_TABLE_BLOCK_ROWS = 128


def _row_norms(dataset: Matrix) -> np.ndarray:
    """np.linalg.norm(dataset, axis=1) without a dataset-sized square (see numkit.square_sums)."""
    return np.sqrt(square_sums(dataset, _TABLE_BLOCK_ROWS))


def _cosine_to_row(dataset: Matrix, j: int, norms: np.ndarray) -> np.ndarray:
    """Cosine similarity of row j to every row, norms being _row_norms(dataset): one
    product over all rows (no copy if C-ordered); pairs with a zero-norm side get -1."""
    zero = (norms == 0.0) | (norms[j] == 0.0)
    sims = (np.ascontiguousarray(dataset) @ dataset[j]) / np.where(zero, 1.0, norms * norms[j])
    sims[zero] = -1.0
    return sims


def _rank_neighbors(sims: np.ndarray, j: int, m: int) -> list:
    candidates = [i for i in range(sims.shape[0]) if i != j]
    candidates.sort(key=lambda i: (-sims[i], i))
    return candidates[:m]


def top_m_neighbors(dataset: Matrix, j: int, m: int) -> list:
    """Indices of the m rows most cosine-similar to row j, best first.

    Row j itself is excluded; exact similarity ties go to the lower index.
    Zero-norm rows rank last (similarity -1).
    """
    n = dataset.shape[0]
    if not 0 <= j < n:
        raise ValueError(f"row index {j} out of range for {n} rows")
    if integer(m, "m") > n - 1:
        raise ValueError(f"m={m} out of range for {n} rows, need 1 <= m <= n-1 = {n - 1}")
    return _rank_neighbors(_cosine_to_row(dataset, j, _row_norms(dataset)), j, m)


def build_context(dataset: Matrix, m: int) -> ExclusivityContext:
    """Compute the row sum and per-row neighbor table once, up front.

    Exactness contract: row i of the table is exactly top_m_neighbors(dataset,
    i, m), ties and zero-norm rows included, under any map_row_blocks partition.
    One GEMM gives the minus-cosines of a block of rows to every row (zero-norm
    pairs +1, self +inf), and numkit.smallest ranks the best m+1 of each. A
    row not all zero whose norm is below 1e-150 is refused, as the oracle
    would rank it as a zero-norm row.

    The GEMM sums each dot product in another order than the oracle's
    per-row GEMV. Either cosine is within gamma_d * sum|x_k y_k| / (|x||y|)
    <= gamma_d (about d*eps/2) of the exact one, plus one rounding per
    division, so the two differ by less than half of the bound
    2(d+4)*eps. A row keeps its GEMM ranking only when it is certified:
    every adjacent gap among ranks 1..m+1 exceeds the bound, so no rounding
    can reorder them, and rank m+1 lies below +1, the value zero-norm pairs
    share (with m = n-1 there is no rank m+1 and only the order is checked).
    A block's other rows (exact or near ties, duplicates, zero-norm rows)
    are ranked together by numkit.smallest on the oracle's own negated
    cosines, -_cosine_to_row(...) with self at +inf: the order of
    _rank_neighbors without its Python sort.
    """
    dataset = np.asarray(dataset, dtype=np.float64)
    n, d = dataset.shape
    if n < 2:
        raise ValueError(f"need at least 2 rows, have {n}")
    if integer(m, "m") > n - 1:
        raise ValueError(f"m={m} out of range for {n} rows, need 1 <= m <= n-1 = {n - 1}")
    with np.errstate(over="ignore", under="ignore"):  # an overflowed or underflowed norm is refused below
        norms = _row_norms(dataset)
    bad = ~(norms <= np.sqrt(np.finfo(float).max / 2))  # NaN, or a norm whose cosines could overflow
    if bad.any():
        raise ValueError(f"row {np.argmax(bad)} has norm {norms[np.argmax(bad)]}, past sqrt(max/2)")
    refuse_underflowed_norms(dataset, norms, "row")
    zero = norms == 0.0
    divisors = np.where(zero, 1.0, norms)  # zero-norm pairs are set to +1 below
    ranks = min(m + 1, n - 1)
    bound = 2.0 * (d + 4) * np.finfo(np.float64).eps
    table = np.empty((n, m), dtype=np.int64)

    def rank(start, stop):
        rows = np.arange(start, stop)
        sims = dataset[start:stop] @ dataset.T
        sims /= divisors[start:stop, None]
        sims /= -divisors  # bitwise the negated quotient
        sims[zero[start:stop], :] = 1.0
        sims[:, zero] = 1.0
        sims[rows - start, rows] = np.inf
        best = smallest(sims, ranks)
        best_sims = np.take_along_axis(sims, best, axis=1)
        certified = np.all(best_sims[:, 1:] - best_sims[:, :-1] > bound, axis=1)
        if ranks > m:
            certified &= best_sims[:, m] < 1.0
        table[start:stop] = best[:, :m]
        uncertified = rows[~certified]
        if uncertified.size:  # ranked again on the oracle's cosines, in the block's own buffer
            fallback = sims[: uncertified.size]
            for r, i in enumerate(uncertified):
                np.negative(_cosine_to_row(dataset, i, norms), out=fallback[r])
            fallback[np.arange(uncertified.size), uncertified] = np.inf
            table[uncertified] = smallest(fallback, m)

    map_row_blocks(rank, n, _TABLE_BLOCK_ROWS)
    return ExclusivityContext(row_sum=dataset.sum(axis=0), neighbors=table)


def batch_targets(ctx: ExclusivityContext, dataset: Matrix, batch_indices) -> tuple:
    """Stacked prototypes for a batch of row indices: (hetero, homo) matrices."""
    idx = np.asarray(batch_indices, dtype=np.int64)
    hetero = (ctx.row_sum - dataset[idx]) / (len(ctx.neighbors) - 1)
    homo = dataset[ctx.neighbors[idx]].mean(axis=1)
    return hetero, homo


def exclusivity_loss(latent: Matrix, enc_hetero: Matrix, enc_homo: Matrix) -> ExclusivityLossResult:
    """Both cosine constraints over a row-aligned batch, averaged over its rows.

    Row i of enc_hetero / enc_homo must be the encoded exclude-one mean and
    encoded peer mean of the example whose latent code is row i of latent.
    Gradients flow into all three inputs.
    """
    if latent.shape != enc_hetero.shape or latent.shape != enc_homo.shape:
        raise ValueError(
            f"row-misaligned inputs: latent {latent.shape}, "
            f"enc_hetero {enc_hetero.shape}, enc_homo {enc_homo.shape}"
        )
    div = latent.shape[0]
    s1, g1_u, g1_h = _clamped_cosine_batch(enc_hetero, latent)
    s2, g2_u, g2_h = _clamped_cosine_batch(enc_homo, latent)
    return ExclusivityLossResult(
        hetero_sim=float(s1.sum() / div),
        homo_sim=float(s2.sum() / div),
        grad_latent=(g1_h - g2_h) / div,
        grad_hetero=g1_u / div,
        grad_homo=-g2_u / div,
    )
