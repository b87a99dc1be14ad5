"""Clamp, clamped cosine, prototype means, neighbor tables, and the loss.

Every derived expectation here is recomputed by an independent brute-force
path before being asserted.
"""

import re
import tracemalloc

import numpy as np
import pytest
from gradprobe import grad_check

from exae import exclusivity, numkit
from exae.autoencoder import LossBreakdown
from exae.evalharness import knn_classify
from exae.exclusivity import (
    ExclusivityContext,
    _clamped_cosine_batch,
    batch_targets,
    build_context,
    exclusivity_loss,
    omega,
    top_m_neighbors,
)


def brute_cosine(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return -1.0
    return float(np.dot(a, b) / (na * nb))


def clamped_cos(u, h):
    """cos(omega(u - h), h) of one pair, through the batch form training runs."""
    return float(_clamped_cosine_batch(np.array([u], float), np.array([h], float))[0][0])


def row_targets(ctx, dataset, i):
    """Row i's (exclude-one mean, peer mean), through the batch form training runs."""
    return tuple(t[0] for t in batch_targets(ctx, dataset, [i]))


def excl_term(hetero_sim, homo_sim):
    """hetero_sim + (1 - homo_sim) of a loss result, by LossBreakdown's formula."""
    return LossBreakdown(recon=0.0, hetero_sim=hetero_sim, homo_sim=homo_sim, weight=1.0).excl


def brute_top_m(dataset, j, m):
    sims = [(brute_cosine(dataset[j], dataset[i]), i) for i in range(len(dataset)) if i != j]
    sims.sort(key=lambda t: (-t[0], t[1]))
    return [i for _, i in sims[:m]]


class TestOmega:
    def test_definition(self):
        assert np.array_equal(omega([1.5, -2.0, 0.0]), [1.5, 0.0, 0.0])

    def test_nonnegative_input_unchanged(self):
        v = np.array([0.0, 2.0, 0.5])
        assert np.array_equal(omega(v), v)

    def test_idempotent_on_random_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.normal(size=8)
            assert np.array_equal(omega(omega(v)), omega(v))

    def test_output_nonnegative_and_fixed_point_iff_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.normal(size=6)
            out = omega(v)
            assert np.all(out >= 0)
            assert np.array_equal(out, v) == bool(np.all(v >= 0))


class TestClampedCosine:
    def test_collinear_clamped_difference(self):
        assert clamped_cos([2.0, 2.0], [1.0, 1.0]) == pytest.approx(1.0)

    def test_orthogonal_after_clamp(self):
        assert clamped_cos([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_evaluated_value(self):
        # difference [2, -1] clamps to [2, 0]; dot with [1, 2] is 2; norms 2 and sqrt(5)
        assert clamped_cos([3.0, 1.0], [1.0, 2.0]) == pytest.approx(1.0 / np.sqrt(5.0))

    def test_degenerate_clamped_difference(self):
        assert clamped_cos([0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_zero_latent_degenerate(self):
        assert clamped_cos([1.0, 1.0], [0.0, 0.0]) == 0.0

    def test_length_mismatch(self):
        # the batch form broadcasts; exclusivity_loss, its caller, checks shapes
        with pytest.raises(ValueError, match="misaligned"):
            exclusivity_loss(np.array([[1.0]]), np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]))

    def test_bounded_in_unit_interval_for_nonnegative_latent(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            u = rng.normal(size=5)
            h = rng.uniform(0.0, 2.0, size=5)
            s = clamped_cos(u, h)
            assert -1.0 <= s <= 1.0
            assert s >= 0.0  # clamp and h are both entrywise nonnegative

    def test_bounded_for_arbitrary_latent(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            s = clamped_cos(rng.normal(size=4), rng.normal(size=4))
            assert -1.0 <= s <= 1.0


class TestExcludeOneMean:
    def test_three_row_hand_case(self):
        ctx = ExclusivityContext(row_sum=np.array([6.0, 9.0]), neighbors=np.zeros((3, 1), dtype=int))
        data = np.array([[0.0, 3.0], [2.0, 2.0], [4.0, 4.0]])
        assert np.allclose(row_targets(ctx, data, 0)[0], [3.0, 3.0])

    def test_two_rows_returns_the_other(self):
        data = np.array([[1.0, 2.0], [5.0, 6.0]])
        ctx = build_context(data, 1)
        assert np.array_equal(row_targets(ctx, data, 0)[0], data[1])

    def test_identical_rows_return_the_row(self):
        data = np.tile([0.5, 0.25], (6, 1))
        ctx = build_context(data, 2)
        assert np.allclose(row_targets(ctx, data, 3)[0], data[3], atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force_mean(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 200))
        data = rng.normal(size=(n, 7))
        ctx = build_context(data, 1)
        for j in rng.integers(0, n, size=10):
            expected = np.delete(data, j, axis=0).mean(axis=0)
            got = row_targets(ctx, data, j)[0]
            assert np.max(np.abs(got - expected)) < 1e-10


class TestTopMNeighbors:
    def test_hand_case(self):
        data = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        assert top_m_neighbors(data, 0, 1) == [1]

    def test_full_complement_cosine_descending(self):
        rng = np.random.default_rng(4)
        data = rng.uniform(0.1, 1.0, size=(8, 3))
        got = top_m_neighbors(data, 2, 7)
        assert got == brute_top_m(data, 2, 7)
        assert sorted(got) == [0, 1, 3, 4, 5, 6, 7]

    def test_duplicate_rows_tie_to_lower_index(self):
        data = np.array([[1.0, 1.0], [2.0, 2.0], [2.0, 2.0], [3.0, 0.0]])
        # rows 1 and 2 are both cosine 1 to row 0; lower index first
        assert top_m_neighbors(data, 0, 2) == [1, 2]

    def test_zero_norm_row_ranks_last(self):
        data = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.5], [1.0, 0.2]])
        got = top_m_neighbors(data, 0, 3)
        assert got[-1] == 1

    def test_m_out_of_range(self):
        data = np.eye(3)
        with pytest.raises(ValueError, match="out of range"):
            top_m_neighbors(data, 0, 3)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 100))
        data = rng.normal(size=(n, 5))
        for j in rng.integers(0, n, size=5):
            for m in (1, 2, n - 1):
                assert top_m_neighbors(data, int(j), m) == brute_top_m(data, int(j), m)


def sparse_rows(n=2000, d=784, seed=11):
    """Stroke-like rows: about 10% of the pixels lit, and no all-zero row."""
    rng = np.random.default_rng(seed)
    data = rng.uniform(size=(n, d))
    data[rng.uniform(size=(n, d)) > 0.1] = 0.0
    assert np.all(data.any(axis=1))
    return data


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "layout",
    ["c", "fortran", "row-offset-slice", "partial-last-block", "zero-rows", "fortran-lone-last-row"],
)
def test_row_norms_equal_linalg_norm(layout):
    rng = np.random.default_rng(12)
    data = rng.normal(size=(3 * exclusivity._TABLE_BLOCK_ROWS, 37))
    if layout == "fortran":
        data = np.asfortranarray(data)
    elif layout == "row-offset-slice":
        data = data[1:]
    elif layout == "partial-last-block":
        data = data[: 2 * exclusivity._TABLE_BLOCK_ROWS + 45]
    elif layout == "zero-rows":
        data[rng.choice(data.shape[0], size=20, replace=False)] = 0.0
    elif layout == "fortran-lone-last-row":  # its 1-row slice would be summed in another order
        data = np.asfortranarray(rng.normal(size=(2 * exclusivity._TABLE_BLOCK_ROWS + 1, 64)))
    norms = numkit.cosine_norms(data, exclusivity._TABLE_BLOCK_ROWS, "row")  # the table's norms
    assert norms.tobytes() == np.linalg.norm(data, axis=1).tobytes()


def test_oracle_ranks_without_copying_the_rows():
    data = sparse_rows()
    peak = traced_peak(top_m_neighbors, data, 17, 6)
    assert peak < 0.25 * data.nbytes, f"traced peak {peak / data.nbytes:.2f} x the dataset"


class TestBuildContext:
    def test_needs_two_rows(self):
        # one row has no exclude-one mean: the context, which both means read, refuses it
        with pytest.raises(ValueError, match="at least 2"):
            build_context(np.array([[1.0]]), 1)

    def test_non_finite_or_overflowing_row_refused(self):
        rows = np.random.default_rng(8).normal(size=(6, 3))
        rows[1, 2] = np.nan
        with pytest.raises(ValueError, match=r"^row 1 is past the cosine bound: norm nan > sqrt\(max/2\)$"):
            build_context(rows, 2)
        rows[1, 2] = 0.0
        edge = np.sqrt(np.finfo(float).max / 2)  # past it a row's cosine products could overflow
        rows[4] = [edge * (1 - 1e-12), 0.0, 0.0]
        assert build_context(rows, 2).neighbors.tolist() == [brute_top_m(rows, i, 2) for i in range(6)]
        rows[4, 0] = edge * (1 + 1e-12)
        with pytest.raises(ValueError, match="^row 4 is past the cosine bound: norm "):
            build_context(rows, 2)
        rows[4] = 1e160  # finite, as training_rows accepts it, but its norm overflows
        with pytest.raises(ValueError, match="^row 4 is past the cosine bound: norm inf "):
            build_context(rows, 2)

    def test_row_whose_norm_underflows_refused_naming_it(self):
        # the squares of 1e-170 underflow, so the norm reads 0 and the oracle
        # ranks row 2 as zero-norm: its duplicate, row 5, would leave its table
        rows = np.random.default_rng(0).uniform(size=(8, 3))
        rows[[2, 5]] = [1e-170, 2e-170, 0.0]
        for errors in ("warn", "raise"):
            with np.errstate(all=errors), pytest.raises(ValueError) as refused:
                build_context(rows, 3)
            assert str(refused.value) == "row 2 is not all zero but its norm is below 1e-150"
        rows[[2, 5]] = [1e-140, 2e-140, 0.0]  # squares that stay normal: accepted, each in the other's table
        ctx = build_context(rows, 3)
        assert ctx.neighbors.tolist() == [top_m_neighbors(rows, i, 3) for i in range(8)]
        assert ctx.neighbors[2, 0] == 5 and ctx.neighbors[5, 0] == 2

    @pytest.mark.parametrize(
        "value, refusal",
        [(1e160, "is past the cosine bound: norm inf > sqrt(max/2)"), (1e-170, "is not all zero but its norm is below 1e-150")],
        ids=["overflow", "underflow"],
    )
    def test_one_norm_guard_for_the_table_and_cosine_knn(self, value, refusal):
        # numkit.cosine_norms: the same rows are refused with one message form
        rows = np.random.default_rng(9).uniform(size=(6, 3))
        rows[4] = [value, 2 * value, 0.0]
        labels = np.arange(6) % 3
        calls = [
            ("row 4", lambda: build_context(rows, 2)),
            ("train row 4", lambda: knn_classify(rows, labels, rows[:2], 1, "cosine")),
            ("query row 4", lambda: knn_classify(rows[:3], labels[:3], rows, 1, "cosine")),
        ]
        for name, call in calls:
            with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {refusal}')}$"):
                call()

    def test_toy_table_matches_per_row_brute_force(self):
        data = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        ctx = build_context(data, 1)
        for i in range(3):
            assert list(ctx.neighbors[i]) == brute_top_m(data, i, 1)

    def test_full_complement_table(self):
        rng = np.random.default_rng(8)
        data = rng.uniform(0.1, 1.0, size=(5, 4))
        ctx = build_context(data, 4)
        for i in range(5):
            assert i not in ctx.neighbors[i]
            assert sorted(ctx.neighbors[i]) == sorted(set(range(5)) - {i})

    def test_row_sum_matches_recomputation(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(50, 6))
        ctx = build_context(data, 3)
        recomputed = np.zeros(6)
        for row in data:
            recomputed += row
        assert np.max(np.abs(ctx.row_sum - recomputed)) < 1e-10

    def test_self_exclusion_invariant(self):
        rng = np.random.default_rng(10)
        data = rng.normal(size=(20, 3))
        ctx = build_context(data, 5)
        for i in range(20):
            assert i not in ctx.neighbors[i]
            assert len(ctx.neighbors[i]) == 5

    def test_tie_heavy_table_equals_oracle_through_fallback(self, monkeypatch):
        # three row blocks of quantized values, duplicated rows and zero-norm
        # rows: exact ties, near-ties a GEMM rounds differently from a GEMV,
        # and rows whose ranking runs into the -1 of zero-norm peers
        rng = np.random.default_rng(4)
        n, m = 2 * exclusivity._TABLE_BLOCK_ROWS + 44, 5
        data = rng.integers(0, 4, size=(n, 12)) / 3.0
        data[n - 50 :] = data[rng.integers(0, n - 50, size=50)]
        data[rng.choice(n, size=6, replace=False)] = 0.0
        fallback_rows = []
        real = exclusivity._cosine_to_row

        def spy(dataset, j, *args):
            fallback_rows.append(j)
            return real(dataset, j, *args)

        monkeypatch.setattr(exclusivity, "_cosine_to_row", spy)
        ctx = build_context(data, m)
        monkeypatch.setattr(exclusivity, "_cosine_to_row", real)
        for j in range(n):
            assert list(ctx.neighbors[j]) == top_m_neighbors(data, j, m), f"row {j}"
        # both paths ran: some rows were certified, the rest recomputed
        assert 0 < len(fallback_rows) < n

    def test_duplicate_heavy_fallback_equals_oracle(self, monkeypatch):
        # 2000 quantized rows, the last 500 copies of others: most rows tie
        # exactly and are ranked by the fallback
        rng = np.random.default_rng(8)
        n, m = 2000, 5
        data = rng.integers(0, 4, size=(n, 8)) / 3.0
        data[n - 500 :] = data[rng.integers(0, n - 500, size=500)]
        fallback_rows = []
        real = exclusivity._cosine_to_row

        def spy(dataset, j, *args):
            fallback_rows.append(j)
            return real(dataset, j, *args)

        monkeypatch.setattr(exclusivity, "_cosine_to_row", spy)
        ctx = build_context(data, m)
        monkeypatch.setattr(exclusivity, "_cosine_to_row", real)
        assert len(fallback_rows) > n // 2
        certified = sorted(set(range(n)) - set(fallback_rows))
        sample = list(rng.choice(fallback_rows, size=40, replace=False))
        sample += certified[:: max(1, len(certified) // 10)] + [0, n - 1]
        for j in sample:
            assert list(ctx.neighbors[j]) == top_m_neighbors(data, j, m), f"row {j}"

    @pytest.mark.parametrize(
        "n, d, m, zero",
        [
            (2, 3, 1, False),  # the smallest table
            (40, 5, 39, False),  # m = n-1: no rank m+1 to certify
            (50, 6, 4, False),  # fewer rows than one block
            (20, 4, 3, True),  # every row has zero norm
            (5, 3, 3, False),  # the shape gate A1's probe cases build
        ],
    )
    def test_edge_shapes_equal_oracle(self, n, d, m, zero):
        data = np.random.default_rng(n).uniform(0.05, 0.95, size=(n, d))
        if zero:
            data[:] = 0.0
        ctx = build_context(data, m)
        assert ctx.neighbors.shape == (n, m)
        for j in range(n):
            assert list(ctx.neighbors[j]) == top_m_neighbors(data, j, m)

    def test_table_memory_is_per_block(self, monkeypatch):
        data = sparse_rows()
        monkeypatch.setattr(numkit, "_HELPER_MIN_ROWS", 1)  # 2 workers start the helper on this job
        for workers in (1, 2):  # two half blocks in flight hold what one whole block does
            monkeypatch.setattr(numkit, "ROW_BLOCK_WORKERS", workers)
            peak = traced_peak(build_context, data, 6)
            assert peak < 0.5 * data.nbytes, f"{workers} workers: traced peak {peak / data.nbytes:.2f} x the dataset"

    def test_same_table_at_one_and_two_workers(self, monkeypatch):
        # the tie-heavy set of the fallback test: certified and fallback rows
        # in every block, and a partial last block
        rng = np.random.default_rng(4)
        n, m = 3 * exclusivity._TABLE_BLOCK_ROWS + 21, 5
        data = rng.integers(0, 4, size=(n, 12)) / 3.0
        data[n - 50 :] = data[rng.integers(0, n - 50, size=50)]
        data[rng.choice(n, size=6, replace=False)] = 0.0
        tables = {}
        monkeypatch.setattr(numkit, "_HELPER_MIN_ROWS", 1)  # 2 workers start the helper on this job
        for workers in (1, 2):
            monkeypatch.setattr(numkit, "ROW_BLOCK_WORKERS", workers)
            tables[workers] = build_context(data, m).neighbors
        assert tables[1].tobytes() == tables[2].tobytes()
        for j in range(n):
            assert list(tables[2][j]) == top_m_neighbors(data, j, m), f"row {j}"

    def test_fallback_copies_no_rows(self):
        # half the rows are all zero, so each of those is ranked again by the
        # oracle's product over every row, which copies none of them
        rng = np.random.default_rng(11)
        data = rng.integers(1, 4, size=(2000, 784)) / 3.0
        data[rng.uniform(size=data.shape) > 0.1] = 0.0
        data[rng.uniform(size=2000) < 0.5] = 0.0
        peak = traced_peak(build_context, data, 6)
        assert peak < 0.5 * data.nbytes, f"traced peak {peak / data.nbytes:.2f} x the dataset"

    def test_fortran_ordered_table_equals_oracle(self, monkeypatch):
        # quantized rows with no zero norm, duplicated rows among them: ties
        # send rows to the fallback, which ranks against a C-ordered copy
        rng = np.random.default_rng(13)
        n, m = exclusivity._TABLE_BLOCK_ROWS + 72, 5
        data = rng.integers(1, 4, size=(n, 10)) / 3.0
        data[n - 40 :] = data[rng.integers(0, n - 40, size=40)]
        data = np.asfortranarray(data)
        fallback_rows, real = [], exclusivity._cosine_to_row

        def spy(dataset, j, *args):
            fallback_rows.append(j)
            return real(dataset, j, *args)

        monkeypatch.setattr(exclusivity, "_cosine_to_row", spy)
        ctx = build_context(data, m)
        monkeypatch.setattr(exclusivity, "_cosine_to_row", real)
        assert 0 < len(fallback_rows) < n
        for j in range(n):
            assert list(ctx.neighbors[j]) == top_m_neighbors(data, j, m), f"row {j}"


class TestTargetsFor:
    def test_single_neighbor_mean_is_that_row(self):
        data = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        ctx = build_context(data, 1)
        assert np.array_equal(row_targets(ctx, data, 0)[1], data[ctx.neighbors[0][0]])

    def test_identical_neighbors_give_that_row(self):
        data = np.array([[1.0, 1.0], [2.0, 2.0], [2.0, 2.0], [2.0, 2.0]])
        ctx = build_context(data, 2)
        assert np.allclose(row_targets(ctx, data, 0)[1], [2.0, 2.0], atol=1e-12)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_means_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(5, 4))
        ctx = build_context(data, 2)
        for i in range(5):
            got_hetero, got_homo = row_targets(ctx, data, i)
            hetero = np.delete(data, i, axis=0).mean(axis=0)
            homo = data[brute_top_m(data, i, 2)].mean(axis=0)
            assert np.max(np.abs(got_hetero - hetero)) < 1e-10
            assert np.max(np.abs(got_homo - homo)) < 1e-10


class TestExclusivityLoss:
    def test_ideal_state(self):
        # peer prototypes at twice the code, exclude-one prototypes clamp orthogonal
        h = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 0.5]])
        enc_hom = 2.0 * h
        enc_het = np.array([[1.0, 0.5], [2.0, 1.0], [3.0, 0.25]])
        hetero_sim, homo_sim, _ = exclusivity_loss(h, enc_het, enc_hom)
        assert hetero_sim == 0.0
        assert homo_sim == 1.0
        assert excl_term(hetero_sim, homo_sim) == 0.0

    def test_single_row_hand_value_as_hetero_term(self):
        h = np.array([[1.0, 2.0]])
        enc_het = np.array([[3.0, 1.0]])
        enc_hom = np.array([[2.0, 4.0]])
        hetero_sim, homo_sim, _ = exclusivity_loss(h, enc_het, enc_hom)
        assert hetero_sim == pytest.approx(1.0 / np.sqrt(5.0), abs=1e-12)
        assert homo_sim == pytest.approx(1.0)
        assert excl_term(hetero_sim, homo_sim) == pytest.approx(1.0 / np.sqrt(5.0), abs=1e-12)

    def test_row_misalignment_rejected(self):
        with pytest.raises(ValueError, match="misaligned"):
            exclusivity_loss(np.ones((2, 3)), np.ones((3, 3)), np.ones((2, 3)))

    def test_scale_invariance_per_row(self):
        rng = np.random.default_rng(13)
        h = rng.uniform(0.1, 1.0, size=(4, 5))
        het = rng.uniform(0.1, 1.0, size=(4, 5))
        hom = rng.uniform(0.1, 1.0, size=(4, 5))
        base = exclusivity_loss(h, het, hom)[:2]
        scaled_h, scaled_het, scaled_hom = h.copy(), het.copy(), hom.copy()
        scaled_h[2] *= 3.7
        scaled_het[2] *= 3.7
        scaled_hom[2] *= 3.7
        scaled = exclusivity_loss(scaled_h, scaled_het, scaled_hom)[:2]
        assert excl_term(*scaled) == pytest.approx(excl_term(*base), abs=1e-12)

    def test_degenerate_rows_never_nan(self):
        h = np.array([[0.0, 0.0], [1.0, 1.0]])
        het = np.array([[0.0, 0.0], [0.5, 0.5]])
        hom = np.zeros((2, 2))
        hetero_sim, homo_sim, grad = exclusivity_loss(h, het, hom)
        for val in (hetero_sim, homo_sim, excl_term(hetero_sim, homo_sim)):
            assert np.isfinite(val)
        for g in np.split(grad, 3):  # latent, hetero, homo rows
            assert np.all(np.isfinite(g))

    @pytest.mark.parametrize("seed", [15, 16, 17])
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        h = rng.uniform(0.2, 1.0, size=(4, 5))
        het = rng.uniform(0.2, 1.0, size=(4, 5))
        hom = rng.uniform(0.2, 1.0, size=(4, 5))

        def loss_fn():
            hetero_sim, homo_sim, grad = exclusivity_loss(h, het, hom)
            return excl_term(hetero_sim, homo_sim), np.split(grad, 3)  # [latent; hetero; homo] rows

        assert grad_check(loss_fn, [h, het, hom], epsilon=1e-6) < 1e-4
