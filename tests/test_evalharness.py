"""Feature extraction, k-NN against a brute-force oracle, experiments, checkpoints."""

import io
import json
import math
import re
import tracemalloc
import weakref
import zlib
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from exae import evalharness, numkit
from exae.autoencoder import AEConfig, AEModel, build_model, encode, model_parameters
from exae.dataio import Dataset, SplitSpec, save_idx, split_per_class, synth_gaussian
from exae.evalharness import (
    CheckpointError,
    _pairwise_dist,
    _side,
    DataSpec,
    ExperimentConfig,
    accuracy,
    extract_features,
    knn_classify,
    load_checkpoint,
    run_experiment,
    save_checkpoint,
)
from exae.numkit import DenseLayer
from exae.stacking import StackConfig, assemble, fine_tune, flat_norm, train_stack

B = evalharness._KNN_BLOCK_ROWS  # queries per k-NN block
FB = evalharness._FEATURE_BLOCK_ROWS  # rows per feature block


def identity_stacked(dim):
    enc = DenseLayer(np.eye(dim), np.zeros(dim), "identity")
    dec = DenseLayer(np.eye(dim), np.zeros(dim), "identity")
    model = AEModel(encoder=[enc], decoder=[dec])
    return assemble([model])


def small_stack_cfg(input_dim, latent=3, **kwargs):
    level = AEConfig(
        layer_sizes=[input_dim, latent],
        excl_weight=2.0,
        n_neighbors=2,
        lr=0.05,
        epochs=3,
        batch_size=8,
        seed=0,
    )
    defaults = dict(levels=[level], band=0.6, finetune_epochs=2, finetune_lr=0.02,
                    finetune_batch_size=8, finetune_seed=0)
    defaults.update(kwargs)
    return StackConfig(**defaults)


def brute_knn(train_feats, train_labels, query_feats, k):
    """Exhaustive reference: sort by (distance, index), majority vote,
    break vote ties by summed distance then label."""
    out = []
    for q in query_feats:
        d = np.sum((train_feats - q) ** 2, axis=1)
        order = sorted(range(len(d)), key=lambda i: (d[i], i))[:k]
        tally = {}
        for i in order:
            cnt, tot = tally.get(train_labels[i], (0, 0.0))
            tally[train_labels[i]] = (cnt + 1, tot + d[i])
        out.append(min(tally, key=lambda l: (-tally[l][0], tally[l][1], l)))
    return np.array(out)


class TestExtractFeatures:
    def test_identity_model_returns_inputs(self):
        stacked = identity_stacked(4)
        rows = np.random.default_rng(0).uniform(size=(6, 4))
        ds = Dataset(examples=rows, labels=np.arange(6), image_shape=(1, 4))
        assert np.array_equal(extract_features(stacked, ds), rows)

    def test_feature_width_is_final_latent_dim(self):
        data = synth_gaussian(2, 8, 10, 0.1, seed=0)
        cfg = small_stack_cfg(8, latent=3)
        stacked, _ = train_stack(cfg, data.examples)
        assert extract_features(stacked, data).shape == (20, 3)

    def test_equals_sequential_per_level_encoding(self):
        data = synth_gaussian(2, 8, 10, 0.1, seed=1)
        lvl1 = AEConfig(layer_sizes=[8, 5], excl_weight=1.0, n_neighbors=2, epochs=2, seed=0)
        lvl2 = AEConfig(layer_sizes=[5, 3], excl_weight=1.0, n_neighbors=2, epochs=2, seed=0,
                        output_activation="relu")
        cfg = StackConfig(levels=[lvl1, lvl2], finetune_epochs=0)
        stacked, _ = train_stack(cfg, data.examples)
        manual = encode(stacked.levels[1], encode(stacked.levels[0], data.examples))
        assert np.array_equal(extract_features(stacked, data), manual)

    def test_dimension_mismatch(self):
        stacked = identity_stacked(4)
        with pytest.raises(ValueError, match="input dim"):
            extract_features(stacked, Dataset(examples=np.zeros((2, 5)), labels=[0, 1], image_shape=(1, 5)))

    @pytest.mark.parametrize("rows", [1, FB - 1, FB, FB + 1, 2 * FB + 1])
    def test_blocks_equal_whole_matrix_encode(self, rows):
        # one block short of, at and past the block boundary, and a third block
        stacked = assemble([build_model(AEConfig(layer_sizes=[12, 9, 5], seed=3))])
        x = np.random.default_rng(rows).uniform(size=(rows, 12))
        got = extract_features(stacked, x)
        assert got.shape == (rows, 5)
        # rows in input order; bitwise on OpenBLAS, within rounding on any BLAS
        assert np.allclose(got, encode(stacked.assembled, x), rtol=1e-13, atol=0.0)

    def test_memory_is_per_block(self, monkeypatch):
        stacked = assemble([build_model(AEConfig(layer_sizes=[784, 256, 128], seed=0))])
        x = np.random.default_rng(0).uniform(size=(8000, 784))
        output = 8000 * 128 * 8
        layer_1 = 8000 * 256 * 8  # 16 MB of whole-matrix activations
        for workers in (1, 2):  # two half blocks in flight hold what one whole block does
            monkeypatch.setattr(numkit, "ROW_BLOCK_WORKERS", workers)
            tracemalloc.start()
            try:
                extract_features(stacked, x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < output + layer_1 / 4, f"{workers} workers: traced peak {peak / 2**20:.2f} MiB"

    def test_same_bytes_on_the_helper_thread(self, monkeypatch):
        # 2 workers halve the block, so 1 worker at half the block runs the
        # same partition in order: the bytes must not depend on the thread
        stacked = assemble([build_model(AEConfig(layer_sizes=[20, 12, 6], seed=4))])
        x = np.random.default_rng(5).uniform(size=(2 * FB + 3, 20))
        monkeypatch.setattr(numkit, "ROW_BLOCK_WORKERS", 2)
        monkeypatch.setattr(numkit, "_HELPER_MIN_ROWS", 1)  # 2 workers start the helper on this job
        threaded = extract_features(stacked, x)
        monkeypatch.setattr(numkit, "ROW_BLOCK_WORKERS", 1)
        monkeypatch.setattr(evalharness, "_FEATURE_BLOCK_ROWS", FB // 2)
        assert threaded.tobytes() == extract_features(stacked, x).tobytes()
        # bitwise on OpenBLAS at these shapes, within rounding on any BLAS
        monkeypatch.setattr(evalharness, "_FEATURE_BLOCK_ROWS", FB)
        assert np.allclose(threaded, extract_features(stacked, x), rtol=1e-13, atol=0.0)


def full_sort_knn(train_feats, train_labels, query_feats, k, metric="euclidean"):
    """Reference selection: a full lexsort of every distance per query, on the
    distances knn_classify computes (one product per block of numkit.row_blocks,
    as a block's shape can change the last bits), then the documented vote:
    count, then the sum in neighbor order of each distance / 2^ceil(log2 k)."""
    query_side, train_side = _side(query_feats, metric, "query"), _side(train_feats, metric, "train")
    dists = np.vstack([
        _pairwise_dist(query_feats[a:b], train_feats, metric, query_side[a:b], train_side)
        for a, b in numkit.row_blocks(len(query_feats), B)
    ])
    out = []
    for q in range(len(query_feats)):
        order = np.lexsort((np.arange(len(train_feats)), dists[q]))
        tally = {}
        for i in order[:k]:
            cnt, tot = tally.get(int(train_labels[i]), (0, 0.0))
            tally[int(train_labels[i])] = (cnt + 1, tot + dists[q, i] / 2 ** math.ceil(math.log2(k)))
        out.append(min(tally, key=lambda l: (-tally[l][0], tally[l][1], l)))
    return np.array(out)


def collapsed_codes(rng, n, dim=8, live=0.2):
    """relu-style codes where most rows are all zero: massive distance ties."""
    codes = np.maximum(rng.normal(size=(n, dim)), 0.0)
    codes[rng.uniform(size=n) >= live] = 0.0
    return codes


def expression_dist(query, train, metric):
    """The distances as plain expressions, each with full-size temporaries."""
    if metric == "euclidean":
        d2 = (
            np.sum(query**2, axis=1)[:, None]
            - 2.0 * query @ train.T
            + np.sum(train**2, axis=1)[None, :]
        )
        return np.maximum(d2, 0.0)
    qn = np.linalg.norm(query, axis=1)
    tn = np.linalg.norm(train, axis=1)
    return 1.0 - query @ train.T / np.maximum(np.outer(qn, tn), 1e-300)


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_pairwise_dist_bitwise_equal_to_expressions(metric):
    rng = np.random.default_rng(5)
    train = collapsed_codes(rng, 300, dim=16, live=0.7)
    queries = collapsed_codes(rng, 70, dim=16, live=0.7)
    queries[3] = train[8]
    got = _pairwise_dist(queries, train, metric, _side(queries, metric, "query"), _side(train, metric, "train"))
    assert got.tobytes() == expression_dist(queries, train, metric).tobytes()


class TestKnnClassify:
    def test_query_equal_to_training_row(self):
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1, 2])
        pred = knn_classify(feats, labels, np.array([[1.0, 0.0]]), k=1)
        assert pred.tolist() == [1]

    def test_single_training_example_wins_everything(self):
        pred = knn_classify(
            np.array([[5.0, 5.0]]), np.array([9]), np.random.default_rng(0).uniform(size=(7, 2))
        )
        assert np.all(pred == 9)

    def test_empty_training_set(self):
        with pytest.raises(ValueError, match="empty"):
            knn_classify(np.zeros((0, 2)), np.array([]), np.zeros((1, 2)))

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_brute_force_oracle(self, k, seed):
        rng = np.random.default_rng(seed)
        train_feats = rng.normal(size=(20, 2))
        labels = rng.integers(0, 2, size=20)
        queries = rng.normal(size=(15, 2))
        got = knn_classify(train_feats, labels, queries, k=k)
        assert np.array_equal(got, brute_knn(train_feats, labels, queries, k))

    def test_distance_tie_breaks_to_lower_index(self):
        feats = np.array([[1.0, 0.0], [1.0, 0.0]])
        labels = np.array([4, 2])
        pred = knn_classify(feats, labels, np.array([[1.0, 0.0]]), k=1)
        assert pred.tolist() == [4]

    def test_vote_tie_breaks_by_summed_distance(self):
        feats = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
        labels = np.array([0, 0, 1, 1])
        # query near the two label-0 points: k=4 ties 2-2, label 0 is closer in sum
        pred = knn_classify(feats, labels, np.array([[1.0, 0.0]]), k=4)
        assert pred.tolist() == [0]

    def test_training_set_against_itself_is_perfect(self):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(30, 4))  # distinct rows almost surely
        labels = rng.integers(0, 3, size=30)
        pred = knn_classify(feats, labels, feats, k=1)
        assert accuracy(pred, labels) == 1.0

    def test_cosine_metric(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1])
        # far along x but tiny norm: cosine picks label 0
        pred = knn_classify(feats, labels, np.array([[0.001, 0.0]]), k=1, metric="cosine")
        assert pred.tolist() == [0]

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_collapsed_codes_match_full_sort(self, metric, k):
        rng = np.random.default_rng(k)
        # enough rows that a plain argpartition no longer happens to pick
        # the lowest-index ties
        train = collapsed_codes(rng, 600)
        labels = rng.integers(0, 3, size=600)
        queries = collapsed_codes(rng, 2 * B + 12)  # more than two query blocks
        got = knn_classify(train, labels, queries, k=k, metric=metric)
        assert np.array_equal(got, full_sort_knn(train, labels, queries, k, metric))

    def test_k_equal_to_candidate_count(self):
        rng = np.random.default_rng(3)
        feats = collapsed_codes(rng, 30, live=0.6)
        labels = rng.integers(0, 3, size=30)
        got = knn_classify(feats, labels, feats, k=30)
        assert np.array_equal(got, full_sort_knn(feats, labels, feats, 30, "euclidean"))

    def test_label_count_other_than_train_rows_refused(self):
        with pytest.raises(ValueError, match="^train labels length does not match train rows$"):
            knn_classify(np.eye(3), [0, 1], np.eye(3))

    def test_unknown_metric_refused(self):
        with pytest.raises(ValueError, match=re.escape("metric must be one of ('euclidean', 'cosine'), got 'manhattan'")):
            knn_classify(np.eye(3), [0, 1, 2], np.eye(3), metric="manhattan")

    def test_feature_width_mismatch_refused(self):
        labels = np.zeros(5)
        with pytest.raises(ValueError, match="query features have 2 columns, train features 3"):
            knn_classify(np.ones((5, 3)), labels, np.ones((4, 2)))

    @pytest.mark.parametrize("k, refused", [(0, "k must be >= 1, got 0"), (31, "k=31 out of range for 30 training rows")],
                             ids=["0", "31"])
    def test_k_out_of_range_refused(self, k, refused):
        feats = np.zeros((30, 2))
        with pytest.raises(ValueError, match=f"^{refused}$"):
            knn_classify(feats, np.zeros(30, dtype=np.int64), feats, k=k)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_non_finite_input_refused(self, metric):
        rng = np.random.default_rng(4)
        train = rng.normal(size=(20, 3))
        labels = rng.integers(0, 3, size=20)
        queries = rng.normal(size=(B + 6, 3))
        bad_row = B + 2  # in the second block of queries
        for bad in (np.nan, np.inf, -np.inf):
            feats = train.copy()
            feats[7, 1] = bad
            with pytest.raises(ValueError, match="train features .* row 7"):
                knn_classify(feats, labels, queries, k=3, metric=metric)
            feats = queries.copy()
            feats[bad_row, 0] = bad
            with pytest.raises(ValueError, match=f"query features .* row {bad_row}"):
                knn_classify(train, labels, feats, k=3, metric=metric)
        feats = queries.copy()
        feats[bad_row] = 1e160  # finite, but its squared norm, and so its norm, overflows
        with pytest.raises(ValueError, match=f"query row {bad_row} is past the {metric} bound: .*inf > "):
            knn_classify(train, labels, feats, k=3, metric=metric)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_overflowing_train_row_is_named(self, metric):
        rng = np.random.default_rng(4)
        train = rng.normal(size=(20, 3))
        train[5] = 1e160  # finite, but its squared norm overflows
        labels = rng.integers(0, 3, size=20)
        with pytest.raises(ValueError, match=f"train row 5 is past the {metric} bound") as err:
            knn_classify(train, labels, rng.normal(size=(70, 3)), k=3, metric=metric)
        assert "query" not in str(err.value)

    def test_overflowed_product_refused_naming_the_train_row(self):
        # both sides are finite, but 2 q.t is past the largest float64: the
        # clamp would read the overflowed distance of the first query as 0
        train = np.array([[1.3e154, 0.0], [0.0, 1.0]])
        for query in ([[1.287e154, 0.0]], [[-1.287e154, 0.0]]):
            message = r"^train row 0 is past the euclidean bound: squared norm 1\.69e\+308 > max/8$"
            with pytest.raises(ValueError, match=message):
                knn_classify(train, [0, 1], np.array(query), k=1)

    def test_train_row_just_past_max_over_8_is_refused(self):
        rng = np.random.default_rng(6)
        train = rng.normal(size=(20, 3))
        labels = rng.integers(0, 3, size=20)
        queries = rng.normal(size=(5, 3))
        edge = np.sqrt(np.finfo(float).max / 8)  # the squared norm the euclidean bound allows
        train[9] = [edge * (1 - 1e-12), 0.0, 0.0]
        got = knn_classify(train, labels, queries, k=3)
        assert np.array_equal(got, full_sort_knn(train, labels, queries, 3))
        train[9, 0] = edge * (1 + 1e-12)  # no distance overflows, but one could
        with pytest.raises(ValueError, match="train row 9 is past the euclidean bound: .* > max/8$"):
            knn_classify(train, labels, queries, k=3)

    def test_cosine_query_row_just_past_root_half_max_is_refused(self):
        rng = np.random.default_rng(7)
        train = rng.normal(size=(20, 3))
        labels = rng.integers(0, 3, size=20)
        queries = rng.normal(size=(B + 6, 3))
        bad_row = B + 2  # in the second block of queries
        edge = np.sqrt(np.finfo(float).max / 2)  # the norm the cosine bound allows
        queries[bad_row] = [edge * (1 - 1e-12), 0.0, 0.0]
        got = knn_classify(train, labels, queries, k=3, metric="cosine")
        assert np.array_equal(got, full_sort_knn(train, labels, queries, 3, "cosine"))
        queries[bad_row, 0] = edge * (1 + 1e-12)
        with pytest.raises(ValueError, match=rf"query row {bad_row} is past the cosine bound: .* > sqrt\(max/2\)$"):
            knn_classify(train, labels, queries, k=3, metric="cosine")

    def test_cosine_row_whose_norm_underflows_is_refused(self):
        # the norm of [1e-170, 2e-170] underflows to 0, and ranking by the raw
        # product would give label 2; scaled by 1e160 its true nearest is label 1
        train = np.array([[1.0, 0.0], [0.0, 1.0], [30.0, 0.1]])
        query = np.array([[1e-170, 2e-170]])
        assert knn_classify(train, [0, 1, 2], query * 1e160, k=1, metric="cosine").tolist() == [1]
        with pytest.raises(ValueError, match="^query row 0 is not all zero but its norm is below 1e-150$"):
            knn_classify(train, [0, 1, 2], query, k=1, metric="cosine")
        with pytest.raises(ValueError, match="^train row 2 is not all zero"):
            knn_classify(np.vstack([train[:2], query]), [0, 1, 2], train, k=1, metric="cosine")
        edge = np.array([[2e-150, 0.0]])  # at the floor's scale, still ranked by cosine
        assert knn_classify(train, [0, 1, 2], edge, k=1, metric="cosine").tolist() == [0]

    def test_cosine_row_whose_norm_underflows_is_refused_when_numpy_raises(self):
        # its squares underflow: under np.errstate(all="raise") that must not escape the refusal
        train = np.array([[1e-170, 2e-170, 0.0], [1.0, 0.0, 0.0]])
        with np.errstate(all="raise"), pytest.raises(ValueError, match="^train row 0 is not all zero"):
            knn_classify(train, [0, 1], np.ones((1, 3)), k=1, metric="cosine")

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_all_zero_train_codes_are_ranked_by_index(self, metric, k):
        # a collapsed arm's codes: every train side is 0, so each query's
        # distances all tie and its neighbors are the first k train rows
        rng = np.random.default_rng(k)
        train = np.zeros((40, 8))
        labels = rng.integers(0, 3, size=40)
        queries = collapsed_codes(rng, B + 5)
        got = knn_classify(train, labels, queries, k=k, metric=metric)
        assert np.array_equal(got, full_sort_knn(train, labels, queries, k, metric))
        values, counts = np.unique(labels[:k], return_counts=True)
        assert got.tolist() == [values[np.argmax(counts)]] * (B + 5)  # count, then lower label

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("k", [1, 4, 7])
    @pytest.mark.parametrize("n_queries", [1, 63, 64, 65, 129, B - 1, B, B + 1, 2 * B + 1])
    def test_query_block_boundaries_match_full_sort(self, n_queries, k, metric):
        # counts inside one block, then one block short of, at and past the
        # block boundary, and a third block
        rng = np.random.default_rng(n_queries + 10 * k)
        train = collapsed_codes(rng, 300, live=0.5)
        labels = rng.integers(0, 4, size=300)
        queries = collapsed_codes(rng, n_queries, live=0.5)
        got = knn_classify(train, labels, queries, k=k, metric=metric)
        assert got.shape == (n_queries,)
        assert np.array_equal(got, full_sort_knn(train, labels, queries, k, metric))

    def test_count_tie_goes_to_smaller_sum_not_lower_label(self):
        feats = np.array([[0.0], [2.0], [10.0], [11.0]])
        labels = np.array([5, 5, 1, 1])
        queries = np.tile([[1.0]], (B + 6, 1))  # two blocks of the same query
        # 2-2 count tie: label 5 sums 1 + 1, label 1 sums 81 + 100
        assert knn_classify(feats, labels, queries, k=4).tolist() == [5] * (B + 6)

    def test_count_and_sum_tie_goes_to_lower_label(self):
        feats = np.array([[-1.0], [1.0], [5.0]])
        labels = np.array([3, 2, 3])
        queries = np.tile([[0.0]], (B + 1, 1))  # two blocks of the same query
        # label 3 comes first (lower index at the same distance), yet 1-1 at sum 1 goes to 2
        got = knn_classify(feats, labels, queries, k=2)
        assert got.tolist() == [2] * (B + 1)
        assert np.array_equal(got, full_sort_knn(feats, labels, queries, 2))


def test_knn_memory_is_per_block_not_full_matrix(monkeypatch):
    rng = np.random.default_rng(0)
    train = rng.normal(size=(2000, 16))
    labels = rng.integers(0, 10, size=2000)
    queries = rng.normal(size=(4000, 16))
    full_matrix = queries.shape[0] * train.shape[0] * 8  # 61 MiB of float64 distances
    monkeypatch.setattr(numkit, "_HELPER_MIN_ROWS", 1)  # 2 workers start the helper on this job
    for workers in (1, 2):  # two half blocks in flight hold what one whole block does
        monkeypatch.setattr(numkit, "ROW_BLOCK_WORKERS", workers)
        tracemalloc.start()
        try:
            knn_classify(train, labels, queries, k=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < full_matrix / 8, f"{workers} workers: traced peak {peak / 2**20:.2f} MiB"


def test_knn_block_uses_half_its_memory_bound(monkeypatch):
    # each block's product packs the whole train side again: blocks far
    # narrower than the bound above pay that packing many times over. One
    # worker holds one block at a time, so the traced peak is one block's.
    monkeypatch.setattr(numkit, "ROW_BLOCK_WORKERS", 1)
    rng = np.random.default_rng(0)
    train = rng.normal(size=(2000, 16))
    queries = rng.normal(size=(4000, 16))
    tracemalloc.start()
    try:
        knn_classify(train, rng.integers(0, 10, size=2000), queries, k=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak > 4000 * 2000 * 8 / 16, f"traced peak {peak / 2**20:.2f} MiB"
    # two workers run half blocks two at a time: the same rows in flight
    monkeypatch.setattr(numkit, "ROW_BLOCK_WORKERS", 2)
    assert 2 * max(stop - start for start, stop in numkit.row_blocks(4000, B)) == B


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_knn_same_predictions_at_one_and_two_workers(monkeypatch, metric):
    rng = np.random.default_rng(31)
    train = collapsed_codes(rng, 500)
    labels = rng.integers(0, 4, size=500)
    queries = collapsed_codes(rng, 3 * B + 5)  # tie-heavy, with a partial last block
    got = {}
    monkeypatch.setattr(numkit, "_HELPER_MIN_ROWS", 1)  # 2 workers start the helper on this job
    for workers in (1, 2):
        monkeypatch.setattr(numkit, "ROW_BLOCK_WORKERS", workers)
        got[workers] = knn_classify(train, labels, queries, k=3, metric=metric)
    assert got[1].tobytes() == got[2].tobytes()
    assert np.array_equal(got[2], full_sort_knn(train, labels, queries, 3, metric))


def lexsort_widths(monkeypatch):
    """The width of every row-wise lexsort numkit.smallest runs: the candidates it ranks."""
    widths = []
    lexsort = np.lexsort

    def lexsort_spy(keys, axis=-1):
        widths.append(keys[0].shape[-1])
        return lexsort(keys, axis=axis)

    monkeypatch.setattr(numkit.np, "lexsort", lexsort_spy)
    return widths


class TestSelectionPaths:
    """How many candidates of each row reach numkit.smallest's one lexsort."""

    def test_healthy_codes_rank_only_candidates(self, monkeypatch):
        rng = np.random.default_rng(0)
        train = rng.normal(size=(2000, 16))
        labels = rng.integers(0, 10, size=2000)
        queries = rng.normal(size=(640, 16))
        want = full_sort_knn(train, labels, queries, 5)
        widths = lexsort_widths(monkeypatch)
        got = knn_classify(train, labels, queries, k=5)
        # the sampled bound leaves a few dozen candidates of 2000 a row
        assert len(widths) == len(numkit.row_blocks(640, B)), widths  # one lexsort a block
        assert max(widths) <= 2 * numkit._SMALLEST_GATHER_WIDTH, widths
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_ties_are_filled_without_per_row_lexsort(self, monkeypatch, metric, k):
        rng = np.random.default_rng(20 + k)
        train = collapsed_codes(rng, 600)
        labels = rng.integers(0, 3, size=600)
        queries = collapsed_codes(rng, 140)
        want = full_sort_knn(train, labels, queries, k, metric)
        widths = lexsort_widths(monkeypatch)
        got = knn_classify(train, labels, queries, k=k, metric=metric)
        # all-zero rows tie far past the width: only the ties that fit are ranked
        assert len(widths) == len(numkit.row_blocks(140, B)), widths
        assert max(widths) <= numkit._SMALLEST_GATHER_WIDTH, widths
        assert np.array_equal(got, want)


def lexsort_nearest(block, reach):
    """The first reach columns of each row's lexsort on (distance, index)."""
    index = np.arange(block.shape[1])
    return np.array([np.lexsort((index, row))[:reach] for row in block]).reshape(-1, reach)


def distance_block(kind, rng, rows, n):
    if kind == "normal":
        return rng.normal(size=(rows, n)) ** 2
    if kind == "tie-heavy":
        return rng.integers(0, 4, size=(rows, n)) / 3.0
    if kind == "collapsed":
        return np.where(rng.uniform(size=(rows, n)) < 0.1, rng.uniform(size=(rows, n)), 0.0)
    values = np.array([-np.inf, 0.0, 0.5, 1.0, np.inf])  # "inf"
    return values[rng.integers(0, len(values), size=(rows, n))]


SELECTION_KINDS = ["normal", "tie-heavy", "collapsed", "inf"]


@pytest.mark.parametrize("kind", SELECTION_KINDS)
def test_nearest_equals_full_lexsort_sweep(kind):
    # n below, at and above the sample stride and the gather width; reach up to n
    rng = np.random.default_rng(SELECTION_KINDS.index(kind))
    stride, width = numkit._SMALLEST_SAMPLE_STRIDE, numkit._SMALLEST_GATHER_WIDTH
    sizes = [1, 2, stride - 1, stride, stride + 1, 3 * stride, width, width + 1, 4 * width, 700]
    for trial in range(60):
        n = sizes[trial % len(sizes)]
        reach = n if trial % 7 == 0 else int(rng.integers(1, min(n, 10) + 1))
        block = distance_block(kind, rng, int(rng.integers(1, 70)), n)
        got = numkit.smallest(block, reach)
        assert np.array_equal(got, lexsort_nearest(block, reach)), (trial, n, reach)


@pytest.mark.parametrize("kind", SELECTION_KINDS[:3])
def test_knn_equals_full_sort_sweep(kind):
    # whole knn_classify runs on codes; ±inf distances are swept on numkit.smallest above
    rng = np.random.default_rng(10 + SELECTION_KINDS.index(kind))
    for trial in range(24):
        n = [2, 3, 5, 9, 40, 300][trial % 6]
        dim = int(rng.integers(1, 9))
        feats = rng.normal(size=(n + 70, dim))
        if kind == "tie-heavy":
            feats = rng.integers(0, 3, size=feats.shape) / 2.0
        elif kind == "collapsed":
            feats = collapsed_codes(rng, n + 70, dim)
        train, queries = feats[:n], feats[n:]
        labels = rng.integers(0, 4, size=n)
        metric = ("euclidean", "cosine")[trial % 2]
        if trial % 3 == 0:
            queries = train
        k = n if trial % 5 == 0 else int(rng.integers(1, n + 1))
        got = knn_classify(train, labels, queries, k, metric)
        want = full_sort_knn(train, labels, queries, k, metric)
        assert np.array_equal(got, want), (trial, n, k, metric)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["all-zero", "3-valued"])
@pytest.mark.parametrize("reach", [1, 5, 7])
def test_smallest_trims_tied_rows_within_the_block(kind, reach):
    # every row ties far past the gather width: trimming all 96 at once
    # held 2.75 times the block's bytes, a few rows at a time holds less than it
    rng = np.random.default_rng(reach)
    block = np.zeros((96, 2000)) if kind == "all-zero" else rng.integers(0, 3, size=(96, 2000)) / 2.0
    peak = traced_peak(numkit.smallest, block, reach)
    assert peak < block.nbytes, f"traced peak {peak / block.nbytes:.2f} x the block"
    assert np.array_equal(numkit.smallest(block, reach), lexsort_nearest(block, reach))


def test_knn_on_collapsed_codes_holds_under_two_blocks(monkeypatch):
    # 98% all-zero codes: each query's distances tie across most of the train rows
    rng = np.random.default_rng(3)
    codes = collapsed_codes(rng, 3000, dim=128, live=0.02)
    train, queries, labels = codes[:2000], codes[2000:], rng.integers(0, 10, size=2000)
    two_blocks = 2 * B * train.shape[0] * 8
    monkeypatch.setattr(numkit, "_HELPER_MIN_ROWS", 1)  # 2 workers start the helper on this job
    for workers in (1, 2):  # two half blocks in flight hold what one whole block does
        monkeypatch.setattr(numkit, "ROW_BLOCK_WORKERS", workers)
        peak = traced_peak(knn_classify, train, labels, queries, 1)
        assert peak < two_blocks, f"{workers} workers: traced peak {peak / two_blocks:.2f} x two blocks"


def test_cosine_knn_on_collapsed_codes_holds_under_two_blocks(monkeypatch):
    # the divisor |q||t| beside the distances: a whole block of it took the peak past two blocks
    rng = np.random.default_rng(3)
    codes = collapsed_codes(rng, 3000, dim=128, live=0.02)
    train, queries, labels = codes[:2000], codes[2000:], rng.integers(0, 10, size=2000)
    two_blocks = 2 * B * train.shape[0] * 8
    monkeypatch.setattr(numkit, "_HELPER_MIN_ROWS", 1)  # 2 workers start the helper on this job
    for workers in (1, 2):
        monkeypatch.setattr(numkit, "ROW_BLOCK_WORKERS", workers)
        peak = traced_peak(knn_classify, train, labels, queries, 1, "cosine")
        assert peak < two_blocks, f"{workers} workers: traced peak {peak / two_blocks:.2f} x two blocks"
        # k = 1 takes the lowest-index nearest row of the whole-divisor distances, block by block
        dists = [expression_dist(queries[a:b], train, "cosine") for a, b in numkit.row_blocks(len(queries), B)]
        want = labels[np.argmin(np.vstack(dists), axis=1)]
        assert np.array_equal(knn_classify(train, labels, queries, 1, "cosine"), want)


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_knn_sides_are_taken_a_block_at_a_time(metric):
    # 20000 queries against 300 train rows: a whole-matrix square is as large as the queries
    rng = np.random.default_rng(4)
    train, queries = rng.normal(size=(300, 64)), rng.normal(size=(20000, 64))
    peak = traced_peak(knn_classify, train, rng.integers(0, 3, size=300), queries, 1, metric)
    assert peak < queries.nbytes / 4, f"traced peak {peak / queries.nbytes:.2f} x the queries"


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_sides_equal_the_whole_matrix_expressions(metric, order):
    # two whole blocks and a lone last row, whose 1-row slice of a Fortran-ordered
    # matrix would be squared in another layout and summed in another order
    for seed in range(8):
        feats = np.asarray(np.random.default_rng(seed).normal(size=(2 * B + 1, 128)), order=order)
        want = np.sum(feats**2, axis=1) if metric == "euclidean" else np.linalg.norm(feats, axis=1)
        assert _side(feats, metric, "query").tobytes() == want.tobytes(), seed


class TestAccuracy:
    def test_identical(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint(self):
        assert accuracy([1, 1], [2, 2]) == 0.0

    def test_three_of_four(self):
        assert accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy([], [])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            accuracy([1], [1, 2])


def experiment_config(out_dir, trials=2, **kwargs):
    defaults = dict(
        data=DataSpec(classes=2, dim=6, per_class=12, spread=0.08, synth_seed=0),
        split=SplitSpec(per_class_train=8),
        stack=small_stack_cfg(6, latent=3),
        trials=trials,
        knn_k=1,
        base_seed=0,
        out_dir=str(out_dir),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


@pytest.mark.parametrize(
    "make, refused",
    [
        (lambda out: experiment_config(out, base_seed=-1), "^base_seed must be >= 0, got -1$"),
        (lambda out: DataSpec(synth_seed=-1), "^synth_seed must be >= 0, got -1$"),
        *((lambda out, s=s: DataSpec(spread=s), f"^spread must be positive and finite, got {s}$")
          for s in (np.inf, np.nan, 0.0, -0.1)),
    ],
)
def test_negative_seed_or_bad_spread_refused_at_construction(tmp_path, make, refused):
    with pytest.raises(ValueError, match=refused):
        make(tmp_path)


class TestRunExperiment:
    def test_single_trial_runs_pipeline(self, tmp_path):
        records, summary = run_experiment(experiment_config(tmp_path, trials=1))
        assert len(records) == 1
        assert summary["completed"] == 1
        assert not summary["partial"]
        assert 0.0 <= records[0].accuracy <= 1.0
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "timings.csv").exists()
        assert (tmp_path / "summary.json").exists()

    def test_summary_mean(self, tmp_path):
        records, summary = run_experiment(experiment_config(tmp_path, trials=2))
        accs = [r.accuracy for r in records]
        assert summary["accuracy_mean"] == pytest.approx(np.mean(accs))

    def test_metrics_file_byte_stable(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run_experiment(experiment_config(a_dir, trials=2))
        run_experiment(experiment_config(b_dir, trials=2))
        assert (a_dir / "metrics.csv").read_bytes() == (b_dir / "metrics.csv").read_bytes()

    def test_failed_trial_recorded_and_rest_proceed(self, tmp_path):
        cfg = experiment_config(tmp_path, trials=2)
        # per_class_train equal to class size cannot split on trial data
        cfg = experiment_config(tmp_path, trials=2, split=SplitSpec(per_class_train=12))
        records, summary = run_experiment(cfg)
        assert summary["partial"]
        assert summary["completed"] == 0
        assert summary["failures"] == {t: "ValueError: split failed: class 0 has 12 rows, need 13" for t in (0, 1)}

    def test_knn_k_past_the_training_rows_refused_before_training(self, tmp_path, monkeypatch):
        def no_training(*args):
            raise AssertionError("a trial trained before the refusal")

        monkeypatch.setattr(evalharness, "train_stack", no_training)
        _, summary = run_experiment(experiment_config(tmp_path, trials=2, knn_k=17))  # 16 training rows
        assert summary["failures"] == {
            t: "ValueError: evaluation failed: k=17 out of range for 16 training rows" for t in (0, 1)}

    def test_features_past_the_knn_bound_name_the_evaluation_phase(self, tmp_path, monkeypatch):
        # codes shifted by 1e160 square past max/8: knn_classify refuses them after the fine-tune
        codes = evalharness.extract_features
        monkeypatch.setattr(evalharness, "extract_features", lambda stacked, data: codes(stacked, data) + 1e160)
        _, summary = run_experiment(experiment_config(tmp_path))
        assert summary["completed"] == 0
        for what in summary["failures"].values():
            assert what.startswith("ValueError: evaluation failed: train row 0 is past the euclidean bound"), what

    @pytest.mark.parametrize("source", ["synth", "idx"])
    def test_one_class_refused_naming_the_count_before_any_training(self, tmp_path, monkeypatch, source):
        def no_training(*args):
            raise AssertionError("a trial trained before the refusal")

        monkeypatch.setattr(evalharness, "train_stack", no_training)
        data, where = DataSpec(classes=1, dim=6, per_class=12, spread=0.08), "the synth rows"
        if source == "idx":  # two classes of rows, every label 0
            rows = synth_gaussian(2, 6, 12, 0.08, 0)
            where = str(tmp_path / "labels")
            save_idx(Dataset(rows.examples, np.zeros(rows.n, dtype=np.int64), rows.image_shape), tmp_path / "images", where)
            data = DataSpec(images=str(tmp_path / "images"), labels=where)
        with pytest.raises(ValueError, match=f"^classes must be >= 2 for k-NN to score, got 1 in {re.escape(where)}$"):
            run_experiment(experiment_config(tmp_path / "out", data=data))
        assert not (tmp_path / "out").exists()

    def test_trial_setup_seeds_every_phase_with_base_seed_plus_trial(self, tmp_path):
        levels = [small_stack_cfg(6, latent=4).levels[0], small_stack_cfg(4, latent=3).levels[0]]
        config = experiment_config(tmp_path, base_seed=3, stack=small_stack_cfg(6, levels=levels))
        loaded = evalharness.load_data(config.data)
        train_set, test_set, stack = evalharness.trial_setup(config, loaded, 2)
        assert stack == replace(config.stack, levels=[replace(l, seed=5) for l in levels], finetune_seed=5)
        want = split_per_class(loaded[0], SplitSpec(per_class_train=8, seed=5))
        assert [d.examples.tobytes() for d in (train_set, test_set)] == [d.examples.tobytes() for d in want]

    def test_unreadable_data_leaves_no_output_dir(self, tmp_path):
        missing = DataSpec(images=str(tmp_path / "i.idx"), labels=str(tmp_path / "l.idx"))
        with pytest.raises(FileNotFoundError):
            run_experiment(experiment_config(tmp_path / "out", data=missing))
        assert not (tmp_path / "out").exists()

    def test_trial_zero_model_saved_with_a_null_config_by_default(self, tmp_path):
        config = experiment_config(tmp_path, trials=2)
        records, _ = run_experiment(config)
        buf = (tmp_path / "model.ckpt").read_bytes()
        assert json.loads(buf[16 : 16 + int.from_bytes(buf[12:16], "little")])["config"] is None
        train_set, test_set, _ = evalharness.trial_setup(config, evalharness.load_data(config.data), 0)
        scored = evalharness.evaluate(load_checkpoint(tmp_path / "model.ckpt"), train_set, test_set, 1, "euclidean")
        assert scored == records[0].accuracy

    def test_no_trial_model_is_held_while_the_next_trial_runs(self, tmp_path, monkeypatch):
        stacks, held = [], []
        real = evalharness.run_trial

        def tracking(*args):
            held.append([ref() is not None for ref in stacks])
            record, stacked = real(*args)
            stacks.append(weakref.ref(stacked))
            return record, stacked

        monkeypatch.setattr(evalharness, "run_trial", tracking)
        run_experiment(experiment_config(tmp_path, trials=3))
        assert held == [[], [False], [False, False]]

    def test_metrics_phases_present(self, tmp_path):
        run_experiment(experiment_config(tmp_path, trials=1))
        text = (tmp_path / "metrics.csv").read_text()
        assert "pretrain-level-1" in text
        assert "finetune" in text
        assert "result" in text
        header = text.splitlines()[0]
        assert header == "trial,phase,epoch,recon,hetero_sim,homo_sim,excl,total,accuracy"
        for line in text.splitlines()[1:]:
            assert line.count(",") == header.count(",")


def checkpoint_bytes(header, params):
    """A checkpoint file's bytes: header, then params, then the CRC of all of it."""
    header_bytes = json.dumps(header, sort_keys=True).encode()
    body = (
        evalharness.CHECKPOINT_MAGIC
        + evalharness.CHECKPOINT_VERSION.to_bytes(4, "little")
        + len(header_bytes).to_bytes(4, "little")
        + header_bytes
        + b"".join(p.astype("<f8").tobytes() for p in params)
    )
    return body + zlib.crc32(body).to_bytes(4, "little")


def joined_checkpoint(stacked, config):
    """Reference writer: the checkpoint's bytes built whole in memory, header,
    then the levels' parameters and the assembled ones, then the CRC of all of it."""
    header = {"levels": [evalharness._model_descriptor(m) for m in stacked.levels], "config": config}
    params = [p for m in stacked.levels + [stacked.assembled] for p in model_parameters(m)]
    return checkpoint_bytes(header, params)


def old_layout(stacked, config=None):
    """(header, parameter copies) of a version-1 file as written before the header
    dropped the assembled descriptor, the snapshots and norm_order: the loader
    ignores those keys. Older loaders need norm_order, so they refuse new files."""
    header = {
        "levels": [evalharness._model_descriptor(m) for m in stacked.levels],
        "assembled": evalharness._model_descriptor(stacked.assembled),
        "snapshots": stacked.snapshots,
        "norm_order": 2,
        "config": config,
    }
    return header, [p.copy() for m in stacked.levels + [stacked.assembled] for p in model_parameters(m)]


def assert_bit_identical(a, b):
    """Levels, assembled model and snapshots equal bit for bit: every DenseLayer field
    of every layer, so a round trip that drops a field fails."""
    assert len(a.levels) == len(b.levels)
    for ma, mb in zip(a.levels + [a.assembled], b.levels + [b.assembled]):
        assert (len(ma.encoder), len(ma.decoder)) == (len(mb.encoder), len(mb.decoder))
        for la, lb in zip(ma.layers, mb.layers):
            for field in fields(DenseLayer):
                va, vb = getattr(la, field.name), getattr(lb, field.name)
                if isinstance(va, np.ndarray):
                    assert (va.dtype, va.shape, va.tobytes()) == (vb.dtype, vb.shape, vb.tobytes()), field.name
                else:
                    assert va == vb, field.name
    assert a.snapshots == b.snapshots


def wide_level():
    return AEModel(
        encoder=[DenseLayer(np.full((64, 256), 0.5), np.zeros(64), "relu")],
        decoder=[DenseLayer(np.full((256, 64), 0.5), np.zeros(256), "sigmoid")],
    )


class TestCheckpoint:
    def make_trained(self, seed=0):
        data = synth_gaussian(2, 6, 10, 0.1, seed=seed)
        cfg = small_stack_cfg(6, latent=3)
        stacked, _ = train_stack(cfg, data.examples)
        stacked, _ = fine_tune(stacked, data.examples, cfg)
        return stacked, data

    def make_two_level(self):
        """A fine-tuned 6-4-3 stack, its data and its StackConfig."""
        data = synth_gaussian(2, 6, 10, 0.1, seed=1)
        levels = [small_stack_cfg(6, latent=4).levels[0], small_stack_cfg(4, latent=3).levels[0]]
        cfg = small_stack_cfg(6, levels=levels)
        stacked, _ = train_stack(cfg, data.examples)
        stacked, _ = fine_tune(stacked, data.examples, cfg)
        return stacked, data, cfg

    @pytest.mark.parametrize("config", [None, {"note": "test", "sizes": [6, 4, 3]}])
    def test_streamed_bytes_equal_joined_writer(self, tmp_path, config):
        stacked, _, _ = self.make_two_level()
        assert len(stacked.levels) == 2
        save_checkpoint(stacked, tmp_path / "m.ckpt", config=config)
        assert (tmp_path / "m.ckpt").read_bytes() == joined_checkpoint(stacked, config)

    def test_save_holds_no_copy_of_the_file(self, tmp_path):
        stacked = assemble([wide_level()])
        path = tmp_path / "m.ckpt"
        tracemalloc.start()
        try:
            save_checkpoint(stacked, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert path.read_bytes() == joined_checkpoint(stacked, None)
        assert peak < 0.25 * size, f"traced peak {peak / size:.2f} x the file size"

    def test_round_trip_bitwise(self, tmp_path):
        stacked, _ = self.make_trained()
        path = tmp_path / "m.ckpt"
        save_checkpoint(stacked, path, config={"note": "test"})
        assert_bit_identical(stacked, load_checkpoint(path))

    def test_header_holds_only_levels_and_config(self, tmp_path):
        stacked, _, _ = self.make_two_level()
        save_checkpoint(stacked, tmp_path / "m.ckpt", config={"note": "test"})
        buf = (tmp_path / "m.ckpt").read_bytes()
        header = json.loads(buf[16 : 16 + int.from_bytes(buf[12:16], "little")])
        levels = [evalharness._model_descriptor(m) for m in stacked.levels]
        assert header == {"levels": levels, "config": {"note": "test"}}

    @pytest.mark.parametrize("n_levels", [1, 2])
    def test_old_layout_loads_bit_identical(self, tmp_path, n_levels):
        stacked = self.make_trained()[0] if n_levels == 1 else self.make_two_level()[0]
        assert len(stacked.levels) == n_levels
        path = tmp_path / "old.ckpt"
        path.write_bytes(checkpoint_bytes(*old_layout(stacked, {"note": "test"})))
        assert_bit_identical(stacked, load_checkpoint(path))

    def test_snapshots_are_the_norms_taken_at_assembly(self, tmp_path):
        data = synth_gaussian(2, 6, 10, 0.1, seed=1)
        cfg = small_stack_cfg(6, finetune_epochs=3)
        stacked, _ = train_stack(cfg, data.examples)
        at_assembly = [flat_norm(layer.weight) for layer in stacked.assembled.layers]
        assert stacked.snapshots == at_assembly
        stacked, _ = fine_tune(stacked, data.examples, cfg)
        assert [flat_norm(layer.weight) for layer in stacked.assembled.layers] != at_assembly  # the layers moved
        assert stacked.snapshots == at_assembly
        save_checkpoint(stacked, tmp_path / "m.ckpt")
        assert load_checkpoint(tmp_path / "m.ckpt").snapshots == at_assembly

    def test_round_trip_preserves_features(self, tmp_path):
        stacked, data = self.make_trained(seed=3)
        before = extract_features(stacked, data)
        save_checkpoint(stacked, tmp_path / "m.ckpt")
        after = extract_features(load_checkpoint(tmp_path / "m.ckpt"), data)
        assert np.array_equal(before, after)

    def test_load_copies_each_parameter_once(self, tmp_path):
        # each parameter is read straight into its own array and the CRC is taken
        # a chunk at a time: holding the file's bytes too peaked at 2.0 times the file
        path = tmp_path / "m.ckpt"
        save_checkpoint(assemble([wide_level()]), path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * size, f"traced peak {peak / size:.2f} x the file size"

    def test_parameter_read_short_refused(self, tmp_path, monkeypatch):
        # a file cut short after its CRC was taken: an array left unset would load as garbage
        class ShortReads(io.BytesIO):
            def readinto(self, buffer):
                return 0

        path = tmp_path / "m.ckpt"
        save_checkpoint(self.make_trained()[0], path)
        monkeypatch.setattr(evalharness, "open", lambda p, mode: ShortReads(Path(p).read_bytes()), raising=False)
        with pytest.raises(CheckpointError, match=f"^truncated checkpoint {re.escape(str(path))}$"):
            load_checkpoint(path)

    def test_truncated_file_rejected_cleanly(self, tmp_path):
        stacked, _ = self.make_trained()
        path = tmp_path / "m.ckpt"
        save_checkpoint(stacked, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", ["header-length-past-the-file", "bytes-after-the-last-parameter"])
    def test_checksummed_file_of_the_wrong_length_refused(self, tmp_path, edit):
        # the CRC holds, so only the header length or the parameter count is at fault
        path = tmp_path / "m.ckpt"
        save_checkpoint(self.make_trained()[0], path)
        body = bytearray(path.read_bytes()[:-4])
        if edit == "header-length-past-the-file":
            body[12:16] = len(body).to_bytes(4, "little")
        else:
            body += np.zeros(1, "<f8").tobytes()
        path.write_bytes(bytes(body) + zlib.crc32(body).to_bytes(4, "little"))
        with pytest.raises(CheckpointError, match=f"^truncated checkpoint {re.escape(str(path))}$"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        stacked, _ = self.make_trained()
        path = tmp_path / "m.ckpt"
        save_checkpoint(stacked, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = (99).to_bytes(4, "little")
        # keep the checksum consistent so only the version is at fault
        blob[-4:] = zlib.crc32(bytes(blob[:-4])).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: b"{not json",
            lambda h: json.dumps({k: v for k, v in h.items() if k != "levels"}).encode(),
            lambda h: json.dumps({**h, "levels": 3}).encode(),
        ],
        ids=["undecodable-json", "missing-key", "levels-not-a-list"],
    )
    def test_malformed_header_rejected(self, tmp_path, edit):
        stacked, _ = self.make_trained()
        path = tmp_path / "m.ckpt"
        save_checkpoint(stacked, path)
        buf = path.read_bytes()
        header_len = int.from_bytes(buf[12:16], "little")
        header = edit(json.loads(buf[16 : 16 + header_len]))
        body = buf[:12] + len(header).to_bytes(4, "little") + header + buf[16 + header_len : -4]
        # keep the checksum consistent so only the header is at fault
        path.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
        with pytest.raises(CheckpointError, match="malformed checkpoint "):
            load_checkpoint(path)

    @pytest.mark.parametrize("empty", [["encoder", "decoder"], ["encoder"], ["decoder"]], ids="-".join)
    def test_model_with_an_empty_half_refused(self, tmp_path, empty):
        # such a file would load, and extract_features then fail with an IndexError
        model = wide_level()
        kept = [layer for half in ("encoder", "decoder") if half not in empty for layer in getattr(model, half)]
        header = {"levels": [{**evalharness._model_descriptor(model), **dict.fromkeys(empty, [])}], "config": None}
        path = tmp_path / "empty.ckpt"
        path.write_bytes(checkpoint_bytes(header, [p for layer in kept for p in (layer.weight, layer.bias)]))
        with pytest.raises(CheckpointError, match="malformed checkpoint .*at least one layer each"):
            load_checkpoint(path)

    # Each file below loads under a loader that reads the old header's assembled
    # descriptor and snapshots: they describe a valid model beside faulty levels.

    def test_level_that_does_not_chain_refused(self, tmp_path):
        # level 2 read as 3-4-3 instead of 4-3-4: the same parameter count, so only the chain is at fault
        header, params = old_layout(self.make_two_level()[0])
        (enc,), (dec,) = header["levels"][1]["encoder"], header["levels"][1]["decoder"]
        enc["in"], enc["out"], dec["in"], dec["out"] = 3, 4, 4, 3
        path = tmp_path / "m.ckpt"
        path.write_bytes(checkpoint_bytes(header, params))
        with pytest.raises(CheckpointError, match="encoder layer dimensions do not chain"):
            load_checkpoint(path)

    def test_empty_level_list_refused(self, tmp_path):
        stacked, _ = self.make_trained()
        header, params = old_layout(stacked)
        header["levels"] = []
        path = tmp_path / "m.ckpt"
        path.write_bytes(checkpoint_bytes(header, params[len(model_parameters(stacked.levels[0])) :]))
        with pytest.raises(CheckpointError, match="at least one layer each"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, 0.0], ids=["nan", "all-zero"])
    def test_level_weight_without_a_finite_positive_norm_refused(self, tmp_path, value):
        # its snapshot would be NaN or 0: every band ratio NaN, inf or a division by zero
        header, params = old_layout(self.make_trained()[0])
        params[0][...] = 0.0  # level 1's encoder weight
        params[0][0, 0] = value
        path = tmp_path / "m.ckpt"
        path.write_bytes(checkpoint_bytes(header, params))
        with pytest.raises(CheckpointError, match="snapshot norms must be finite and positive"):
            load_checkpoint(path)

    def test_corrupt_payload_rejected(self, tmp_path):
        stacked, _ = self.make_trained()
        path = tmp_path / "m.ckpt"
        save_checkpoint(stacked, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum|version|header"):
            load_checkpoint(path)
