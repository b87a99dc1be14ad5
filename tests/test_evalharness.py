"""Feature extraction, k-NN against a brute-force oracle, experiments, checkpoints."""

import json
import tracemalloc

import numpy as np
import pytest

from exae import evalharness
from exae.autoencoder import AEConfig, AEModel, encode
from exae.dataio import Dataset, SplitSpec, synth_gaussian
from exae.evalharness import (
    CheckpointError,
    _pairwise_dist,
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
from exae.stacking import StackConfig, assemble, fine_tune, train_stack


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
        ds = Dataset(examples=rows)
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
            extract_features(stacked, Dataset(examples=np.zeros((2, 5))))


def full_sort_knn(train_feats, train_labels, query_feats, k, metric="euclidean",
                  exclude_self=False):
    """Reference selection: a full lexsort of every distance per query, on the
    distances knn_classify computes, then the documented vote."""
    dists = _pairwise_dist(query_feats, train_feats, metric)
    out = []
    for q in range(len(query_feats)):
        order = np.lexsort((np.arange(len(train_feats)), dists[q]))
        if exclude_self:
            order = order[order != q]
        tally = {}
        for i in order[:k]:
            cnt, tot = tally.get(int(train_labels[i]), (0, 0.0))
            tally[int(train_labels[i])] = (cnt + 1, tot + dists[q, i])
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
    got = _pairwise_dist(queries, train, metric)
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

    def test_exclude_self_skips_own_row(self):
        feats = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
        labels = np.array([0, 1, 2])
        pred = knn_classify(feats, labels, feats, k=1, exclude_self=True)
        assert pred.tolist() == [1, 0, 1]

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
        queries = collapsed_codes(rng, 140)  # more than two query blocks
        got = knn_classify(train, labels, queries, k=k, metric=metric)
        assert np.array_equal(got, full_sort_knn(train, labels, queries, k, metric))

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_exclude_self_matches_full_sort(self, metric, k):
        rng = np.random.default_rng(10 + k)
        feats = collapsed_codes(rng, 400, live=0.5)
        feats[40:60] = feats[:20]  # duplicates tie with the query's own row
        labels = rng.integers(0, 4, size=400)
        got = knn_classify(feats, labels, feats, k=k, metric=metric, exclude_self=True)
        want = full_sort_knn(feats, labels, feats, k, metric, exclude_self=True)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_k_equal_to_candidate_count(self, exclude_self):
        rng = np.random.default_rng(3)
        feats = collapsed_codes(rng, 30, live=0.6)
        labels = rng.integers(0, 3, size=30)
        k = 29 if exclude_self else 30
        got = knn_classify(feats, labels, feats, k=k, exclude_self=exclude_self)
        assert np.array_equal(got, full_sort_knn(feats, labels, feats, k, "euclidean", exclude_self))

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_non_finite_input_refused(self, metric):
        rng = np.random.default_rng(4)
        train = rng.normal(size=(20, 3))
        labels = rng.integers(0, 3, size=20)
        queries = rng.normal(size=(70, 3))
        for bad in (np.nan, np.inf, -np.inf):
            feats = train.copy()
            feats[7, 1] = bad
            with pytest.raises(ValueError, match="train features .* row 7"):
                knn_classify(feats, labels, queries, k=3, metric=metric)
            feats = queries.copy()
            feats[66, 0] = bad  # in the second block of queries
            with pytest.raises(ValueError, match="query features .* row 66"):
                knn_classify(train, labels, feats, k=3, metric=metric)
        if metric == "euclidean":
            feats = queries.copy()
            feats[66] = 1e160  # finite, but its squared norm overflows
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ValueError, match="non-finite distance for query row 66"):
                    knn_classify(train, labels, feats, k=3, metric=metric)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("k", [1, 4, 7])
    @pytest.mark.parametrize("n_queries", [1, 63, 64, 65, 129])
    def test_query_block_boundaries_match_full_sort(self, n_queries, k, metric):
        # one block short of, at and past the 64-row boundary, and a third block
        rng = np.random.default_rng(n_queries + 10 * k)
        train = collapsed_codes(rng, 300, live=0.5)
        labels = rng.integers(0, 4, size=300)
        queries = collapsed_codes(rng, n_queries, live=0.5)
        got = knn_classify(train, labels, queries, k=k, metric=metric)
        assert got.shape == (n_queries,)
        assert np.array_equal(got, full_sort_knn(train, labels, queries, k, metric))

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_exclude_self_among_duplicates(self, metric):
        # rows 0-3 are one point: for rows 0-2 their own row is inside the
        # reach of k+1 = 3 lowest-index ties, for row 3 rows 0-2 push it out
        rng = np.random.default_rng(6)
        feats = np.vstack([np.tile([[1.0, 2.0, 0.5]], (4, 1)), rng.uniform(3, 9, size=(66, 3))])
        labels = np.arange(70) % 5
        got = knn_classify(feats, labels, feats, k=2, metric=metric, exclude_self=True)
        # neighbors {1, 2}, {0, 2}, {0, 1}, {0, 1}: 1-1 votes at equal sums, won by the lower label
        assert got[:4].tolist() == [1, 0, 0, 0]
        want = full_sort_knn(feats, labels, feats, 2, metric, exclude_self=True)
        assert np.array_equal(got, want)

    def test_count_tie_goes_to_smaller_sum_not_lower_label(self):
        feats = np.array([[0.0], [2.0], [10.0], [11.0]])
        labels = np.array([5, 5, 1, 1])
        queries = np.tile([[1.0]], (70, 1))  # two blocks of the same query
        # 2-2 count tie: label 5 sums 1 + 1, label 1 sums 81 + 100
        assert knn_classify(feats, labels, queries, k=4).tolist() == [5] * 70

    def test_count_and_sum_tie_goes_to_lower_label(self):
        feats = np.array([[-1.0], [1.0], [5.0]])
        labels = np.array([3, 2, 3])
        queries = np.tile([[0.0]], (65, 1))
        # label 3 comes first (lower index at the same distance), yet 1-1 at sum 1 goes to 2
        got = knn_classify(feats, labels, queries, k=2)
        assert got.tolist() == [2] * 65
        assert np.array_equal(got, full_sort_knn(feats, labels, queries, 2))


def test_knn_memory_is_per_block_not_full_matrix():
    rng = np.random.default_rng(0)
    train = rng.normal(size=(2000, 16))
    labels = rng.integers(0, 10, size=2000)
    queries = rng.normal(size=(4000, 16))
    full_matrix = queries.shape[0] * train.shape[0] * 8  # 61 MiB of float64 distances
    tracemalloc.start()
    try:
        knn_classify(train, labels, queries, k=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full_matrix / 8, f"traced peak {peak / 2**20:.2f} MiB"


def count_selection_paths(monkeypatch):
    """Rows _nearest sends to the full sort."""
    seen = {"sorted": 0}
    sorted_nearest = evalharness._sorted_nearest

    def sorted_spy(block, reach):
        seen["sorted"] += block.shape[0]
        return sorted_nearest(block, reach)

    monkeypatch.setattr(evalharness, "_sorted_nearest", sorted_spy)
    return seen


class TestSelectionPaths:
    def test_healthy_codes_rank_only_candidates(self, monkeypatch):
        seen = count_selection_paths(monkeypatch)
        rng = np.random.default_rng(0)
        train = rng.normal(size=(2000, 16))
        labels = rng.integers(0, 10, size=2000)
        queries = rng.normal(size=(640, 16))
        got = knn_classify(train, labels, queries, k=5)
        # the sampled bound leaves about 20 candidates a row: almost no full sorts
        assert seen["sorted"] < 640 // 20, seen
        assert np.array_equal(got, full_sort_knn(train, labels, queries, 5))

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_ties_are_filled_without_per_row_lexsort(self, monkeypatch, metric, k):
        seen = count_selection_paths(monkeypatch)
        rng = np.random.default_rng(20 + k)
        train = collapsed_codes(rng, 600)
        labels = rng.integers(0, 3, size=600)
        queries = collapsed_codes(rng, 140)
        got = knn_classify(train, labels, queries, k=k, metric=metric)
        # all-zero rows tie far past the width: the full sort, then the tie fill
        assert seen["sorted"] > 140 // 2, seen
        assert np.array_equal(got, full_sort_knn(train, labels, queries, k, metric))


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
    stride, width = evalharness._KNN_SAMPLE_STRIDE, evalharness._KNN_GATHER_WIDTH
    sizes = [1, 2, stride - 1, stride, stride + 1, 3 * stride, width, width + 1, 4 * width, 700]
    for trial in range(60):
        n = sizes[trial % len(sizes)]
        reach = n if trial % 7 == 0 else int(rng.integers(1, min(n, 10) + 1))
        block = distance_block(kind, rng, int(rng.integers(1, 70)), n)
        got = evalharness._nearest(block, reach)
        assert np.array_equal(got, lexsort_nearest(block, reach)), (trial, n, reach)


@pytest.mark.parametrize("kind", SELECTION_KINDS[:3])
def test_knn_equals_full_sort_sweep(kind):
    # whole knn_classify runs on codes; ±inf distances are swept on _nearest above
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
        exclude_self = trial % 3 == 0
        if exclude_self:
            queries = train
        k = n - exclude_self if trial % 5 == 0 else int(rng.integers(1, n - exclude_self + 1))
        got = knn_classify(train, labels, queries, k, metric, exclude_self)
        want = full_sort_knn(train, labels, queries, k, metric, exclude_self)
        assert np.array_equal(got, want), (trial, n, k, metric, exclude_self)


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
        data=DataSpec(source="synth", classes=2, dim=6, per_class=12, spread=0.08, synth_seed=0),
        split=SplitSpec(per_class_train=8),
        stack=small_stack_cfg(6, latent=3),
        trials=trials,
        knn_k=1,
        base_seed=0,
        out_dir=str(out_dir),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


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
        assert set(summary["failures"]) == {0, 1}

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


class TestCheckpoint:
    def make_trained(self, seed=0):
        data = synth_gaussian(2, 6, 10, 0.1, seed=seed)
        cfg = small_stack_cfg(6, latent=3)
        stacked, _ = train_stack(cfg, data.examples)
        stacked, _ = fine_tune(stacked, data.examples, cfg)
        return stacked, data

    def test_round_trip_bitwise(self, tmp_path):
        stacked, _ = self.make_trained()
        path = tmp_path / "m.ckpt"
        save_checkpoint(stacked, path, config={"note": "test"})
        back = load_checkpoint(path)
        for a, b in zip(stacked.assembled.layers, back.assembled.layers):
            assert np.array_equal(a.weight, b.weight)
            assert np.array_equal(a.bias, b.bias)
            assert a.activation == b.activation
        for la, lb in zip(stacked.levels, back.levels):
            for a, b in zip(la.layers, lb.layers):
                assert np.array_equal(a.weight, b.weight)
        assert back.snapshots == stacked.snapshots

    def test_round_trip_preserves_features(self, tmp_path):
        stacked, data = self.make_trained(seed=3)
        before = extract_features(stacked, data)
        save_checkpoint(stacked, tmp_path / "m.ckpt")
        after = extract_features(load_checkpoint(tmp_path / "m.ckpt"), data)
        assert np.array_equal(before, after)

    def test_load_copies_each_parameter_once(self, tmp_path):
        # the file's bytes plus one copy of the parameters, with no second copy
        # of the whole parameter block (eval-sized stacks are read per query set)
        level = AEModel(
            encoder=[DenseLayer(np.full((64, 256), 0.5), np.zeros(64), "relu")],
            decoder=[DenseLayer(np.full((256, 64), 0.5), np.zeros(256), "sigmoid")],
        )
        path = tmp_path / "m.ckpt"
        save_checkpoint(assemble([level]), path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * size, f"traced peak {peak / size:.2f} x the file size"

    def test_truncated_file_rejected_cleanly(self, tmp_path):
        stacked, _ = self.make_trained()
        path = tmp_path / "m.ckpt"
        save_checkpoint(stacked, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
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
        import zlib

        blob[-4:] = zlib.crc32(bytes(blob[:-4])).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: b"{not json",
            lambda h: json.dumps({k: v for k, v in h.items() if k != "assembled"}).encode(),
            lambda h: json.dumps({**h, "levels": 3}).encode(),
            lambda h: json.dumps({**h, "snapshots": ["1.0"] * len(h["snapshots"])}).encode(),
        ],
        ids=["undecodable-json", "missing-key", "levels-not-a-list", "snapshots-not-numbers"],
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
        import zlib

        path.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
        with pytest.raises(CheckpointError, match="malformed checkpoint header"):
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
