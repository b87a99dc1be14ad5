"""Feature extraction, k-NN against a brute-force oracle, experiments, checkpoints."""

import json

import numpy as np
import pytest

from exae.autoencoder import AEConfig, AEModel, encode
from exae.dataio import Dataset, SplitSpec, synth_gaussian
from exae.evalharness import (
    CheckpointError,
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
