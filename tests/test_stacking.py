"""Greedy pretraining, assembly wiring, the norm-ratio band, fine-tuning."""

import copy
import tracemalloc

import numpy as np
import pytest

from exae import exclusivity, stacking
from exae.autoencoder import AEConfig, build_model, encode, model_parameters, total_loss, train
from exae.numkit import sgd_step
from exae.stacking import (
    StackConfig,
    assemble,
    fine_tune,
    flat_norm,
    project_to_band,
    train_stack,
    weight_ratio,
)


def level_cfg(sizes, **kwargs):
    defaults = dict(
        layer_sizes=sizes,
        latent_activation="relu",
        output_activation="sigmoid",
        excl_weight=2.0,
        n_neighbors=2,
        lr=0.05,
        epochs=4,
        batch_size=4,
        seed=0,
    )
    defaults.update(kwargs)
    return AEConfig(**defaults)


def stack_cfg(dims=(8, 4, 2), **kwargs):
    levels = [level_cfg([a, b]) for a, b in zip(dims, dims[1:])]
    for k, lvl in enumerate(levels[1:], start=1):
        # deeper levels reconstruct relu codes, not pixels
        lvl.output_activation = "relu"
    defaults = dict(
        levels=levels,
        band=0.6,
        finetune_epochs=3,
        finetune_lr=0.02,
        finetune_batch_size=4,
        finetune_seed=0,
    )
    defaults.update(kwargs)
    return StackConfig(**defaults)


def toy_rows(seed=0, n=12, dim=8):
    return np.random.default_rng(seed).uniform(0.1, 0.9, size=(n, dim))


class TestWeightRatio:
    def test_unchanged_weights_ratio_one(self):
        w = np.array([[3.0, 4.0]])
        assert weight_ratio(flat_norm(w), w) == pytest.approx(1.0)

    def test_doubled_weights_halve_the_ratio(self):
        w = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert weight_ratio(flat_norm(w), 2.0 * w) == pytest.approx(0.5)

    def test_direct_norm_arithmetic(self):
        snapshot = np.array([[3.0, 4.0]])  # norm 5
        current = np.array([[6.0, 8.0]])  # norm 10
        assert weight_ratio(flat_norm(snapshot), current) == pytest.approx(0.5)

    def test_zero_current_norm_rejected(self):
        with pytest.raises(ValueError, match="zero norm"):
            weight_ratio(1.0, np.zeros((2, 2)))

    @pytest.mark.parametrize("snapshot", [0.0, -1.0, np.nan, np.inf])
    def test_snapshot_not_finite_and_positive_rejected(self, snapshot):
        with pytest.raises(ValueError, match="snapshot norm must be finite and positive"):
            weight_ratio(snapshot, np.ones((2, 2)))


class TestProjectToBand:
    def test_zero_band_pins_norm_to_snapshot(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(3, 3))
        snap = 2.5
        out = project_to_band(snap, w, band=0.0)
        assert flat_norm(out) == pytest.approx(snap, abs=1e-12)

    def test_interior_point_untouched(self):
        w = np.array([[3.0, 4.0]])  # norm 5
        snap = 4.5  # ratio 0.9
        out = project_to_band(snap, w, band=0.2)
        assert out is w

    def test_out_of_band_scales_to_nearest_edge(self):
        # snapshot 2, current norm 4: ratio 0.5, band 0.2 -> edge 0.8
        current = np.array([[4.0, 0.0]])
        out = project_to_band(2.0, current, band=0.2)
        assert flat_norm(out) == pytest.approx(2.5, abs=1e-12)
        assert weight_ratio(2.0, out) == pytest.approx(0.8, abs=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(4, 2)) * 3.0
        once = project_to_band(1.0, w, band=0.3)
        twice = project_to_band(1.0, once, band=0.3)
        assert twice is once

    def test_preserves_direction(self):
        w = np.array([[1.0, -2.0], [0.5, 0.0]])
        out = project_to_band(10.0, w, band=0.1)
        scale = out[0, 0] / w[0, 0]
        assert scale > 0
        assert np.allclose(out, scale * w)

    @pytest.mark.parametrize("band", [-0.1, np.nan])
    def test_negative_or_nan_band_refused(self, band):
        with pytest.raises(ValueError, match="band must be >= 0"):
            project_to_band(1.0, np.ones((2, 2)), band=band)

    def test_wide_band_lower_edge_never_binds(self):
        # ratio far below 1 but band >= 1 means no lower clamp
        w = np.array([[100.0]])
        out = project_to_band(1.0, w, band=1.0)
        assert out is w


class TestAssembly:
    def test_single_level_assembles_to_itself(self):
        cfg = stack_cfg(dims=(8, 4))
        data = toy_rows()
        stacked, _ = train_stack(cfg, data)
        assert len(stacked.levels) == 1
        level = stacked.levels[0]
        for a, b in zip(stacked.assembled.layers, level.layers):
            assert np.array_equal(a.weight, b.weight)
            assert np.array_equal(a.bias, b.bias)

    def test_two_level_wiring(self):
        cfg = stack_cfg(dims=(8, 4, 2))
        stacked, _ = train_stack(cfg, toy_rows())
        enc_dims = [(l.in_dim, l.out_dim) for l in stacked.assembled.encoder]
        dec_dims = [(l.in_dim, l.out_dim) for l in stacked.assembled.decoder]
        assert enc_dims == [(8, 4), (4, 2)]
        assert dec_dims == [(2, 4), (4, 8)]

    def test_level_two_trains_on_level_one_codes(self):
        cfg = stack_cfg(dims=(8, 4, 2))
        data = toy_rows()
        stacked, _ = train_stack(cfg, data)

        # independently retrain level 2 on recomputed codes
        codes = encode(stacked.levels[0], data)
        redo = build_model(cfg.levels[1])
        redo, _ = train(redo, cfg.levels[1], codes)
        for a, b in zip(stacked.levels[1].layers, redo.layers):
            assert np.array_equal(a.weight, b.weight)

    def test_assembly_preserves_function_exactly(self):
        cfg = stack_cfg(dims=(8, 4, 2))
        data = toy_rows()
        stacked, _ = train_stack(cfg, data)
        sequential = encode(stacked.levels[1], encode(stacked.levels[0], data))
        assert np.array_equal(encode(stacked.assembled, data), sequential)

    def test_snapshot_count_and_positivity(self):
        cfg = stack_cfg(dims=(8, 4, 2))
        stacked, _ = train_stack(cfg, toy_rows())
        assert len(stacked.snapshots) == 4
        assert all(s > 0 for s in stacked.snapshots)

    def test_assembly_copies_layers(self):
        cfg = stack_cfg(dims=(8, 4))
        stacked, _ = train_stack(cfg, toy_rows())
        stacked.assembled.encoder[0].weight += 1.0
        assert not np.array_equal(
            stacked.assembled.encoder[0].weight, stacked.levels[0].encoder[0].weight
        )


class TestFineTune:
    def test_fine_tune_holds_one_gradient_set(self):
        # as one level's training: two gradient sets and an lr * g temporary held 2.25 times the parameters
        rng = np.random.default_rng(0)
        data = rng.uniform(size=(200, 784)) * (rng.uniform(size=(200, 784)) < 0.3)
        levels = [level_cfg([784, 256], excl_weight=0.0), level_cfg([256, 128], excl_weight=0.0, seed=1)]
        cfg = StackConfig(levels, finetune_epochs=2)
        stacked = assemble([build_model(level) for level in levels])
        params = sum(p.nbytes for p in model_parameters(stacked.assembled))
        tracemalloc.start()
        try:
            fine_tune(stacked, data, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.4 * params, f"traced peak {peak / params:.2f} x the parameter bytes"

    def test_zero_band_keeps_norms_at_snapshots_every_epoch(self):
        cfg = stack_cfg(band=0.0, finetune_epochs=4)
        data = toy_rows()
        stacked, _ = train_stack(cfg, data)
        stacked, history = fine_tune(stacked, data, cfg)
        for epoch in history:
            for ratio in epoch.ratios:
                assert ratio == pytest.approx(1.0, abs=1e-9)
        for snap, layer in zip(stacked.snapshots, stacked.assembled.layers):
            assert flat_norm(layer.weight) == pytest.approx(snap, abs=1e-9)

    def test_zero_epochs_leaves_model(self):
        cfg = stack_cfg(finetune_epochs=0)
        data = toy_rows()
        stacked, _ = train_stack(cfg, data)
        before = [l.weight.copy() for l in stacked.assembled.layers]
        stacked, history = fine_tune(stacked, data, cfg)
        assert history == []
        for w, l in zip(before, stacked.assembled.layers):
            assert np.array_equal(w, l.weight)

    @pytest.mark.parametrize("band", [0.0, 0.2, 0.6, 1.0])
    def test_ratios_stay_in_band_every_epoch(self, band):
        cfg = stack_cfg(band=band, finetune_epochs=6, finetune_lr=0.1)
        data = toy_rows(3)
        stacked, _ = train_stack(cfg, data)
        stacked, history = fine_tune(stacked, data, cfg)
        lo = 0.0 if band >= 1.0 else 1.0 - band
        hi = 1.0 + band
        assert len(history) == 6
        for epoch in history:
            for ratio in epoch.ratios:
                assert lo - 1e-9 <= ratio <= hi + 1e-9

    def test_deterministic_given_seed(self):
        runs = []
        for _ in range(2):
            cfg = stack_cfg(finetune_epochs=3)
            data = toy_rows(5)
            stacked, _ = train_stack(cfg, data)
            stacked, _ = fine_tune(stacked, data, cfg)
            runs.append([l.weight.copy() for l in stacked.assembled.layers])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_reconstruction_only_by_default(self):
        cfg = stack_cfg(finetune_epochs=2)
        data = toy_rows(7)
        stacked, _ = train_stack(cfg, data)
        stacked, history = fine_tune(stacked, data, cfg)
        for epoch in history:
            assert epoch.loss.weight == 0.0
            assert epoch.loss.excl == 0.0
            assert epoch.loss.total == pytest.approx(epoch.loss.recon, abs=1e-15)

    @staticmethod
    def reference_finetune(cfg, project):
        """fine_tune's (stacked, history), checked bit for bit against an
        independent reference loop on the same rows.

        The reference uses public primitives only; total_loss reads only the
        loss settings of its config. project=False leaves the band out.
        """
        data = toy_rows(13, n=10)  # batch 4: each epoch ends on a 2-row batch
        stacked, _ = train_stack(cfg, data)
        ref = copy.deepcopy(stacked.assembled)
        stacked, history = fine_tune(stacked, data, cfg)

        loss_cfg = level_cfg([8, 2], excl_weight=0.0)
        layers = ref.layers
        rng = np.random.default_rng(cfg.finetune_seed)
        for _ in range(cfg.finetune_epochs):
            perm = rng.permutation(len(data))
            for start in range(0, len(data), cfg.finetune_batch_size):
                batch = perm[start : start + cfg.finetune_batch_size]
                _, grads = total_loss(ref, loss_cfg, None, data, batch)
                sgd_step(layers, grads, cfg.finetune_lr)
            if project:
                for snap, layer in zip(stacked.snapshots, layers):
                    layer.weight = project_to_band(snap, layer.weight, cfg.band)

        for a, b in zip(stacked.assembled.layers, layers):
            assert np.array_equal(a.weight, b.weight)
            assert np.array_equal(a.bias, b.bias)
        return stacked, history

    def test_zero_weight_matches_reference_loop(self):
        """Fine-tuning is the plain training loop plus a band projection per epoch."""
        self.reference_finetune(stack_cfg(band=0.0, finetune_epochs=4, finetune_lr=0.1), project=True)

    def test_infinite_band_is_the_reference_loop_without_projection(self):
        """band = inf means no band: no layer is ever rescaled."""
        stacked, history = self.reference_finetune(
            stack_cfg(band=np.inf, finetune_epochs=4, finetune_lr=0.1), project=False)
        ratios = [weight_ratio(s, l.weight) for s, l in zip(stacked.snapshots, stacked.assembled.layers)]
        assert history[-1].ratios == ratios
        assert max(abs(r - 1.0) for r in ratios) > 0.0  # the weights moved, and nothing pulled them back

    def test_rows_of_another_width_rejected_before_any_work(self):
        cfg = stack_cfg()
        stacked, _ = train_stack(cfg, toy_rows(7))
        before = [l.weight.copy() for l in stacked.assembled.layers]
        with pytest.raises(ValueError, match=r"^dataset shape \(12, 5\) does not match model input dim 8$"):
            fine_tune(stacked, np.full((12, 5), 0.5), cfg)
        for w, l in zip(before, stacked.assembled.layers):
            assert np.array_equal(w, l.weight)

    def test_non_finite_rows_rejected_before_any_work(self, monkeypatch):
        cfg = stack_cfg()
        data = toy_rows(7)
        stacked, _ = train_stack(cfg, data)
        before = [l.weight.copy() for l in stacked.assembled.layers]
        data[5, 2] = np.inf

        def no_table(*args):
            raise AssertionError("neighbor table built for non-finite data")

        monkeypatch.setattr(exclusivity, "build_context", no_table)
        with pytest.raises(ValueError, match="dataset contains non-finite entries, first in row 5"):
            fine_tune(stacked, data, cfg)
        for w, l in zip(before, stacked.assembled.layers):
            assert np.array_equal(w, l.weight)

    def test_fewer_rows_than_neighbors_at_weight_zero(self):
        # fine-tuning builds no neighbor table, so train's row minimum does not apply
        cfg = stack_cfg(finetune_epochs=2)
        assert cfg.finetune.n_neighbors == 2
        stacked, _ = train_stack(cfg, toy_rows())
        stacked, history = fine_tune(stacked, toy_rows(n=2), cfg)
        assert len(history) == 2

    def test_empty_dataset_refused_by_name(self):
        # at weight 0 no neighbor table sets a row minimum, so the refusal is training_rows'
        cfg = stack_cfg(levels=[level_cfg([8, 4], excl_weight=0.0)])
        with pytest.raises(ValueError, match="dataset has no rows"):
            train(build_model(cfg.levels[0]), cfg.levels[0], toy_rows(n=0))
        stacked, _ = train_stack(cfg, toy_rows())
        with pytest.raises(ValueError, match="dataset has no rows"):
            fine_tune(stacked, toy_rows(n=0), cfg)


def test_single_level_stack_with_zero_finetune_equals_plain_training():
    """s=1 pretraining plus zero-epoch fine-tuning is just module training."""
    data = toy_rows(11)
    cfg = stack_cfg(dims=(8, 3), finetune_epochs=0)
    stacked, _ = train_stack(cfg, data)
    stacked, _ = fine_tune(stacked, data, cfg)

    plain = build_model(cfg.levels[0])
    plain, _ = train(plain, cfg.levels[0], data)
    for a, b in zip(stacked.assembled.layers, plain.layers):
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, b.bias)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        (dict(levels=[level_cfg([8, 4]), level_cfg([5, 2])]), "does not match"),
        *((dict(levels=[level_cfg([8, 4])], band=b), rf"^finetune\.band must be >= 0, got {b}$") for b in (-0.1, np.nan)),
        *((dict(levels=[level_cfg([8, 4])], finetune_lr=lr), r"^finetune\.lr must be positive")
          for lr in (0.0, np.nan)),
        (dict(levels=[level_cfg([8, 4])], finetune_epochs=-1), r"^finetune\.epochs must be >= 0, got -1$"),
        (dict(levels=[level_cfg([8, 4])], finetune_batch_size=0), r"^finetune\.batch_size must be >= 1, got 0$"),
        (dict(levels=[level_cfg([8, 4])], finetune_epochs=1.5), r"^finetune\.epochs must be an integer, got 1\.5$"),
    ],
    ids=["dimension-chain", "band-negative", "band-nan",
         "finetune-lr-0", "finetune-lr-nan", "finetune-epochs-negative", "finetune-batch-size-0",
         "finetune-epochs-fractional"],
)
def test_invalid_config_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        StackConfig(**kwargs)


@pytest.mark.parametrize(
    "cfg, message",
    [
        (stack_cfg(levels=[level_cfg([8, 4]), level_cfg([4, 2], n_neighbors=12, output_activation="relu")]),
         r"^level 2 n_neighbors=12 needs at least 13 rows, have 12$"),
    ],
    ids=["level-2"],
)
def test_neighbors_past_the_rows_refused_before_level_1_trains(monkeypatch, cfg, message):
    def no_training(*args):
        raise AssertionError("a level trained before the refusal")

    monkeypatch.setattr(stacking, "train", no_training)
    with pytest.raises(ValueError, match=message):
        train_stack(cfg, toy_rows())


def test_neighbors_past_the_rows_allowed_at_weight_zero():
    # no phase builds a neighbor table, so the row count sets no limit
    cfg = stack_cfg(levels=[level_cfg([8, 4], excl_weight=0.0, n_neighbors=40)])
    _, histories = train_stack(cfg, toy_rows())
    assert len(histories[0]) == cfg.levels[0].epochs


def test_pretrain_error_names_level():
    bad = stack_cfg(dims=(8, 4, 2))
    with pytest.raises(RuntimeError, match="level 1"):
        train_stack(bad, np.full((12, 8), np.nan))


def test_finetune_error_names_its_phase():
    # pretraining names its level; a diverging fine-tune names its phase
    cfg = stack_cfg(finetune_lr=1e308)
    stacked, _ = train_stack(cfg, toy_rows())
    with pytest.raises(RuntimeError, match="^fine-tuning failed: "):
        fine_tune(stacked, toy_rows(), cfg)
