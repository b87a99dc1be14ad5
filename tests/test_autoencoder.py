"""Forward passes, the combined objective, and the training loop."""

import re
import tracemalloc
from dataclasses import fields

import gradprobe
import numpy as np
import pytest
from gradprobe import grad_check, gradcheck_case, gradcheck_error

from exae.autoencoder import (
    AEConfig,
    AEModel,
    LossBreakdown,
    build_model,
    decode,
    encode,
    model_parameters,
    recon_loss,
    total_loss,
    train,
)
from exae import exclusivity
from exae.exclusivity import build_context
from exae.numkit import DenseLayer, affine_backward, affine_forward, sgd_step


def identity_model(dim):
    enc = DenseLayer(np.eye(dim), np.zeros(dim), "identity")
    dec = DenseLayer(np.eye(dim), np.zeros(dim), "identity")
    return AEModel(encoder=[enc], decoder=[dec])


def toy_config(**kwargs):
    defaults = dict(
        layer_sizes=[2, 3, 2],
        latent_activation="sigmoid",
        output_activation="sigmoid",
        excl_weight=7.0,
        n_neighbors=2,
        lr=0.05,
        epochs=5,
        batch_size=3,
        seed=0,
    )
    defaults.update(kwargs)
    return AEConfig(**defaults)


def toy_data(seed=0, n=6, dim=2):
    return np.random.default_rng(seed).uniform(0.1, 0.9, size=(n, dim))


class TestEncodeDecode:
    def test_identity_layer_is_identity(self):
        model = identity_model(3)
        x = toy_data(1, 4, 3)
        assert np.array_equal(encode(model, x), x)
        assert np.array_equal(decode(model, x), x)

    def test_relu_saturation_gives_zero_latent(self):
        enc1 = DenseLayer(-np.ones((3, 2)), np.zeros(3), "relu")
        enc2 = DenseLayer(np.ones((2, 3)), np.array([-5.0, -5.0]), "relu")
        dec = DenseLayer(np.ones((2, 2)), np.zeros(2), "identity")
        model = AEModel(encoder=[enc1, enc2], decoder=[dec])
        x = np.abs(toy_data(2, 5, 2))
        assert np.all(encode(model, x) == 0.0)

    def test_hand_built_two_layer_encoder_composes(self):
        l1 = DenseLayer(np.array([[2.0, 0.0], [0.0, 3.0]]), np.array([1.0, -1.0]), "identity")
        l2 = DenseLayer(np.array([[1.0, 1.0]]), np.array([-5.0]), "relu")
        model = AEModel(
            encoder=[l1, l2],
            decoder=[DenseLayer(np.ones((2, 1)), np.zeros(2), "identity")],
        )
        x = np.array([[1.0, 1.0]])
        step1 = affine_forward(l1, x)
        expected = affine_forward(l2, step1)
        assert np.array_equal(encode(model, x), expected)
        assert np.array_equal(step1, [[3.0, 2.0]])
        assert np.array_equal(expected, [[0.0]])

    def test_sigmoid_decoder_output_in_unit_interval(self):
        cfg = toy_config()
        model = build_model(cfg)
        out = decode(model, encode(model, toy_data()))
        assert np.all((out > 0.0) & (out < 1.0))

    def test_identity_model_round_trip(self):
        model = identity_model(4)
        x = toy_data(3, 5, 4)
        assert np.array_equal(decode(model, encode(model, x)), x)

    def test_dimension_mismatch(self):
        model = identity_model(3)
        with pytest.raises(ValueError):
            encode(model, np.ones((2, 4)))


class TestReconLoss:
    def test_perfect_reconstruction_is_zero(self):
        x = toy_data()
        assert recon_loss(x, x.copy())[0] == 0.0

    def test_hand_value_batch_mean(self):
        loss, _ = recon_loss(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))
        assert loss == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            recon_loss(np.ones((1, 2)), np.ones((2, 2)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(size=(3, 4))
        xhat = rng.uniform(size=(3, 4))

        def loss_fn():
            loss, grad = recon_loss(x, xhat)
            return loss, [grad]

        assert grad_check(loss_fn, [xhat], epsilon=1e-6) < 1e-4


def flatten_grads(grads):
    return [g for lg in grads for g in (lg.weight, lg.bias)]


class TestTotalLoss:
    # at 784 -> 256 BLAS blocks the GEMMs; a 3-row batch, like an epoch's
    # short last batch, is where a stacked pass would round x differently
    @pytest.mark.parametrize(
        "sizes,n,batch",
        [
            ([2, 3, 2], 6, [0, 2, 4]),
            ([784, 256], 64, list(range(1, 64, 2))),
            ([784, 256], 64, [5, 9, 40]),
        ],
        ids=["toy", "784x256-batch32", "784x256-batch3"],
    )
    def test_zero_weight_reduces_to_reconstruction(self, sizes, n, batch):
        cfg = toy_config(layer_sizes=sizes, excl_weight=0.0)
        model = build_model(cfg)
        data = toy_data(n=n, dim=sizes[0])
        ctx = build_context(data, cfg.n_neighbors)

        breakdown, grads = total_loss(model, cfg, ctx, data, batch)
        x = data[np.asarray(batch)]
        xhat = decode(model, encode(model, x))
        la, _ = recon_loss(x, xhat)
        assert breakdown.total == pytest.approx(breakdown.recon, abs=1e-15)
        assert breakdown.recon == pytest.approx(la, abs=1e-15)

        # gradients must equal the pure reconstruction path bitwise
        plain_cfg = toy_config(layer_sizes=sizes, excl_weight=0.0)
        _, plain_grads = total_loss(model, plain_cfg, None, data, batch)
        for a, b in zip(flatten_grads(grads), flatten_grads(plain_grads)):
            assert np.array_equal(a, b)

    def test_breakdown_identities(self):
        cfg = toy_config()
        model = build_model(cfg)
        data = toy_data()
        ctx = build_context(data, cfg.n_neighbors)
        b, _ = total_loss(model, cfg, ctx, data, range(6))
        assert abs(b.excl - (b.hetero_sim + 1.0 - b.homo_sim)) < 1e-12
        assert abs(b.total - (b.recon + b.weight * b.excl)) < 1e-12

    def test_breakdown_stores_four_fields_and_derives_excl_and_total(self):
        assert [f.name for f in fields(LossBreakdown)] == ["recon", "hetero_sim", "homo_sim", "weight"]
        b = LossBreakdown(recon=2.0, hetero_sim=0.25, homo_sim=0.5, weight=3.0)
        assert (b.excl, b.total) == (0.75, 4.25)
        cfg = toy_config(excl_weight=7.0)
        data = toy_data()
        b, _ = total_loss(build_model(cfg), cfg, build_context(data, cfg.n_neighbors), data, range(6))
        assert b.weight == 7.0 and b.excl != 0.0
        assert b.excl == b.hetero_sim + (1.0 - b.homo_sim)
        assert b.total == b.recon + b.weight * b.excl

    def test_empty_batch_rejected(self):
        cfg = toy_config()
        model = build_model(cfg)
        data = toy_data()
        ctx = build_context(data, cfg.n_neighbors)
        with pytest.raises(ValueError, match="empty"):
            total_loss(model, cfg, ctx, data, [])

    def test_gradients_match_finite_differences(self):
        cfg = toy_config(seed=11)
        model = build_model(cfg)
        data = toy_data(7)
        ctx = build_context(data, cfg.n_neighbors)
        assert gradcheck_error(cfg, model, ctx, data, range(6)) < 1e-4

    def test_relu_model_gradients_match_finite_differences(self):
        cfg = toy_config(latent_activation="relu", seed=5, excl_weight=3.0)
        model = build_model(cfg)
        data = toy_data(9)
        ctx = build_context(data, cfg.n_neighbors)
        assert gradcheck_error(cfg, model, ctx, data, range(6)) < 1e-4


def test_probe_cases_0_to_2_take_each_activation_and_pass():
    for case, act in enumerate(("sigmoid", "relu", "identity")):
        config, *probe = gradcheck_case(case)
        assert config.latent_activation == act
        assert gradcheck_error(config, *probe) < 1e-4, f"case {case} {act}"


def test_probe_case_with_no_conditioned_draw_refused_naming_it(monkeypatch):
    monkeypatch.setattr(gradprobe, "fd_margins", lambda *args: (0.0, 0.0))
    with pytest.raises(RuntimeError, match="^gradcheck case 4: no well-conditioned draw in 100 attempts$"):
        gradcheck_case(4)


class TestTrain:
    def test_a_phase_holds_one_gradient_set(self):
        # one set is written by every step and scaled in place by sgd_step: holding
        # step t's set while step t + 1 builds its own, plus an lr * g temporary,
        # peaked at 2.25 times the parameter bytes
        rng = np.random.default_rng(0)
        data = rng.uniform(size=(200, 784)) * (rng.uniform(size=(200, 784)) < 0.3)
        cfg = AEConfig([784, 256], excl_weight=0.0, epochs=2, batch_size=32)
        model = build_model(cfg)
        params = sum(p.nbytes for p in model_parameters(model))
        tracemalloc.start()
        try:
            train(model, cfg, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.4 * params, f"traced peak {peak / params:.2f} x the parameter bytes"

    def test_zero_epochs_leaves_model_and_history_empty(self):
        cfg = toy_config(epochs=0)
        model = build_model(cfg)
        before = [p.copy() for p in model_parameters(model)]
        model, history = train(model, cfg, toy_data())
        assert history == []
        for p, q in zip(model_parameters(model), before):
            assert np.array_equal(p, q)

    def test_same_seed_gives_bit_identical_models(self):
        data = toy_data()
        runs = []
        for _ in range(2):
            cfg = toy_config(epochs=8)
            model, _ = train(build_model(cfg), cfg, data)
            runs.append(model_parameters(model))
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_loss_descends_on_toy_set(self):
        cfg = toy_config(epochs=50, lr=0.05, latent_activation="relu")
        model, history = train(build_model(cfg), cfg, toy_data())
        assert history[-1].total < history[0].total

    def test_identities_and_bounds_every_epoch(self):
        cfg = toy_config(latent_activation="relu", epochs=12, excl_weight=2.0)
        model, history = train(build_model(cfg), cfg, toy_data(8))
        for b in history:
            assert abs(b.excl - (b.hetero_sim + 1.0 - b.homo_sim)) < 1e-12
            assert abs(b.total - (b.recon + b.weight * b.excl)) < 1e-12
            assert 0.0 <= b.hetero_sim <= 1.0
            assert 0.0 <= b.homo_sim <= 1.0

    def test_too_small_dataset_rejected(self):
        cfg = toy_config(n_neighbors=6)
        with pytest.raises(ValueError, match="rows"):
            train(build_model(cfg), cfg, toy_data(0, n=4))

    def test_fewer_rows_than_neighbors_at_weight_zero(self):
        # no neighbor table at weight 0, so n_neighbors sets no row minimum
        cfg = toy_config(n_neighbors=6, excl_weight=0.0)
        _, history = train(build_model(cfg), cfg, toy_data(0, n=4))
        assert len(history) == cfg.epochs

    def test_non_finite_rows_rejected_before_any_work(self, monkeypatch):
        cfg = toy_config(excl_weight=2.0)
        model = build_model(cfg)
        before = [p.copy() for p in model_parameters(model)]
        data = toy_data()
        data[3, 1] = np.nan

        def no_table(*args):
            raise AssertionError("neighbor table built for non-finite data")

        monkeypatch.setattr(exclusivity, "build_context", no_table)
        with pytest.raises(ValueError, match="dataset contains non-finite entries, first in row 3"):
            train(model, cfg, data)
        for p, q in zip(model_parameters(model), before):
            assert np.array_equal(p, q)

    def test_zero_weight_training_matches_plain_reference_loop(self):
        """lambda = 0 must be byte-for-byte a conventional autoencoder."""
        cfg = toy_config(excl_weight=0.0, epochs=6, batch_size=4)
        data = toy_data(12, n=10)
        model, _ = train(build_model(cfg), cfg, data)

        # independent reference: reconstruction-only loop from public primitives
        ref = build_model(cfg)
        layers = ref.encoder + ref.decoder
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.epochs):
            perm = rng.permutation(len(data))
            for start in range(0, len(data), cfg.batch_size):
                x = data[perm[start : start + cfg.batch_size]]
                acts = [x]
                for layer in layers:
                    acts.append(affine_forward(layer, acts[-1]))
                grad = 2.0 * (acts[-1] - x) / x.shape[0]
                grads = [None] * len(layers)
                for i in range(len(layers) - 1, -1, -1):
                    grads[i], grad = affine_backward(layers[i], acts[i], acts[i + 1], grad)
                sgd_step(layers, grads, cfg.lr)

        for a, b in zip(model_parameters(model), model_parameters(ref)):
            assert np.array_equal(a, b)

    def test_non_finite_loss_aborts_with_location(self):
        cfg = toy_config(lr=1.0, epochs=3, excl_weight=0.0)
        model = build_model(cfg)
        model.encoder[0].weight *= 1e200  # drive the forward pass to overflow
        for layer in model.layers:
            layer.activation = "identity"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises((RuntimeError, ValueError), match="epoch|layer"):
                train(model, cfg, toy_data())


@pytest.mark.parametrize("weight", [-1.0, np.nan])
def test_negative_or_nan_excl_weight_refused(weight):
    # excl_weight != 0 switches the regularizer on, so NaN must not get that far
    with pytest.raises(ValueError, match="excl_weight must be >= 0"):
        toy_config(excl_weight=weight)


@pytest.mark.parametrize("lr", [0.0, -0.1, np.nan])
def test_nonpositive_or_nan_lr_refused(lr):
    # a NaN lr would train to NaN weights without naming the field
    with pytest.raises(ValueError, match="lr must be positive"):
        toy_config(lr=lr)


@pytest.mark.parametrize(
    "field, refused", [("lr", "lr must be positive and finite"), ("excl_weight", "excl_weight must be >= 0 and finite")]
)
def test_infinite_lr_or_excl_weight_refused(field, refused):
    # an infinite lr overflows the weights on the first step, an infinite weight the first loss
    with pytest.raises(ValueError, match=f"^{refused}, got inf$"):
        toy_config(**{field: np.inf})


def test_negative_seed_refused():
    # numpy's default_rng would refuse it only when the model is built
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        toy_config(seed=-1)
    assert toy_config(seed=0).seed == 0


@pytest.mark.parametrize("name", ["latent_activation", "output_activation"])
def test_unknown_activation_refused_naming_its_field(name):
    refused = f"{name} must be one of ('identity', 'relu', 'sigmoid'), got 'x'"
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        toy_config(**{name: "x"})


@pytest.mark.parametrize(
    "sizes, refused",
    [([8, 2.5], "layer_sizes[1] must be an integer, got 2.5"),
     ([8, True], "layer_sizes[1] must be an integer, got True"),
     ([8, "4"], "layer_sizes[1] must be an integer, got '4'"),
     ([8.0, 4], "layer_sizes[0] must be an integer, got 8.0"),
     ([8, 0], "layer_sizes[1] must be >= 1, got 0"),
     ([8, -3], "layer_sizes[1] must be >= 1, got -3")],
    ids=[f"sizes{i}" for i in range(6)],
)
def test_non_integer_layer_sizes_refused(sizes, refused):
    # int() would train [8, 2.5] as [8, 2] and [8, True] as [8, 1]
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        toy_config(layer_sizes=sizes)


@pytest.mark.parametrize(
    "name, value",
    [("epochs", 2.5), ("epochs", True), ("batch_size", 4.0), ("n_neighbors", float("nan")),
     ("seed", "1"), ("seed", False)],
)
def test_non_integer_counts_refused(name, value):
    # a fractional count used to pass construction and fail inside training
    # (range(2.5)), after every earlier level of a stack had trained
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        toy_config(**{name: value})


def test_numpy_integer_counts_accepted():
    cfg = toy_config(epochs=np.int64(2), batch_size=np.int32(3), n_neighbors=np.int64(2), seed=np.int64(4))
    assert (cfg.epochs, cfg.batch_size, cfg.n_neighbors, cfg.seed) == (2, 3, 2, 4)


def test_numpy_integer_layer_sizes_become_ints():
    sizes = toy_config(layer_sizes=[np.int64(8), 4]).layer_sizes
    assert sizes == [8, 4] and all(type(s) is int for s in sizes)


def test_build_model_mirrors_dimensions():
    cfg = toy_config(layer_sizes=[8, 4, 2])
    model = build_model(cfg)
    assert [l.in_dim for l in model.encoder] == [8, 4]
    assert [l.out_dim for l in model.encoder] == [4, 2]
    assert [l.in_dim for l in model.decoder] == [2, 4]
    assert [l.out_dim for l in model.decoder] == [4, 8]
    assert model.decoder[-1].activation == "sigmoid"


@pytest.mark.parametrize("half", ["encoder", "decoder"])
def test_model_with_an_empty_half_refused(half):
    # an empty half would load and then fail where its first layer is read
    halves = {"encoder": identity_model(3).encoder, "decoder": identity_model(3).decoder, half: []}
    with pytest.raises(ValueError, match="encoder and decoder need at least one layer each"):
        AEModel(**halves)


def test_grad_check_full_objective_toy_set():
    cfg = toy_config(seed=21)
    model = build_model(cfg)
    data = toy_data(21)
    ctx = build_context(data, cfg.n_neighbors)
    assert gradcheck_error(cfg, model, ctx, data, range(6)) < 1e-4
