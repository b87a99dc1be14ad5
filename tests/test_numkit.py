"""Layer primitives, SGD, and the gradient checker against finite differences."""

import numpy as np
import pytest

from exae.numkit import (
    DenseLayer,
    affine_backward,
    affine_forward,
    as_matrix,
    grad_check,
    init_layer,
    sgd_step,
)


def layer(w, b, act="identity"):
    return DenseLayer(np.asarray(w, float), np.asarray(b, float), act)


class TestAffineForward:
    def test_identity_map(self):
        l = layer([[1, 0], [0, 1]], [0, 0])
        out = affine_forward(l, np.array([[3.0, 4.0]]))
        assert np.array_equal(out, [[3.0, 4.0]])

    def test_relu_clamps_negative_preactivation(self):
        l = layer([[1, 1]], [-5], "relu")
        out = affine_forward(l, np.array([[2.0, 2.0]]))
        assert np.array_equal(out, [[0.0]])

    def test_hand_evaluated_affine(self):
        l = layer([[2, 0], [0, 3]], [1, -1])
        out = affine_forward(l, np.array([[1.0, 1.0]]))
        assert np.allclose(out, [[3.0, 2.0]], atol=0, rtol=0)

    def test_dimension_mismatch_names_both_shapes(self):
        l = layer([[1, 0], [0, 1]], [0, 0])
        with pytest.raises(ValueError, match=r"\(1, 3\).*\(2, 2\)"):
            affine_forward(l, np.ones((1, 3)))

    def test_identity_weights_identity_on_random_input(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(7, 5))
        l = layer(np.eye(5), np.zeros(5))
        assert np.array_equal(affine_forward(l, x), x)

    def test_outputs_finite_for_extreme_inputs(self):
        x = np.array([[1e6, -1e6]])
        for act in ("identity", "relu", "sigmoid"):
            l = layer([[1, 1], [1, -1]], [0, 0], act)
            assert np.all(np.isfinite(affine_forward(l, x)))


class TestAffineBackward:
    def test_scalar_chain_rule(self):
        l = layer([[1]], [0])
        x = np.array([[2.0]])
        grads, grad_in = affine_backward(l, x, affine_forward(l, x), np.array([[1.0]]))
        assert grads.weight == pytest.approx(2.0)
        assert grads.bias == pytest.approx(1.0)
        assert grad_in == pytest.approx(1.0)

    def test_dead_relu_zeroes_gradients(self):
        l = layer([[1, 1]], [-10], "relu")
        x = np.array([[2.0, 2.0]])
        grads, grad_in = affine_backward(l, x, affine_forward(l, x), np.array([[1.0]]))
        assert np.all(grads.weight == 0)
        assert np.all(grads.bias == 0)
        assert np.all(grad_in == 0)

    def test_shape_mismatch_raises(self):
        l = layer([[1, 0], [0, 1]], [0, 0])
        with pytest.raises(ValueError, match="grad_out"):
            affine_backward(l, np.ones((1, 2)), np.ones((1, 2)), np.ones((2, 2)))

    @pytest.mark.parametrize("act", ["identity", "relu", "sigmoid"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences(self, act, seed):
        rng = np.random.default_rng(seed)
        l = init_layer(2, 3, act, rng)
        l.bias[:] = rng.normal(scale=0.3, size=3)
        x = rng.normal(size=(4, 2))
        target = rng.normal(size=(4, 3))

        def loss_fn():
            out = affine_forward(l, x)
            diff = out - target
            grads, grad_in = affine_backward(l, x, out, 2.0 * diff)
            return float(np.sum(diff**2)), [grads.weight, grads.bias, grad_in]

        err = grad_check(loss_fn, [l.weight, l.bias, x], epsilon=1e-5)
        assert err < 1e-4


class TestSgdStep:
    def test_definitional_update(self):
        l = layer([[1.0]], [0.0])
        x = np.array([[1.0]])
        g = affine_backward(l, x, affine_forward(l, x), np.array([[0.5]]))[0]
        sgd_step([l], [g], lr=0.1)
        assert l.weight[0, 0] == pytest.approx(0.95)

    def test_zero_gradient_leaves_params(self):
        l = layer([[1.0, 2.0]], [3.0])
        x = np.zeros((1, 2))
        g = affine_backward(l, x, affine_forward(l, x), np.zeros((1, 1)))[0]
        before = l.weight.copy()
        sgd_step([l], [g], lr=0.5)
        assert np.array_equal(l.weight, before)

    def test_two_steps_equal_one_double_step(self):
        rng = np.random.default_rng(0)
        w0 = rng.normal(size=(3, 2))
        g = type("G", (), {})()
        g.weight = rng.normal(size=(3, 2))
        g.bias = rng.normal(size=3)

        a = DenseLayer(w0.copy(), np.zeros(3))
        sgd_step([a], [g], lr=0.1)
        sgd_step([a], [g], lr=0.1)
        b = DenseLayer(w0.copy(), np.zeros(3))
        sgd_step([b], [g], lr=0.2)
        assert np.allclose(a.weight, b.weight)
        assert np.allclose(a.bias, b.bias)

    def test_linear_in_lr(self):
        rng = np.random.default_rng(1)
        w0 = rng.normal(size=(2, 2))
        g = type("G", (), {})()
        g.weight = rng.normal(size=(2, 2))
        g.bias = rng.normal(size=2)

        a = DenseLayer(w0.copy(), np.zeros(2))
        sgd_step([a], [g], lr=0.3)
        b = DenseLayer(w0.copy(), np.zeros(2))
        sgd_step([b], [g], lr=0.1)
        sgd_step([b], [g], lr=0.2)
        assert np.allclose(a.weight, b.weight)

    def test_non_finite_gradient_identifies_layer(self):
        # the good layer's gradient would move it, so a refused step that
        # updated layer 0 before checking layer 1 would show
        good = type("G", (), {"weight": np.array([[0.5]]), "bias": np.array([0.5])})()
        for weight, bias, message in (
            ([[np.nan]], [0.0], "non-finite gradient entry at layer 1"),
            ([[0.0]], [np.inf], "non-finite gradient entry at layer 1"),
            ([[0.0, 0.0]], [0.0], "gradient shapes do not match parameters at layer 1"),
        ):
            layers = [layer([[1.0]], [0.0]), layer([[1.0]], [0.0])]
            bad = type("G", (), {"weight": np.array(weight), "bias": np.array(bias)})()
            with pytest.raises(ValueError, match=message):
                sgd_step(layers, [good, bad], lr=0.1)
            for l in layers:
                assert l.weight.tolist() == [[1.0]] and l.bias.tolist() == [0.0]


class TestGradCheck:
    def test_quadratic_is_exact(self):
        p = np.array([3.0])

        def loss_fn():
            return 0.5 * float(p[0] ** 2), [p.copy()]

        assert grad_check(loss_fn, [p]) < 1e-9

    def test_constant_loss_zero_error(self):
        p = np.array([1.0, -2.0])

        def loss_fn():
            return 5.0, [np.zeros(2)]

        assert grad_check(loss_fn, [p]) == 0.0

    def test_non_finite_loss_rejected(self):
        p = np.array([1.0])

        def loss_fn():
            return float("nan"), [np.zeros(1)]

        with pytest.raises(ValueError, match="non-finite"):
            grad_check(loss_fn, [p])

    def test_non_finite_gradient_rejected(self):
        p = np.array([1.0, 2.0])

        def loss_fn():
            return float(p[1] ** 2), [np.array([np.nan, 2.0 * p[1]])]

        # a NaN coordinate's error is NaN, which max() would pass over
        with pytest.raises(ValueError, match="non-finite gradient"):
            grad_check(loss_fn, [p])

    def test_wrong_gradient_is_caught(self):
        p = np.array([2.0])

        def loss_fn():
            return float(p[0] ** 2), [np.array([3.0 * p[0]])]  # should be 2p

        assert grad_check(loss_fn, [p]) > 0.1


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix([[1.0, np.inf]])


def test_init_layer_bounds_and_determinism():
    a = init_layer(10, 20, "relu", np.random.default_rng(7))
    b = init_layer(10, 20, "relu", np.random.default_rng(7))
    limit = np.sqrt(6.0 / 30.0)
    assert np.abs(a.weight).max() <= limit
    assert np.array_equal(a.weight, b.weight)
    assert np.all(a.bias == 0)
