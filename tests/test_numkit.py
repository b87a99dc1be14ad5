"""Layer primitives, SGD, the gradient checker against finite differences
(tests/gradprobe.py), and the row-block runner."""

import copy
import os
import re
import sys
import threading

import numpy as np
import pytest
from gradprobe import grad_check

from exae import numkit
from exae.numkit import (
    DenseLayer,
    LayerGrads,
    affine_backward,
    affine_forward,
    as_matrix,
    init_layer,
    integer,
    map_row_blocks,
    real,
    row_block_workers,
    row_blocks,
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
    @pytest.mark.parametrize("lr", [0.0, -0.1, np.nan])
    def test_nonpositive_or_nan_lr_refused(self, lr):
        l = layer([[1.0]], [0.0])
        g = type("G", (), {"weight": np.array([[0.5]]), "bias": np.array([0.5])})()
        with pytest.raises(ValueError, match="learning rate must be positive"):
            sgd_step([l], [g], lr=lr)
        assert l.weight.tolist() == [[1.0]] and l.bias.tolist() == [0.0]

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
        # sgd_step scales its gradients in place, so each call takes a fresh copy
        rng = np.random.default_rng(0)
        w0 = rng.normal(size=(3, 2))
        g = LayerGrads(rng.normal(size=(3, 2)), rng.normal(size=3))

        a = DenseLayer(w0.copy(), np.zeros(3))
        sgd_step([a], [copy.deepcopy(g)], lr=0.1)
        sgd_step([a], [copy.deepcopy(g)], lr=0.1)
        b = DenseLayer(w0.copy(), np.zeros(3))
        sgd_step([b], [copy.deepcopy(g)], lr=0.2)
        assert np.allclose(a.weight, b.weight)
        assert np.allclose(a.bias, b.bias)

    def test_linear_in_lr(self):
        rng = np.random.default_rng(1)
        w0 = rng.normal(size=(2, 2))
        g = LayerGrads(rng.normal(size=(2, 2)), rng.normal(size=2))

        a = DenseLayer(w0.copy(), np.zeros(2))
        sgd_step([a], [copy.deepcopy(g)], lr=0.3)
        b = DenseLayer(w0.copy(), np.zeros(2))
        sgd_step([b], [copy.deepcopy(g)], lr=0.1)
        sgd_step([b], [copy.deepcopy(g)], lr=0.2)
        assert np.allclose(a.weight, b.weight)

    def test_non_finite_gradient_identifies_layer(self):
        # the good layer's gradient would move it, and sgd_step scales it in
        # place, so a refused step that updated or scaled layer 0 before
        # checking layer 1 would show in its parameters or its gradient
        for weight, bias, message in (
            ([[np.nan]], [0.0], "non-finite gradient entry at layer 1"),
            ([[0.0]], [np.inf], "non-finite gradient entry at layer 1"),
            ([[0.0, 0.0]], [0.0], "gradient shapes do not match parameters at layer 1"),
            ([[0]], [0], "gradients at layer 1 are not float64"),
        ):
            layers = [layer([[1.0]], [0.0]), layer([[1.0]], [0.0])]
            good = LayerGrads(np.array([[0.5]]), np.array([0.5]))
            bad = LayerGrads(np.array(weight), np.array(bias))
            with pytest.raises(ValueError, match=message):
                sgd_step(layers, [good, bad], lr=0.1)
            for l in layers:
                assert l.weight.tolist() == [[1.0]] and l.bias.tolist() == [0.0]
            assert good.weight.tolist() == [[0.5]] and good.bias.tolist() == [0.5]
            assert np.array_equal(bad.weight, weight, equal_nan=True) and np.array_equal(bad.bias, bias)


    @pytest.mark.parametrize("part", ["weight", "bias"])
    def test_read_only_gradient_refused_before_any_layer_moves(self, part):
        # the in-place scale cannot write it: refused up front, not after layer 0 moved
        layers = [layer([[1.0]], [0.0]), layer([[1.0]], [0.0])]
        good = LayerGrads(np.array([[1.0]]), np.array([1.0]))
        bad = LayerGrads(np.array([[1.0]]), np.array([1.0]))
        getattr(bad, part).flags.writeable = False
        with pytest.raises(ValueError, match="^gradients at layer 1 are read-only$"):
            sgd_step(layers, [good, bad], lr=0.1)
        for l in layers:
            assert l.weight.tolist() == [[1.0]] and l.bias.tolist() == [0.0]
        for g in (good, bad):
            assert g.weight.tolist() == [[1.0]] and g.bias.tolist() == [1.0]


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


@pytest.mark.parametrize("data", [[1.0, 2.0], 3.0, np.zeros((2, 2, 2))], ids=["1-D", "0-D", "3-D"])
def test_as_matrix_refuses_anything_but_2_d(data):
    # a 1-D array is refused, not read as one row: no caller passes one
    with pytest.raises(ValueError, match=rf"^expected a 2-D array, got shape {re.escape(str(np.shape(data)))}$"):
        as_matrix(data)


@pytest.mark.parametrize(
    "value, least, refused",
    [(2.5, 1, "n must be an integer, got 2.5"),
     (True, 0, "n must be an integer, got True"),
     (np.bool_(True), 0, f"n must be an integer, got {np.bool_(True)!r}"),
     ("3", 1, "n must be an integer, got '3'"),
     (np.float64(2.0), 1, f"n must be an integer, got {np.float64(2.0)!r}"),
     (float("nan"), 1, "n must be an integer, got nan"),
     (None, 1, "n must be an integer, got None"),
     (0, 1, "n must be >= 1, got 0"),
     (np.int64(-1), 0, "n must be >= 0, got -1"),
     (4, 5, "n must be >= 5, got 4")],
)
def test_integer_refuses_naming_its_setting(value, least, refused):
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        integer(value, "n", least)


@pytest.mark.parametrize("value, least", [(1, 1), (0, 0), (np.int64(7), 1), (np.uint8(5), 5), (np.int32(-2), -2), (2**70, 1)])
def test_integer_returns_a_python_int_at_or_above_least(value, least):
    got = integer(value, "n", least)
    assert type(got) is int and got == value


def test_integer_default_least_is_one():
    assert integer(1, "n") == 1
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        integer(0, "n")


@pytest.mark.parametrize(
    "value, positive, finite, refused",
    [(True, False, True, "x must be a real number, got True"),
     (np.bool_(False), False, True, f"x must be a real number, got {np.bool_(False)!r}"),
     ("0.5", False, True, "x must be a real number, got '0.5'"),
     (None, False, False, "x must be a real number, got None"),
     (1 + 0j, False, True, "x must be a real number, got (1+0j)"),
     (float("nan"), False, False, "x must be >= 0, got nan"),
     (float("nan"), True, True, "x must be positive and finite, got nan"),
     (-1, False, True, "x must be >= 0 and finite, got -1"),
     (np.float64(-0.5), False, False, "x must be >= 0, got -0.5"),
     (0, True, True, "x must be positive and finite, got 0"),
     (float("inf"), False, True, "x must be >= 0 and finite, got inf"),
     (float("-inf"), False, False, "x must be >= 0, got -inf"),
     (10**400, False, False, "x is too large for a float"),
     (-(10**400), True, True, "x is too large for a float")],
)
def test_real_refuses_naming_its_setting(value, positive, finite, refused):
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        real(value, "x", positive=positive, finite=finite)


@pytest.mark.parametrize(
    "value, positive, finite",
    [(0, False, True), (2, True, True), (np.float64(0.5), True, True), (np.int64(3), True, True),
     (np.float32(0.25), False, True), (5e-324, True, True), (float("inf"), False, False), (2**1000, True, True)],
)
def test_real_returns_a_python_float(value, positive, finite):
    got = real(value, "x", positive=positive, finite=finite)
    assert type(got) is float and got == value


def test_init_layer_bounds_and_determinism():
    a = init_layer(10, 20, "relu", np.random.default_rng(7))
    b = init_layer(10, 20, "relu", np.random.default_rng(7))
    limit = np.sqrt(6.0 / 30.0)
    assert np.abs(a.weight).max() <= limit
    assert np.array_equal(a.weight, b.weight)
    assert np.all(a.bias == 0)


OPENBLAS = "scipy-openblas"


@pytest.mark.parametrize(
    "environ, want",
    [
        ({"OPENBLAS_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "4"}, 1),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 1),  # OpenBLAS's own variable first
        ({"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "4"}, 2),
        ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 2),
        ({"GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 1),
        ({"OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, 2),  # empty or zero is not set
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "4"}, 1),
        ({"MKL_NUM_THREADS": "1"}, 1),  # not an OpenBLAS variable
        ({}, 1),  # unset: OpenBLAS takes every core
    ],
)
def test_row_block_workers_follow_the_openblas_thread_setting(environ, want):
    assert row_block_workers(environ, OPENBLAS) == want


@pytest.mark.parametrize("blas", [None, "mkl-sdl", "accelerate", "blis"])
def test_unknown_blas_gets_one_worker(blas):
    assert row_block_workers({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, blas) == 1


def test_module_count_is_this_process_rule():
    assert numkit.ROW_BLOCK_WORKERS == row_block_workers(os.environ, numkit._BLAS)


@pytest.fixture(params=[1, 2])
def workers(request, monkeypatch):
    monkeypatch.setattr(numkit, "ROW_BLOCK_WORKERS", request.param)
    return request.param


@pytest.mark.parametrize("n", [1, 7, 8, 9, 13, 14, 16, 17, 41])
def test_row_blocks_cut_the_whole_blocks(workers, n):
    blocks = row_blocks(n, 8)
    whole = [(s, min(s + 8, n)) for s in range(0, n, 8)]
    assert np.array_equal(np.concatenate([np.arange(a, b) for a, b in blocks]), np.arange(n))
    if workers == 1:
        assert blocks == whole
    for a, b in blocks:
        assert a // 8 == (b - 1) // 8  # inside one whole block
        assert b - a <= 8 // workers + 1  # the rows in flight stay at one whole block
        assert b - a > 1 or (a, b) in whole  # a 1-row block only where the whole block has one row


def test_two_workers_halve_each_block_and_keep_a_lone_row_with_its_part(monkeypatch):
    monkeypatch.setattr(numkit, "ROW_BLOCK_WORKERS", 2)
    assert row_blocks(17, 8) == [(0, 4), (4, 8), (8, 12), (12, 16), (16, 17)]
    assert row_blocks(13, 8) == [(0, 4), (4, 8), (8, 13)]
    assert row_blocks(14, 8) == [(0, 4), (4, 8), (8, 12), (12, 14)]


@pytest.mark.parametrize("n", [1, 15, 16, 17, 50])
def test_every_block_runs_once(workers, n):
    out = np.full(n, -1)
    seen = []

    def fill(start, stop):
        seen.append((start, stop))
        out[start:stop] = np.arange(start, stop)

    map_row_blocks(fill, n, 8)
    assert sorted(seen) == row_blocks(n, 8)
    assert np.array_equal(out, np.arange(n))  # the last, partial block included


def test_block_failure_reraised_and_no_thread_left(workers):
    before = threading.active_count()

    def fail(start, stop):
        if start >= 16:
            raise ValueError(f"block at {start}")

    # every block from row 16 on fails: the first of them in order is the one raised
    with pytest.raises(ValueError, match="block at 16"):
        map_row_blocks(fail, 64, 8)
    assert threading.active_count() == before


def test_helper_failure_is_raised_in_the_caller(monkeypatch):
    monkeypatch.setattr(numkit, "ROW_BLOCK_WORKERS", 2)
    both = threading.Barrier(2)  # each of the two blocks runs on its own thread

    def fail_off_the_caller(start, stop):
        both.wait(timeout=10)
        if threading.current_thread() is not threading.main_thread():
            raise ValueError("helper block")

    with pytest.raises(ValueError, match="helper block"):
        map_row_blocks(fail_off_the_caller, 4, 4)


def test_helper_runs_under_the_callers_error_state(monkeypatch):
    monkeypatch.setattr(numkit, "ROW_BLOCK_WORKERS", 2)
    both = threading.Barrier(2)
    states = []

    def overflow(start, stop):
        both.wait(timeout=10)
        states.append(np.geterr()["over"])
        np.float64(1e308) * 10.0  # warns, which the suite makes an error, unless overflow is ignored

    with np.errstate(over="ignore"):
        map_row_blocks(overflow, 4, 4)
    assert states == ["ignore", "ignore"]


@pytest.mark.parametrize("workers, n, threads", [(1, 64, 0), (2, 4, 0), (2, 64, 1)])
def test_threads_start_only_with_two_workers_and_blocks(monkeypatch, workers, n, threads):
    monkeypatch.setattr(numkit, "ROW_BLOCK_WORKERS", workers)
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(numkit.threading, "Thread", Counted)
    map_row_blocks(lambda start, stop: None, n, 8)
    assert len(started) == threads


def test_many_workers_take_every_block_once(monkeypatch):
    # more workers than cores and a short switch interval: a block taken
    # twice or never shows as a row count other than the number of runs
    monkeypatch.setattr(numkit, "ROW_BLOCK_WORKERS", 8)
    before, interval = threading.active_count(), sys.getswitchinterval()
    counts = np.zeros(5000, dtype=np.int64)

    def count(start, stop):
        counts[start:stop] += 1

    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            map_row_blocks(count, counts.size, 16)
    finally:
        sys.setswitchinterval(interval)
    assert np.all(counts == 20)
    assert threading.active_count() == before
