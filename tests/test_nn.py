"""Tests for the from-scratch layers, loss, optimizer, and the tests'
gradient checker."""

from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import grad_check
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from safetymap.modelio import load_tensors, save_tensors
from safetymap.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ADAM_TILE,
    _im2col,
    adam_init,
    adam_step,
    bce_grad_from_logits,
    bce_loss,
    conv2d_backward,
    conv2d_backward_input,
    conv2d_forward,
    dense_backward,
    dense_forward,
    dropout_mask,
    glorot_uniform,
    maxpool2d_backward,
    maxpool2d_forward,
    relu,
    relu_grad,
    sigmoid,
)


def dense_grads(x, weights, grad_out):
    """dense_backward into fresh arrays: (d_x, d_W, d_b)."""
    grad_weights, grad_bias = np.empty_like(weights), np.empty(weights.shape[0])
    return dense_backward(x, weights, grad_out, grad_weights, grad_bias), grad_weights, grad_bias


def naive_conv2d(x, kernels, bias, padding=0):
    """Direct-loop stride-1 convolution oracle, independent of the im2col path."""
    k, c, kh, kw = kernels.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    h_out = xp.shape[1] - kh + 1
    w_out = xp.shape[2] - kw + 1
    out = np.zeros((k, h_out, w_out))
    for f in range(k):
        for i in range(h_out):
            for j in range(w_out):
                acc = bias[f]
                for ch in range(c):
                    for a in range(kh):
                        for b in range(kw):
                            acc += kernels[f, ch, a, b] * xp[ch, i + a, j + b]
                out[f, i, j] = acc
    return out


class TestDense:
    def test_identity(self):
        x = np.array([[1.0, -2.0, 3.0], [0.5, 0.0, -1.0]])
        y = dense_forward(x, np.eye(3), np.zeros(3))
        assert np.array_equal(y, x)

    def test_hand_arithmetic(self):
        x = np.array([[1.0, 2.0], [3.0, 0.0]])
        w = np.array([[1.0, 1.0], [0.0, 1.0]])
        b = np.array([0.0, 1.0])
        assert dense_forward(x, w, b).tolist() == [[3.0, 3.0], [3.0, 1.0]]

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=(3, 5))
        coeff = rng.normal(size=(3, 4))  # reduce output to a scalar

        def loss_and_grads(params):
            y = dense_forward(params["x"], params["w"], params["b"])
            loss = float(np.sum(coeff * y))
            gx, gw, gb = dense_grads(params["x"], params["w"], coeff)
            return loss, {"x": gx, "w": gw, "b": gb}

        params = {"x": x0, "w": rng.normal(size=(4, 5)), "b": rng.normal(size=4)}
        assert grad_check(loss_and_grads, params) < 1e-6

    def test_batch_rows_match_single_rows(self):
        rng = np.random.default_rng(1)
        x, w, b = rng.normal(size=(6, 5)), rng.normal(size=(4, 5)), rng.normal(size=4)
        g = rng.normal(size=(6, 4))
        y = dense_forward(x, w, b)
        gx, gw, gb = dense_grads(x, w, g)
        for n in range(6):
            row = slice(n, n + 1)
            assert np.max(np.abs(y[row] - dense_forward(x[row], w, b))) <= 1e-12
            assert np.array_equal(dense_grads(x[row], w, g[row])[1], np.outer(g[n], x[n]))
        assert np.max(np.abs(gw - sum(np.outer(g[n], x[n]) for n in range(6)))) <= 1e-12
        assert np.max(np.abs(gb - g.sum(axis=0))) <= 1e-12
        assert np.max(np.abs(gx - g @ w)) == 0.0

    def test_backward_overwrites_callers_arrays(self):
        rng = np.random.default_rng(2)
        x, w, g = rng.normal(size=(6, 5)), rng.normal(size=(4, 5)), rng.normal(size=(6, 4))
        gw, gb = np.full((4, 5), np.nan), np.full(4, np.nan)
        # bit for bit the allocating expressions, whatever the arrays held
        assert np.array_equal(dense_backward(x, w, g, gw, gb), g @ w)
        assert np.array_equal(gw, g.T @ x) and np.array_equal(gb, g.sum(axis=0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="dense"):
            dense_forward(np.zeros((1, 3)), np.zeros((4, 2)), np.zeros(4))
        with pytest.raises(ValueError, match="dense"):
            dense_forward(np.zeros(2), np.zeros((4, 2)), np.zeros(4))
        with pytest.raises(ValueError, match="grad shape"):
            dense_grads(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros((1, 4)))


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 3, 3))
        k = np.ones((1, 1, 1, 1))
        out = conv2d_forward(x, k, np.zeros(1))
        assert np.allclose(out, x)

    def test_all_ones_sums(self):
        x = np.ones((1, 3, 3))
        k = np.ones((1, 1, 3, 3))
        out = conv2d_forward(x, k, np.zeros(1))
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 9.0

    @pytest.mark.parametrize("padding", [0, 1])
    def test_matches_naive_oracle(self, padding):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 7, 7))
        k = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        got = conv2d_forward(x, k, b, padding=padding)
        want = naive_conv2d(x, k, b, padding=padding)
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("padding", [0, 1])
    def test_in_place_bias_matches_allocating_formula_bitwise(self, padding):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 10, 12))
        k = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        want = k.reshape(4, -1) @ _im2col(x, 3, 3, padding) + b[:, None]
        got = conv2d_forward(x, k, b, padding=padding)
        assert got.tobytes() == want.reshape(got.shape).tobytes()

    @staticmethod
    def conv_loss(coeff, padding):
        """sum(coeff * conv) and its gradients on the input, kernels and bias."""

        def loss_and_grads(params):
            y = conv2d_forward(params["x"], params["k"], params["b"], padding=padding)
            gk, gb = conv2d_backward(params["x"], params["k"], coeff, padding=padding)
            gx = conv2d_backward_input(params["k"], coeff, padding=padding)
            return float(np.sum(coeff * y)), {"x": gx, "k": gk, "b": gb}

        return loss_and_grads

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        coeff = rng.normal(size=(3, 6, 6))
        params = {
            "x": rng.normal(size=(2, 8, 8)),
            "k": rng.normal(size=(3, 2, 3, 3)),
            "b": rng.normal(size=3),
        }
        assert grad_check(self.conv_loss(coeff, 0), params) < 1e-6

    def test_padded_gradients(self):
        # the CNN's stages: a 3 x 3 kernel with padding 1 keeps the extent
        rng = np.random.default_rng(4)
        coeff = rng.normal(size=(2, 7, 7))
        params = {
            "x": rng.normal(size=(1, 7, 7)),
            "k": rng.normal(size=(2, 1, 3, 3)),
            "b": rng.normal(size=2),
        }
        assert grad_check(self.conv_loss(coeff, 1), params) < 1e-6


def argmax_maxpool2d(x):
    """The transpose + reshape + argmax formula maxpool2d_forward replaced,
    kept as its oracle."""
    c, h, w = x.shape
    windows = x.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4).reshape(c, h // 2, w // 2, 4)
    idx = windows.argmax(axis=-1)
    return np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0], idx


def scatter_maxpool2d_backward(idx, grad_out):
    """The zeroed 4-slot scatter and transposed copy maxpool2d_backward
    replaced, kept as its oracle."""
    c, h2, w2 = grad_out.shape
    grad_windows = np.zeros((c, h2, w2, 4))
    np.put_along_axis(grad_windows, idx[..., None], grad_out[..., None], axis=-1)
    return grad_windows.reshape(c, h2, w2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(c, h2 * 2, w2 * 2)


# a NaN with the sign bit set and a payload other than the default quiet NaN's
NEG_PAYLOAD_NAN = float(np.array(0xFFF8_0000_0000_0005, dtype=np.uint64).view(np.float64))

# C x 2h x 2w inputs; the few repeated values make ties and signed zeros common
POOL_INPUTS = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda s: hnp.arrays(
        np.float64,
        (s[0], 2 * s[1], 2 * s[2]),
        elements=st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 2.5, math.nan]), st.floats()),
    )
)


class TestMaxpool:
    @given(POOL_INPUTS)
    @example(np.array([[[1.0, math.nan], [2.0, 3.0]]]))
    @example(np.array([[[-0.0, 0.0], [0.0, -0.0]]]))
    @example(np.array([[[0.0, -0.0], [-0.0, 0.0]]]))
    # two NaNs of different sign and payload: the first wins, bit for bit
    @example(np.array([[[1.0, math.nan], [NEG_PAYLOAD_NAN, 3.0]], [[NEG_PAYLOAD_NAN, 2.0], [math.nan, -1.0]]]))
    @example(np.full((2, 2, 4), -2.5))
    def test_matches_argmax_formula(self, x):
        out, idx = maxpool2d_forward(x)
        want_out, want_idx = argmax_maxpool2d(x)
        # bitwise: the same element of each window, signed zeros and NaNs included
        assert out.tobytes() == want_out.tobytes()
        assert idx.dtype == np.uint8 and np.array_equal(idx, want_idx)
        windows = x.reshape(x.shape[0], out.shape[1], 2, out.shape[2], 2)
        assert np.array_equal(np.isnan(out), np.isnan(windows).any(axis=(2, 4)))

    def test_constant_input(self):
        out, _ = maxpool2d_forward(np.full((2, 4, 4), 3.5))
        assert np.array_equal(out, np.full((2, 2, 2), 3.5))

    def test_single_window(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out, _ = maxpool2d_forward(x)
        assert out[0, 0, 0] == 4.0

    def test_tie_routes_to_first_in_scan_order(self):
        x = np.array([[[7.0, 7.0], [7.0, 7.0]]])
        _, idx = maxpool2d_forward(x)
        grad = maxpool2d_backward(idx, np.ones((1, 1, 1)))
        assert grad[0, 0, 0] == 1.0
        assert grad.sum() == 1.0

    @given(POOL_INPUTS)
    def test_backward_matches_scatter_formula(self, x):
        _, idx = maxpool2d_forward(x)
        grad_out = np.random.default_rng(x.size).normal(size=idx.shape)
        grad_out.flat[::3] = -0.0
        grad_out.flat[1::5] = math.inf
        grad_out.flat[2::5] = -math.inf
        grad_out.flat[3::7] = NEG_PAYLOAD_NAN
        grad_out.flat[4::7] = math.nan
        # bitwise, signed zeros and NaN payloads included: each output gradient
        # lands on its argmax, and the other slots stay +0.0
        assert maxpool2d_backward(idx, grad_out).tobytes() == scatter_maxpool2d_backward(
            idx, grad_out
        ).tobytes()

    def test_gradient_at_non_tied_points(self):
        rng = np.random.default_rng(5)
        coeff = rng.normal(size=(2, 3, 3))

        def loss_and_grads(params):
            y, idx = maxpool2d_forward(params["x"])
            loss = float(np.sum(coeff * y))
            return loss, {"x": maxpool2d_backward(idx, coeff)}

        # continuous random input: window margins far exceed the fd step
        params = {"x": rng.normal(size=(2, 6, 6))}
        assert grad_check(loss_and_grads, params) < 1e-6

    def test_odd_extent_rejected(self):
        with pytest.raises(ValueError, match="even"):
            maxpool2d_forward(np.zeros((1, 3, 4)))


class TestActivations:
    def test_relu_formula(self):
        assert relu(np.array([-3.0]))[0] == 0.0
        assert relu(np.array([3.0]))[0] == 3.0
        assert relu_grad(np.array([-1.0, 2.0])).tolist() == [0.0, 1.0]

    @given(
        hnp.arrays(
            np.float64,
            st.integers(0, 40),
            elements=st.one_of(
                st.sampled_from([-0.0, 0.0, math.nan, NEG_PAYLOAD_NAN, math.inf, -math.inf]),
                st.floats(),
            ),
        )
    )
    def test_in_place_matches_allocating_form_bitwise(self, x):
        want = np.maximum(0.0, x)
        got = relu(x, out=x)
        assert got is x
        assert got.tobytes() == want.tobytes()

    def test_zero_points(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_extremes_stable(self):
        with np.errstate(over="raise"):
            lo = sigmoid(np.array([-40.0]))[0]
            hi = sigmoid(np.array([40.0]))[0]
        assert 1e-18 <= lo < 1e-15
        assert 1.0 - 1e-15 < hi <= 1.0

    def test_sigmoid_symmetry(self):
        rng = np.random.default_rng(6)
        x = rng.normal(scale=10.0, size=1000)
        total = sigmoid(x) + sigmoid(-x)
        assert np.max(np.abs(total - 1.0)) < 1e-15


class TestDropout:
    def test_training_statistics(self):
        rng = np.random.default_rng(7)
        mask = dropout_mask(rng, (1_000_000,), 0.2)
        survivors = np.count_nonzero(mask) / mask.size
        assert abs(survivors - 0.8) < 0.002
        assert set(np.unique(mask)) == {0.0, 1.0 / 0.8}  # kept units rescaled by 1/(1-rate)
        assert abs(mask.mean() - 1.0) < 0.005

    def test_invalid_rate(self):
        for rate in (1.0, -0.1):
            with pytest.raises(ValueError, match="rate"):
                dropout_mask(np.random.default_rng(0), (3,), rate)


class TestBce:
    def test_analytic_points(self):
        loss = bce_loss(np.array([0.5]), np.array([1.0]))
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)
        loss = bce_loss(np.array([0.9]), np.array([0.0]))
        assert loss == pytest.approx(-math.log(0.1), rel=1e-12)

    def test_gradient_vs_finite_differences(self):
        # the gradient training runs: of bce_loss(sigmoid(z)) in the logits z
        rng = np.random.default_rng(8)

        def loss_and_grads(params):
            p = sigmoid(params["z"])
            return bce_loss(p, labels), {"z": bce_grad_from_logits(p, labels)}

        labels = (rng.random(12) < 0.5).astype(np.float64)
        params = {"z": rng.uniform(-3.0, 3.0, size=12)}
        assert grad_check(loss_and_grads, params) < 1e-6

    def test_extreme_probs_bounded(self):
        assert np.isfinite(bce_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0])))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            bce_loss(np.zeros(3), np.zeros(4))


def per_tensor_adam_step(params, grads, m, v, t, lr):
    """The whole-tensor Adam update adam_step replaced, with a scratch array
    of each tensor's size, kept as its oracle."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for key, p in params.items():
        g = grads[key]
        scratch = np.empty_like(p)
        m[key] *= b1
        np.multiply(g, 1.0 - b1, out=scratch)
        m[key] += scratch
        v[key] *= b2
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - b2
        v[key] += scratch
        np.divide(v[key], bias2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPS
        np.divide(m[key], scratch, out=scratch)
        scratch *= lr / bias1
        p -= scratch


TILE_SIZES = [0, 1, ADAM_TILE - 1, ADAM_TILE, ADAM_TILE + 1, 3 * ADAM_TILE + 5]


class TestAdam:
    @pytest.mark.parametrize("ndim", [1, 2, 4])
    def test_tiles_match_per_tensor_update_bitwise(self, ndim):
        rng = np.random.default_rng(ndim)

        def shape(size):
            """size elements in ndim axes, each leading axis a small factor of size"""
            dims = []
            for _ in range(ndim - 1):
                dims.append(next((f for f in range(2, 64) if size % f == 0), 1))
                size //= dims[-1]
            return (*dims, size)

        start = {f"w{size}": rng.normal(size=shape(size)) for size in TILE_SIZES}
        params = {k: p.copy() for k, p in start.items()}
        want = {k: p.copy() for k, p in start.items()}
        m = {k: np.zeros_like(p) for k, p in start.items()}
        v = {k: np.zeros_like(p) for k, p in start.items()}
        state = adam_init(params, lr=0.01)
        for t in range(1, 6):
            # gradients vary in scale and sign from step to step, signed zeros included
            grads = {k: rng.normal(scale=10.0**t, size=p.shape) for k, p in start.items()}
            for g in grads.values():
                g.reshape(-1)[::7] = -0.0
            adam_step(params, grads, state)
            per_tensor_adam_step(want, grads, m, v, t, 0.01)
            assert state.scratch.size <= ADAM_TILE
            for key in start:
                assert params[key].tobytes() == want[key].tobytes(), key
                assert state.m[key].tobytes() == m[key].tobytes(), key
                assert state.v[key].tobytes() == v[key].tobytes(), key

    def test_zero_gradient_no_move(self):
        params = {"w": np.array([1.0, -2.0])}
        state = adam_init(params, lr=0.1)
        adam_step(params, {"w": np.zeros(2)}, state)
        assert params["w"].tolist() == [1.0, -2.0]
        assert state.t == 1

    def test_first_step_magnitude(self):
        # with bias correction, the first update is lr * g/(|g| + ~eps)
        params = {"w": np.array([5.0])}
        state = adam_init(params, lr=0.01)
        adam_step(params, {"w": np.array([3.0])}, state)
        assert params["w"][0] == pytest.approx(5.0 - 0.01, abs=1e-6)

    def test_deterministic(self):
        def run():
            params = {"w": np.arange(4.0)}
            state = adam_init(params, lr=0.05)
            for step in range(5):
                adam_step(params, {"w": np.sin(params["w"] + step)}, state)
            return params["w"]

        assert np.array_equal(run(), run())

    def test_loss_decreases_on_separable_problem(self):
        rng = np.random.default_rng(9)
        x = np.vstack([rng.normal(-2.0, 0.5, size=(40, 2)), rng.normal(2.0, 0.5, size=(40, 2))])
        y = np.array([0.0] * 40 + [1.0] * 40)
        params = {"w": np.zeros(2), "b": np.zeros(1)}
        state = adam_init(params, lr=1e-2)
        losses = []
        for _ in range(100):
            p = sigmoid(x @ params["w"] + params["b"][0])
            losses.append(bce_loss(p, y))
            grad_logit = (p - y) / y.size
            grads = {"w": x.T @ grad_logit, "b": np.array([grad_logit.sum()])}
            adam_step(params, grads, state)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 0.2 * losses[0]

    def test_shape_mismatch(self):
        params = {"w": np.zeros(3)}
        state = adam_init(params, lr=1e-3)
        with pytest.raises(ValueError, match="shape"):
            adam_step(params, {"w": np.zeros(4)}, state)

    def test_non_contiguous_param_rejected(self):
        # the update writes through a flat view, which a strided array has not
        params = {"w": np.zeros((3, 4)).T}
        state = adam_init(params, lr=1e-3)
        with pytest.raises(ValueError, match="w: parameter array is not C-contiguous"):
            adam_step(params, {"w": np.ones((4, 3))}, state)


class TestGradCheck:
    def test_quadratic(self):
        def loss_and_grads(params):
            x = params["x"][0]
            return x * x, {"x": np.array([2.0 * x])}

        assert grad_check(loss_and_grads, {"x": np.array([3.0])}) < 1e-9

    def test_dense_sigmoid_bce_composite(self):
        rng = np.random.default_rng(10)
        labels = (rng.random((1, 4)) < 0.5).astype(np.float64)
        x = rng.normal(size=(1, 5))

        def loss_and_grads(params):
            z = dense_forward(x, params["w"], params["b"])
            p = sigmoid(z)
            _, gw, gb = dense_grads(x, params["w"], bce_grad_from_logits(p, labels))
            return bce_loss(p, labels), {"w": gw, "b": gb}

        params = {
            "w": glorot_uniform(rng, (4, 5), 5, 4),
            "b": rng.normal(size=4) * 0.1,
        }
        assert grad_check(loss_and_grads, params) < 1e-4

    def test_flags_wrong_gradient(self):
        def loss_and_grads(params):
            x = params["x"][0]
            return x * x, {"x": np.array([4.0 * x])}  # off by 2x

        err = grad_check(loss_and_grads, {"x": np.array([3.0])})
        assert err == pytest.approx(1.0 / 3.0, abs=1e-6)


HEADER = b'{"format": "safetymap-model", "version": 1, "meta": {}'
# name -> shape, with 0-d and zero-size shapes among them
TENSOR_SHAPES = st.dictionaries(
    st.text(max_size=6), st.lists(st.integers(0, 3), max_size=3).map(tuple), max_size=4
)


class TestModelContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        tensors = {
            "layer0.w": rng.normal(size=(4, 3)),
            "layer0.b": rng.normal(size=4),
            "head.w": rng.normal(size=(1, 4)),
        }
        path = tmp_path / "model.bin"
        save_tensors(str(path), tensors, meta={"seed": 7, "mode": "shared"})
        loaded, meta = load_tensors(str(path))
        assert list(loaded) == list(tensors)
        for k in tensors:
            assert np.array_equal(loaded[k], tensors[k])
        assert meta == {"seed": 7, "mode": "shared"}

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"not a model\n1234")
        with pytest.raises(ValueError):
            load_tensors(str(path))

    def test_truncated(self, tmp_path):
        path = tmp_path / "model.bin"
        save_tensors(str(path), {"w": np.zeros(10)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_tensors(str(path))

    @pytest.mark.parametrize(
        "header, data, message",
        [
            pytest.param(b"[]", b"", "not a safetymap-model container", id="list-header"),
            pytest.param(HEADER + b"}", b"", "needs a 'tensors' list", id="no-tensors"),
            pytest.param(
                HEADER + b', "tensors": [{"name": "w", "shape": [-1]}]}',
                b"",
                "malformed or repeated tensor entry 0",
                id="negative-dim",
            ),
            pytest.param(
                HEADER + b', "tensors": [{"name": "w"}]}', b"", "tensor entry 0", id="no-shape"
            ),
            pytest.param(
                HEADER + b', "tensors": [{"name": "w", "shape": [1]}, {"name": "w", "shape": [1]}]}',
                bytes(16),
                "malformed or repeated tensor entry 1",
                id="repeated-name",
            ),
            pytest.param(
                HEADER + b', "tensors": [{"name": "w", "shape": [1]}]}',
                bytes(9),
                "1 bytes after the last tensor",
                id="trailing-bytes",
            ),
        ],
    )
    def test_malformed_names_file(self, tmp_path, header, data, message):
        path = tmp_path / "bad.bin"
        path.write_bytes(header + b"\n" + data)
        with pytest.raises(ValueError, match=message) as info:
            load_tensors(str(path))
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_save_rejects_non_finite_before_opening(self, tmp_path, bad):
        path = tmp_path / "model.bin"
        w = np.zeros((2, 3))
        w[1, 2] = bad
        with pytest.raises(ValueError) as info:
            save_tensors(str(path), {"b": np.ones(3), "w": w})
        assert str(info.value) == f"{path}: tensor 'w' holds 1 non-finite values"
        assert not path.exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_save_rejects_non_finite_meta_before_opening(self, tmp_path, bad):
        path = tmp_path / "model.bin"
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_tensors(str(path), {"w": np.zeros(3)}, {"dropout_rate": bad})
        assert not path.exists()

    def test_load_rejects_non_finite(self, tmp_path):
        path = tmp_path / "model.bin"
        save_tensors(str(path), {"b": np.ones(3), "w": np.zeros(4)})
        blob = path.read_bytes()
        # the last two float64s of w become NaN and inf
        path.write_bytes(blob[:-16] + np.array([np.nan, np.inf], dtype="<f8").tobytes())
        with pytest.raises(ValueError) as info:
            load_tensors(str(path))
        assert str(info.value) == f"{path}: tensor 'w' holds 2 non-finite values"

    @given(TENSOR_SHAPES, st.integers(0, 2**32 - 1))
    def test_round_trip_any_names_and_shapes(self, tmp_path_factory, shapes, seed):
        rng = np.random.default_rng(seed)
        tensors = {name: np.asarray(rng.normal(size=shape)) for name, shape in shapes.items()}
        path = tmp_path_factory.mktemp("model") / "model.bin"
        save_tensors(str(path), tensors, meta={"seed": seed})
        loaded, meta = load_tensors(str(path))
        assert list(loaded) == list(tensors)
        for name, value in tensors.items():
            assert loaded[name].shape == value.shape
            assert np.array_equal(loaded[name], value)
        assert meta == {"seed": seed}

    @given(TENSOR_SHAPES, st.integers(1, 4096))
    @example({}, 1)  # a header-only container missing its newline
    def test_cut_raises_value_error(self, tmp_path_factory, shapes, cut):
        path = tmp_path_factory.mktemp("model") / "model.bin"
        save_tensors(str(path), {name: np.ones(shape) for name, shape in shapes.items()})
        blob = path.read_bytes()
        path.write_bytes(blob[: max(len(blob) - cut, 0)])
        with pytest.raises(ValueError):
            load_tensors(str(path))
