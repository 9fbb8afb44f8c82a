"""From-scratch differentiable building blocks on float64 numpy arrays:
dense, 2-D convolution, max pooling, activations, inverted dropout, binary
cross-entropy, Adam, and a central-difference gradient checker.

All backward passes are hand-derived; no autodiff anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

Params = dict[str, np.ndarray]

BCE_CLAMP = 1e-12


# --- activations ---


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, x)


def relu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative w.r.t. the pre-activation input (0 at the kink)."""
    return (x > 0.0).astype(np.float64)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# --- dense layer ---


def dense_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """y = x @ W.T + b for a batch of input rows x of shape (N, in)."""
    if x.ndim != 2 or weights.shape != (bias.shape[0], x.shape[1]):
        raise ValueError(
            f"dense shapes inconsistent: W {weights.shape}, x {x.shape}, b {bias.shape}"
        )
    return x @ weights.T + bias


def dense_backward(
    x: np.ndarray,
    weights: np.ndarray,
    grad_out: np.ndarray,
    grad_weights: np.ndarray,
    grad_bias: np.ndarray,
) -> np.ndarray:
    """Given the upstream gradient on the (N, out) output, write d_W and d_b,
    each summed over the N rows, into grad_weights and grad_bias; returns
    d_x. Training passes the same arrays at every step."""
    if grad_out.shape != (x.shape[0], weights.shape[0]):
        raise ValueError(f"grad shape {grad_out.shape} mismatches x {x.shape}, W {weights.shape}")
    np.matmul(grad_out.T, x, out=grad_weights)
    np.sum(grad_out, axis=0, out=grad_bias)
    return grad_out @ weights


# --- 2-D convolution (cross-correlation with zero padding) ---


def _conv_output_extent(extent: int, k: int, padding: int) -> int:
    span = extent + 2 * padding - k
    if span < 0:
        raise ValueError(f"kernel {k} larger than padded input {extent + 2 * padding}")
    return span + 1


def _im2col(x: np.ndarray, kh: int, kw: int, padding: int) -> np.ndarray:
    """Column matrix of all kernel-sized patches, shape (C*kh*kw, H'*W')."""
    c = x.shape[0]
    h_out = _conv_output_extent(x.shape[1], kh, padding)
    w_out = _conv_output_extent(x.shape[2], kw, padding)
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((c, kh, kw, h_out, w_out), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, i : i + h_out, j : j + w_out]
    return cols.reshape(c * kh * kw, h_out * w_out)


def conv2d_forward(
    x: np.ndarray, kernels: np.ndarray, bias: np.ndarray, padding: int = 0
) -> np.ndarray:
    """Convolve a C x H x W input with K kernels of shape C x kh x kw, stride 1."""
    k, c, kh, kw = kernels.shape
    if x.shape[0] != c:
        raise ValueError(f"input channels {x.shape[0]} != kernel channels {c}")
    if bias.shape != (k,):
        raise ValueError(f"bias shape {bias.shape} != ({k},)")
    h_out = _conv_output_extent(x.shape[1], kh, padding)
    w_out = _conv_output_extent(x.shape[2], kw, padding)
    cols = _im2col(x, kh, kw, padding)
    out = kernels.reshape(k, -1) @ cols + bias[:, None]
    return out.reshape(k, h_out, w_out)


def conv2d_backward(
    x: np.ndarray, kernels: np.ndarray, grad_out: np.ndarray, padding: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (d_kernels, d_bias) for conv2d_forward."""
    k = kernels.shape[0]
    grad_mat = grad_out.reshape(k, -1)
    cols = _im2col(x, kernels.shape[2], kernels.shape[3], padding)
    return (grad_mat @ cols.T).reshape(kernels.shape), grad_mat.sum(axis=1)


def conv2d_backward_input(
    kernels: np.ndarray, grad_out: np.ndarray, padding: int = 0
) -> np.ndarray:
    """Gradient d_x on the input of conv2d_forward."""
    k, c, kh, kw = kernels.shape
    h_out, w_out = grad_out.shape[1], grad_out.shape[2]
    grad_cols = kernels.reshape(k, -1).T @ grad_out.reshape(k, -1)
    grad_cols = grad_cols.reshape(c, kh, kw, h_out, w_out)
    grad_xp = np.zeros((c, h_out + kh - 1, w_out + kw - 1))
    for i in range(kh):
        for j in range(kw):
            grad_xp[:, i : i + h_out, j : j + w_out] += grad_cols[:, i, j]
    if padding:
        grad_xp = grad_xp[:, padding:-padding, padding:-padding]
    return grad_xp


# --- 2x2 max pooling, stride 2 ---


def maxpool2d_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Channel-wise 2x2 window maxima; also returns the argmax index cache
    (0..3 in row-major order within each window).

    Ties route to the first maximal element in row-major scan order, and a
    NaN counts as the maximum, as in np.argmax.
    """
    _, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2d needs even extents, got {h}x{w}")
    a, b, c, d = x[:, 0::2, 0::2], x[:, 0::2, 1::2], x[:, 1::2, 0::2], x[:, 1::2, 1::2]
    # the later of two elements wins when it is greater or when only it is NaN
    right_top = ~(a >= b) & (a == a)
    right_bottom = ~(c >= d) & (c == c)
    top = np.where(right_top, b, a)
    bottom = np.where(right_bottom, d, c)
    lower = ~(top >= bottom) & (top == top)
    return np.where(lower, bottom, top), np.where(lower, right_bottom + 2, right_top)


def maxpool2d_backward(idx: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Route each output gradient back to its window's argmax position."""
    c, h2, w2 = grad_out.shape
    grad = np.zeros((c, 2 * h2, 2 * w2))
    # slot k of a window is the strided slice the forward pass reads as a, b, c, d
    for k, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        np.copyto(grad[:, i::2, j::2], grad_out, where=idx == k)
    return grad


# --- inverted dropout ---


def dropout_mask(rng: np.random.Generator, shape: tuple[int, ...], rate: float) -> np.ndarray:
    """Keep mask pre-scaled by 1/(1-rate), so inference needs no rescaling."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    return (rng.random(shape) >= rate) / (1.0 - rate)


# --- binary cross-entropy ---


def bce_loss(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean BCE over all elements plus the gradient w.r.t. the probabilities."""
    if probs.shape != labels.shape:
        raise ValueError(f"shape mismatch: probs {probs.shape} vs labels {labels.shape}")
    p = np.clip(probs, BCE_CLAMP, 1.0 - BCE_CLAMP)
    n = p.size
    loss = float(-np.sum(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)) / n)
    grad = (p - labels) / (p * (1.0 - p)) / n
    return loss, grad


def bce_grad_from_logits(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of mean BCE w.r.t. the pre-sigmoid logits: (p - y)/n."""
    return (probs - labels) / probs.size


# --- Adam optimizer ---


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates per named parameter plus the step count."""

    m: Params
    v: Params
    t: int = 0
    lr: float = 1e-3
    scratch: Params = field(default_factory=dict, repr=False)  # update work buffers


def adam_init(params: Params, lr: float = 1e-3) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
        lr=lr,
    )


def adam_step(params: Params, grads: Params, state: AdamState) -> Params:
    """One bias-corrected Adam update, applied in place; returns params.

    theta -= lr * m_hat / (sqrt(v_hat) + eps) with m_hat = m/(1-b1^t),
    v_hat = v/(1-b2^t); computed allocation-free via per-tensor scratch.
    """
    if set(params) != set(grads):
        raise ValueError(f"param/grad keys differ: {sorted(set(params) ^ set(grads))}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1**state.t
    bias2 = 1.0 - b2**state.t
    for key, p in params.items():
        g = grads[key]
        if g.shape != p.shape:
            raise ValueError(f"{key}: grad shape {g.shape} != param shape {p.shape}")
        m = state.m[key]
        v = state.v[key]
        scratch = state.scratch.get(key)
        if scratch is None:
            scratch = state.scratch[key] = np.empty_like(p)
        m *= b1
        np.multiply(g, 1.0 - b1, out=scratch)
        m += scratch
        v *= b2
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - b2
        v += scratch
        # denominator sqrt(v_hat) + eps, then the bias-corrected step
        np.divide(v, bias2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPS
        np.divide(m, scratch, out=scratch)
        scratch *= state.lr / bias1
        p -= scratch
    return params


# --- gradient checking ---


def grad_check(loss_and_grads, params: Params, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_and_grads(params) must return (scalar loss, grads dict) and be
    deterministic (dropout disabled). The relative error per coordinate is
    |g_a - g_fd| / max(1e-8, |g_a| + |g_fd|).
    """
    _, analytic = loss_and_grads(params)
    worst = 0.0
    for key, p in params.items():
        ga = analytic[key]
        if ga.shape != p.shape:
            raise ValueError(f"{key}: analytic grad shape {ga.shape} != param {p.shape}")
        flat = p.reshape(-1)
        ga_flat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            loss_plus, _ = loss_and_grads(params)
            flat[i] = orig - h
            loss_minus, _ = loss_and_grads(params)
            flat[i] = orig
            fd = (loss_plus - loss_minus) / (2.0 * h)
            if not (np.isfinite(fd) and np.isfinite(ga_flat[i])):
                raise ValueError(f"non-finite gradient at {key}[{i}]")
            err = abs(ga_flat[i] - fd) / max(1e-8, abs(ga_flat[i]) + abs(fd))
            worst = max(worst, err)
    return worst


# --- initialization ---


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)
