"""From-scratch differentiable building blocks on float64 numpy arrays:
dense, 2-D convolution, max pooling, activations, inverted dropout, binary
cross-entropy, and Adam.

All backward passes are hand-derived; no autodiff anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

Params = dict[str, np.ndarray]

BCE_CLAMP = 1e-12


# --- activations ---


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(0, x), into out if given (out=x rectifies in place). The operand
    order of np.maximum(0.0, x) is kept: it decides which zero comes out
    for x = -0.0 and which NaN for a NaN x."""
    return np.maximum(0.0, x, out=out)


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
    out = kernels.reshape(k, -1) @ cols
    out += bias[:, None]
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
#
# Selections run as integer arithmetic on the float64 bits: a comparison or
# a bit op costs about a twentieth of a masked select (np.where) per element,
# and picking bits keeps each element's sign and NaN payload.


def _later_wins(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Where second beats first: it is greater, or only it is NaN."""
    wins = first >= second
    np.invert(wins, out=wins)
    wins &= first == first
    return wins


def _pick(wins: np.ndarray, first: np.ndarray, second: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = second where wins, else first, bit for bit; overwrites second."""
    f_bits, s_bits = first.view(np.uint64), second.view(np.uint64)
    np.bitwise_xor(s_bits, f_bits, out=s_bits)
    np.multiply(s_bits, wins, out=s_bits, dtype=np.uint64)  # the difference, or 0
    np.bitwise_xor(f_bits, s_bits, out=out.view(np.uint64))
    return out


def maxpool2d_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Channel-wise 2x2 window maxima; also returns the argmax index cache
    (uint8, 0..3 in row-major order within each window).

    The result is the element np.argmax picks, bit for bit: ties go to the
    first maximal element in row-major scan order (so of -0.0 and +0.0, the
    first), and a NaN counts as the maximum, the first NaN winning with its
    sign and payload. Each window's top pair and bottom pair are decided
    first, then the two winners against each other.
    """
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2d needs even extents, got {h}x{w}")
    # win[i, j] is window slot (i, j), x[:, i::2, j::2], as a float64 copy
    win = x.reshape(c, h // 2, 2, w // 2, 2).transpose(2, 4, 0, 1, 3).astype(np.float64, order="C")
    # left and right columns; the top and bottom pairs are decided together
    left, right = win[:, 0], win[:, 1]
    right_wins = _later_wins(left, right)
    pair = _pick(right_wins, left, right, out=left)
    lower = _later_wins(pair[0], pair[1])
    out = _pick(lower, pair[0], pair[1], out=np.empty((c, h // 2, w // 2)))
    # idx = 2 * lower + (right_wins[1] if lower else right_wins[0]), in uint8
    # arithmetic on lower's own array; a uint8 cache is an eighth of an int64 one
    idx, bits = lower.view(np.uint8), right_wins.view(np.uint8)
    bits[1] ^= bits[0]
    bits[1] &= idx
    bits[1] ^= bits[0]
    idx += idx  # 2 * lower; numpy's uint8 left shift is about ten times slower
    idx |= bits[1]
    return out, idx


# _SLOTS[i, j] is the cache value 2 * i + j of window slot (i, j)
_SLOTS = np.arange(4, dtype=np.uint8).reshape(2, 2, 1, 1, 1)


def maxpool2d_backward(idx: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Route each output gradient back to its window's argmax position.

    Every slot is written, as the gradient's bits times 1 at the argmax and
    times 0 elsewhere, so the other three slots of a window are +0.0 even
    where the gradient is inf or NaN, and the argmax keeps the gradient's
    exact bits (-0.0 and NaN payloads included).
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    c, h2, w2 = grad_out.shape
    grad = np.empty((c, 2 * h2, 2 * w2))
    slots = grad.view(np.uint64).reshape(c, h2, 2, w2, 2).transpose(2, 4, 0, 1, 3)
    np.multiply(grad_out.view(np.uint64), idx == _SLOTS, out=slots, dtype=np.uint64)
    return grad


# --- inverted dropout ---


def dropout_mask(rng: np.random.Generator, shape: tuple[int, ...], rate: float) -> np.ndarray:
    """Keep mask pre-scaled by 1/(1-rate), so inference needs no rescaling."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    return (rng.random(shape) >= rate) / (1.0 - rate)


# --- binary cross-entropy ---


def bce_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean BCE over all elements, probabilities clamped away from 0 and 1."""
    if probs.shape != labels.shape:
        raise ValueError(f"shape mismatch: probs {probs.shape} vs labels {labels.shape}")
    p = np.clip(probs, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return float(-np.sum(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)) / p.size)


def bce_grad_from_logits(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of mean BCE w.r.t. the pre-sigmoid logits: (p - y)/n."""
    return (probs - labels) / probs.size


# --- Adam optimizer ---


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# Elements per tile of adam_step: small enough that a tile of each of the
# five arrays an update touches (param, grad, m, v, scratch) stays in cache,
# large enough that the per-tile Python overhead is small next to the math.
# Of 2^13-2^17, 2^15 timed fastest on a 250 x 16384 weight (40 ms a step,
# against 75 ms untiled; one thread of a 2-vCPU Haswell host).
ADAM_TILE = 1 << 15


@dataclass
class AdamState:
    """First/second moment estimates per named parameter plus the step count."""

    m: Params
    v: Params
    lr: float
    t: int = 0
    # work buffer for one tile of any tensor
    scratch: np.ndarray = field(default_factory=lambda: np.empty(ADAM_TILE), repr=False)


def adam_init(params: Params, lr: float) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
        lr=lr,
    )


def adam_step(params: Params, grads: Params, state: AdamState) -> Params:
    """One bias-corrected Adam update, applied in place; returns params.

    theta -= lr * m_hat / (sqrt(v_hat) + eps) with m_hat = m/(1-b1^t),
    v_hat = v/(1-b2^t). The update is elementwise, so it runs over each
    tensor's flat view in tiles of ADAM_TILE elements through the state's
    one tile-sized scratch, allocating nothing; every element gets the same
    operations in the same order as a whole-tensor update, so the same bits.
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
        if not p.flags.c_contiguous:  # reshape would copy, and the update would be lost
            raise ValueError(f"{key}: parameter array is not C-contiguous")
        p_flat, g_flat = p.reshape(-1), g.reshape(-1)
        m_flat, v_flat = state.m[key].reshape(-1), state.v[key].reshape(-1)
        for start in range(0, p.size, ADAM_TILE):
            tile = slice(start, start + ADAM_TILE)
            p_t, g_t, m, v = p_flat[tile], g_flat[tile], m_flat[tile], v_flat[tile]
            scratch = state.scratch[: len(p_t)]
            m *= b1
            np.multiply(g_t, 1.0 - b1, out=scratch)
            m += scratch
            v *= b2
            np.multiply(g_t, g_t, out=scratch)
            scratch *= 1.0 - b2
            v += scratch
            # denominator sqrt(v_hat) + eps, then the bias-corrected step
            np.divide(v, bias2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += ADAM_EPS
            np.divide(m, scratch, out=scratch)
            scratch *= state.lr / bias1
            p_t -= scratch
    return params


# --- initialization ---


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)
