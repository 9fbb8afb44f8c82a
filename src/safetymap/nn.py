"""From-scratch differentiable building blocks on float64 numpy arrays:
dense, 2-D convolution, max pooling, activations, inverted dropout, binary
cross-entropy, and Adam.

All backward passes are hand-derived; no autodiff anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

Params = dict[str, np.ndarray]
# A dense weight's gradient as its factor pair (grad_out, x), meaning grad_out.T @ x
DenseGrad = tuple[np.ndarray, np.ndarray]
Grads = dict[str, np.ndarray | DenseGrad]

BCE_CLAMP = 1e-12


# --- activations ---


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(0, x), into out if given (out=x rectifies in place). The operand
    order of np.maximum(0.0, x) is kept: it decides which zero comes out
    for x = -0.0 and which NaN for a NaN x."""
    return np.maximum(0.0, x, out=out)


def relu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of relu w.r.t. its input (0 at the kink), given that input z
    or the output relu(z): max(0, z) > 0 holds exactly when z > 0 does, for
    every float64 z, signed zeros, NaNs and infinities included. So a caller
    may rectify in place and keep only the output."""
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
    """y = x @ W.T + b for input rows x (N, in), W (out, in) and b (out,)."""
    return x @ weights.T + bias


def dense_backward(
    x: np.ndarray, weights: np.ndarray, grad_out: np.ndarray, grad_bias: np.ndarray
) -> tuple[np.ndarray, DenseGrad]:
    """Given the upstream gradient on the (N, out) output, write d_b, summed
    over the N rows, into grad_bias; returns d_x and d_W. d_W is the factor
    pair (grad_out, x), meaning grad_out.T @ x, which adam_step forms a block
    of rows at a time, so no whole weight gradient is ever stored."""
    np.sum(grad_out, axis=0, out=grad_bias)
    return grad_out @ weights, (grad_out, x)


# --- 2-D convolution (cross-correlation with zero padding) ---


def _conv_output_extent(extent: int, k: int, padding: int) -> int:
    """A stride-1 output extent; the padded input is at least k (see cnn_load)."""
    return extent + 2 * padding - k + 1


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
    """Convolve a C x H x W input with K kernels (K, C, kh, kw) and bias (K,), stride 1."""
    k, _, kh, kw = kernels.shape
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
    first, then the two winners against each other. Both of x's extents
    are even (see cnn_load).
    """
    c, h, w = x.shape
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
    """Keep mask pre-scaled by 1/(1-rate) for rate in [0, 1), so inference needs no rescaling."""
    return (rng.random(shape) >= rate) / (1.0 - rate)


# --- binary cross-entropy ---


def bce_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean BCE over all elements of same-shape arrays, probs clamped away from 0 and 1."""
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

# Elements per row block in which adam_step forms a dense weight's gradient
# from its factor pair. Each block's GEMM reads all of x again, so small
# blocks cost time: a step on a 250 x 16384 weight at batch 32 took 47-48 ms
# with the whole gradient formed first, and 44-46, 46-48, 50-52, 58-59 and
# 80-84 ms in blocks of 2^19 down to 2^15 elements (32 down to 2 rows; one
# thread of a 2-vCPU Haswell host). pixel-cnn's train-cnn peaked at
# 174.4-174.6, 174.6-175.1 and 177.3-177.6 MB at 2^17, 2^18 and 2^19.
ADAM_BLOCK = 1 << 18


@dataclass
class AdamState:
    """First/second moment estimates per named parameter plus the step count."""

    m: Params
    v: Params
    lr: float
    t: int = 0
    # work buffer for one tile of any tensor
    scratch: np.ndarray = field(default_factory=lambda: np.empty(ADAM_TILE), repr=False)
    # one row block of a dense weight's gradient, grown to the largest block
    block: np.ndarray = field(default_factory=lambda: np.empty(0), repr=False)


def adam_init(params: Params, lr: float) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
        lr=lr,
    )


def _row_blocks(rows: int, cols: int) -> list[slice]:
    """Consecutive row ranges of a (rows, cols) weight, each of
    max(2, ADAM_BLOCK // cols) rows, a one-row remainder joining the block
    before it. No block but a one-row weight's has one row: a one-row
    product takes a BLAS matrix-vector path whose last bits differ from
    those of the same row in the whole product."""
    size = max(2, ADAM_BLOCK // cols)
    starts = list(range(0, rows, size))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], rows])]


def _adam_tiles(
    p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, state: AdamState,
    bias1: float, bias2: float,
) -> None:
    """The Adam update of one C-contiguous tensor or row block from its
    gradient g, in tiles of ADAM_TILE elements through state.scratch."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    p_flat, g_flat, m_flat, v_flat = p.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)
    for start in range(0, p.size, ADAM_TILE):
        tile = slice(start, start + ADAM_TILE)
        p_t, g_t, m_t, v_t = p_flat[tile], g_flat[tile], m_flat[tile], v_flat[tile]
        scratch = state.scratch[: len(p_t)]
        m_t *= b1
        np.multiply(g_t, 1.0 - b1, out=scratch)
        m_t += scratch
        v_t *= b2
        np.multiply(g_t, g_t, out=scratch)
        scratch *= 1.0 - b2
        v_t += scratch
        # denominator sqrt(v_hat) + eps, then the bias-corrected step
        np.divide(v_t, bias2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPS
        np.divide(m_t, scratch, out=scratch)
        scratch *= state.lr / bias1
        p_t -= scratch


def adam_step(params: Params, grads: Grads, state: AdamState) -> Params:
    """One bias-corrected Adam update, applied in place; returns params.

    theta -= lr * m_hat / (sqrt(v_hat) + eps) with m_hat = m/(1-b1^t),
    v_hat = v/(1-b2^t). The update is elementwise, so it runs over each
    tensor's flat view in tiles of ADAM_TILE elements through the state's
    one tile-sized scratch; every element gets the same operations in the
    same order as a whole-tensor update, so the same bits.

    A gradient is an array of its parameter's shape or, for a dense weight,
    the factor pair (grad_out, x) of grad_out.T @ x (see dense_backward).
    A pair's gradient is formed a block of whole rows at a time (see
    _row_blocks) into the state's one block buffer, and each block is
    updated before the next is formed: the same bits as the whole product,
    without storing it.
    """
    if set(params) != set(grads):
        raise ValueError(f"param/grad keys differ: {sorted(set(params) ^ set(grads))}")
    state.t += 1
    bias1 = 1.0 - ADAM_BETA1**state.t
    bias2 = 1.0 - ADAM_BETA2**state.t
    for key, p in params.items():
        g, m, v = grads[key], state.m[key], state.v[key]
        pair = isinstance(g, tuple)
        shape = (g[0].shape[1], g[1].shape[1]) if pair else g.shape
        if shape != p.shape:
            raise ValueError(f"{key}: grad shape {shape} != param shape {p.shape}")
        if not p.flags.c_contiguous:  # reshape would copy, and the update would be lost
            raise ValueError(f"{key}: parameter array is not C-contiguous")
        if not pair:
            _adam_tiles(p, g, m, v, state, bias1, bias2)
            continue
        grad_out, x = g
        for rows in _row_blocks(*p.shape):
            size = (rows.stop - rows.start) * p.shape[1]
            if state.block.size < size:
                state.block = np.empty(size)
            block = state.block[:size].reshape(-1, p.shape[1])
            np.matmul(grad_out[:, rows].T, x, out=block)
            _adam_tiles(p[rows], block, m[rows], v[rows], state, bias1, bias2)
    return params


# --- initialization ---


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)
