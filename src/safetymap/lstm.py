"""Sequence classification over corridors of image features: an LSTM cell
with forget/input/output gates and tanh candidate, the hidden -> dropout ->
dense-50 -> ReLU -> sigmoid head, backpropagation-through-time training,
shared and separate multi-label modes, and overlapping-window prediction.

Gate parameters follow the W/U/b naming, with W multiplying the previous
hidden state and U the step input. The source of truth is
`SequenceModel.params`, packed along a leading group axis G (1 in shared
mode, one stack per class in separate mode): `wp` (G, 4H, H), `up`
(G, 4H, d) and `bp` (G, 4H) stack the gates f, i, o, u, then come the head's
`mid.w`, `mid.b`, `out.w`, `out.b`. Those 7 tensors are the whole model,
in memory and in its container.

One kernel, `packed_forward` and its BPTT `packed_backward`, steps all G
groups over (G, B windows, T steps) together, in training and prediction.
The kernel takes projected inputs: `_project` forms U x + b for every
feature row as one GEMM per group, outside the recurrence. Training projects
its windows' rows; prediction projects each chunk's consecutive rows once
and steps a window view of that projection, so a feature row is projected
once per chunk it falls in, not once per window containing it. It then runs
the head over slices of `HEAD_SLICE` windows, so a chunk holds its hidden
states and one slice's head activations, not head activations for the whole
chunk.

Training and prediction take a corridor as its records (keys, labels)
next to the (n, d) feature array its loader returns, row i belonging to
records[i]. A window is its start index into the records; both read windows
through `_window_view`, a strided (n - T + 1, T, k) view of the corridor's
(n, k) feature or label array.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import CLASS_NAMES, fork, nn
from .data import ImageRecord, _runs
from .modelio import check_shapes, load_tensors, meta_float, meta_int, save_tensors

log = logging.getLogger(__name__)

# --- the packed kernel: G groups x B windows x T steps ---


class Forward(NamedTuple):
    """Time-major activations: squashed gates Z (T, 4, G, B, H), gate-major
    so that each step's gates are contiguous; cells C, TC = tanh(C) and
    hidden states H (T, G, B, H). Without the BPTT cache, Z, C and TC hold
    only the last step."""

    Z: np.ndarray
    C: np.ndarray
    TC: np.ndarray
    H: np.ndarray


def _project(params: nn.Params, xs: np.ndarray) -> np.ndarray:
    """Input projections U x + b of every row of xs (G, ..., d): one GEMM per
    group over all rows, giving (G, ..., 4H) in the row layout of up."""
    rows = xs.reshape(len(xs), -1, xs.shape[-1])
    ux = rows @ params["up"].transpose(0, 2, 1)
    ux += params["bp"][:, None]
    return ux.reshape(xs.shape[:-1] + ux.shape[-1:])


def packed_forward(params: nn.Params, ux: np.ndarray, cache: bool = True) -> Forward:
    """Run every group's cell over projected windows ux (G, B, T, 4H), as
    from `_project`, from a zero state.

    ux may be a strided view: splitting its contiguous last axis into the
    four gates is a view too, so the kernel copies no input. Each step makes
    one batched matmul and writes into preallocated buffers only. The plain
    logistic 1/(1+exp(-z)) is safe under errstate, since an overflowing exp
    saturates to the right limit.
    """
    groups, batch, steps, _ = ux.shape
    hidden = params["wp"].shape[2]
    ux = ux.reshape(groups, batch, steps, 4, hidden).transpose(2, 3, 0, 1, 4)
    wp_t = params["wp"].transpose(0, 2, 1)
    kept = steps if cache else 1
    Z = np.empty((kept, 4, groups, batch, hidden))
    C = np.empty((kept, groups, batch, hidden))
    TC = np.empty_like(C)
    H = np.empty((steps, groups, batch, hidden))
    z_rows = np.empty((groups, batch, 4 * hidden))
    z_gates = z_rows.reshape(groups, batch, 4, hidden).transpose(2, 0, 1, 3)
    tmp = np.empty((groups, batch, hidden))
    h = c = np.zeros((groups, batch, hidden))
    with np.errstate(over="ignore"):
        for t in range(steps):
            s = t if cache else 0
            np.matmul(h, wp_t, out=z_rows)
            f, i, o, u = z = Z[s]
            np.add(z_gates, ux[t], out=z)
            sig = z[:3]
            np.negative(sig, out=sig)
            np.exp(sig, out=sig)
            sig += 1.0
            np.reciprocal(sig, out=sig)
            np.tanh(u, out=u)
            np.multiply(f, c, out=C[s])
            np.multiply(i, u, out=tmp)
            c = C[s]
            c += tmp
            np.tanh(c, out=TC[s])
            h = H[t]
            np.multiply(o, TC[s], out=h)
    return Forward(Z, C, TC, H)


def packed_backward(
    params: nn.Params, xs: np.ndarray, fw: Forward, grad_h: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BPTT through a cached packed_forward, given dL/dH (T, G, B, H).

    Returns the packed (wp, up, bp) gradients, summed over the windows. The
    factors that do not depend on the running gradients are computed for
    all steps at once, in the row layout of wp; the loop writes into
    preallocated buffers only.
    """
    Z, C, TC, H = fw
    F, I, O, U = Z.transpose(1, 0, 2, 3, 4)
    steps, groups, batch, hidden = H.shape
    zero = np.zeros((1, groups, batch, hidden))
    # per gate f, i, o, u: dz = (dc, dc, dh, dc) * partner * slope, written
    # over partner, which each step reads before it writes
    dZ = np.stack([np.concatenate([zero, C[:-1]]), U, TC, I], axis=3)
    slope = np.empty_like(dZ)
    slope_gates = slope.transpose(0, 3, 1, 2, 4)
    np.subtract(1.0, Z, out=slope_gates)
    slope_gates *= Z
    np.multiply(U, U, out=slope_gates[:, 3])
    np.subtract(1.0, slope_gates[:, 3], out=slope_gates[:, 3])
    tanh_slope = 1.0 - TC * TC
    grad_h = np.ascontiguousarray(grad_h)
    dh = np.zeros((groups, batch, hidden))
    dc = np.empty_like(dh)
    dc_next = np.zeros_like(dh)
    tmp = np.empty_like(dh)
    dz_rows = dZ.reshape(steps, groups, batch, 4 * hidden)
    for t in range(steps - 1, -1, -1):
        dh += grad_h[t]
        np.multiply(dh, O[t], out=tmp)
        tmp *= tanh_slope[t]
        np.add(tmp, dc_next, out=dc)
        dz = dZ[t]
        np.multiply(dc[..., None, :], dz, out=dz)
        np.multiply(dh, TC[t], out=dz[..., 2, :])
        dz *= slope[t]
        np.matmul(dz_rows[t], params["wp"], out=dh)
        np.multiply(dc, F[t], out=dc_next)
    h_prev = np.concatenate([zero, H[:-1]])
    dz = _steps(dz_rows.transpose(1, 2, 0, 3))
    dz_t = dz.transpose(0, 2, 1)
    return dz_t @ _steps(h_prev.transpose(1, 2, 0, 3)), dz_t @ _steps(xs), dz.sum(axis=1)


def _steps(a: np.ndarray) -> np.ndarray:
    """(G, B, T, n) -> (G, B*T, n): the window steps of each group as rows."""
    return a.reshape(a.shape[0], -1, a.shape[-1])


def _head_forward(
    params: nn.Params, hs: np.ndarray, masks: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dropout -> dense -> ReLU -> dense -> sigmoid over hidden states (G, B, T, H).

    Returns the dropped-out states, the mid layer's activations and the
    probabilities. The mid layer takes its bias and ReLU in place, so it
    allocates one (G, B, T, mid) array; its ReLU mask is read back from the
    activations (see `nn.relu_grad`)."""
    d = hs * masks if masks is not None else hs
    a_mid = d @ params["mid.w"].transpose(0, 2, 1)[:, None]
    a_mid += params["mid.b"][:, None, None]
    nn.relu(a_mid, out=a_mid)
    z_out = a_mid @ params["out.w"].transpose(0, 2, 1)[:, None] + params["out.b"][:, None, None]
    return d, a_mid, nn.sigmoid(z_out)


def packed_loss_and_grads(
    params: nn.Params, xs: np.ndarray, labels: np.ndarray, masks: np.ndarray | None = None
) -> tuple[np.ndarray, nn.Params]:
    """Each group's mean BCE over its windows, with all parameter gradients.

    xs is (G, B, T, d), labels (G, B, T, o) and masks, the head's dropout
    keep masks, (G, B, T, H). Returns the (G,) losses and gradients keyed
    like params; group k's loss depends on group k's slices only.
    """
    fw = packed_forward(params, _project(params, xs))
    d, a_mid, probs = _head_forward(params, fw.H.transpose(1, 2, 0, 3), masks)
    losses = np.empty(len(probs))
    dz_out = np.empty_like(probs)
    for k, (p, y) in enumerate(zip(probs, labels)):
        losses[k] = nn.bce_loss(p, y)
        dz_out[k] = nn.bce_grad_from_logits(p, y)
    grads: nn.Params = {
        "out.w": _steps(dz_out).transpose(0, 2, 1) @ _steps(a_mid),
        "out.b": _steps(dz_out).sum(axis=1),
    }
    dz_mid = (dz_out @ params["out.w"][:, None]) * nn.relu_grad(a_mid)
    grads["mid.w"] = _steps(dz_mid).transpose(0, 2, 1) @ _steps(d)
    grads["mid.b"] = _steps(dz_mid).sum(axis=1)
    grad_h = dz_mid @ params["mid.w"][:, None]
    if masks is not None:
        grad_h *= masks
    grads["wp"], grads["up"], grads["bp"] = packed_backward(
        params, xs, fw, grad_h.transpose(2, 0, 1, 3)
    )
    return losses, grads


# --- the model: one stack per group, packed along the group axis ---


@dataclass
class SequenceModel:
    """Multi-label sequence classifier in shared (one 3-output stack) or
    separate (three 1-output stacks keyed by class) mode."""

    mode: str  # "shared" | "separate"
    hidden: int
    input_dim: int
    mid_dim: int
    dropout_rate: float
    params: nn.Params  # packed tensors, leading group axis
    window: int | None = None  # the window bptt_train last trained at


def _param_shapes(
    mode: str, input_dim: int, hidden: int, mid_dim: int
) -> dict[str, tuple[int, ...]]:
    """Every packed tensor's shape, group axis first: one 3-output group in
    shared mode, one 1-output group per class in CLASS_NAMES order otherwise."""
    if mode not in ("shared", "separate"):
        raise ValueError(f"mode must be 'shared' or 'separate', got {mode!r}")
    groups, out_dim = (1, len(CLASS_NAMES)) if mode == "shared" else (len(CLASS_NAMES), 1)
    return {
        "wp": (groups, 4 * hidden, hidden),
        "up": (groups, 4 * hidden, input_dim),
        "bp": (groups, 4 * hidden),
        "mid.w": (groups, mid_dim, hidden),
        "mid.b": (groups, mid_dim),
        "out.w": (groups, out_dim, mid_dim),
        "out.b": (groups, out_dim),
    }


def init_sequence_model(
    mode: str, input_dim: int, hidden: int, mid_dim: int, dropout_rate: float, seed: int
) -> SequenceModel:
    """Glorot-uniform weights, zero biases except forget-gate bias 1.0. Each
    group draws from its own seed stream: per gate f, i, o, u its W then its
    U, then the head's mid.w and out.w. A weight (out, in) has fan-in in."""
    shapes = _param_shapes(mode, input_dim, hidden, mid_dim)
    params = {key: np.zeros(shape) for key, shape in shapes.items()}
    params["bp"][:, :hidden] = 1.0  # the forget gate's rows
    gate_rows = [slice(j * hidden, (j + 1) * hidden) for j in range(4)]
    for k in range(len(params["wp"])):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        weights = [params[key][k, rows] for rows in gate_rows for key in ("wp", "up")]
        for w in weights + [params["mid.w"][k], params["out.w"][k]]:
            w[...] = nn.glorot_uniform(rng, w.shape, w.shape[1], w.shape[0])
    return SequenceModel(mode, hidden, input_dim, mid_dim, dropout_rate, params)


def _window_view(a: np.ndarray, window: int, axis: int = 0) -> np.ndarray:
    """Every window of `window` consecutive entries of a along axis: a strided
    view with that axis, of length n, replaced by (n - window + 1, window);
    (n, k) -> (n - window + 1, window, k) at axis 0, entry s being the window
    starting at s."""
    view = np.lib.stride_tricks.sliding_window_view(a, window, axis=axis)
    return np.moveaxis(view, -1, axis + 1)


def _windows(
    mode: str, records: Sequence[ImageRecord], features: np.ndarray, window: int
) -> tuple[np.ndarray, ...]:
    """Window views of the corridor: features (M, T, d) and each group's targets
    (G, M, T, o), all three columns in shared mode, column k for class k otherwise."""
    labels = _window_view(np.array([r.labels for r in records], dtype=np.float64), window)
    targets = labels[None] if mode == "shared" else np.moveaxis(labels, -1, 0)[..., None]
    return _window_view(features, window), targets


def _fit(
    params: nn.Params,
    windows: np.ndarray,
    targets: np.ndarray,
    starts: np.ndarray,
    rngs: Sequence[np.random.Generator],
    dropout_rate: float,
    *,
    lr: float,
    epochs: int,
    state: nn.AdamState | None = None,
    history: np.ndarray | None = None,
    orders: np.ndarray | None = None,
    stop: Callable[[], bool] | None = None,
) -> int:
    """Adam on packed params, each step taking one window per group; returns
    the step it stopped at, epochs * len(starts) when done.

    The training windows are windows[starts]; group k trains on targets[k]
    and draws its shuffle order and dropout masks from rngs[k], in the order
    that training it alone would; history (epochs, G) receives each epoch's
    per-group mean losses. Resumable at each step boundary, where stop() is
    asked: state.t counts the steps taken, history holds their loss sums and
    orders (len(starts), G) this epoch's windows. Sliced on the group axis,
    these, params and rngs resume those groups as the whole would.
    """
    groups = np.arange(len(rngs))
    n = len(starts)
    batch = np.empty((len(rngs), 1) + windows.shape[1:])  # one window per group
    mask_shape = (1, windows.shape[1], params["wp"].shape[2])
    state = nn.adam_init(params, lr) if state is None else state
    history = np.zeros((epochs, len(rngs))) if history is None else history
    orders = np.empty((n, len(rngs)), starts.dtype) if orders is None else orders
    for step in range(state.t, epochs * n):
        if stop is not None and stop():
            return step
        epoch, i = divmod(step, n)
        if i == 0:
            orders[...] = starts[np.stack([rng.permutation(n) for rng in rngs], axis=1)]
        masks = None
        if dropout_rate > 0.0:
            masks = np.stack([nn.dropout_mask(rng, mask_shape, dropout_rate) for rng in rngs])
        # fancy indexing gathers just these windows; np.take would copy the whole view
        batch[:, 0] = windows[orders[i]]
        losses, grads = packed_loss_and_grads(params, batch, targets[groups, orders[i], None], masks)
        history[epoch] += losses
        nn.adam_step(params, grads, state)
        if i == n - 1:
            history[epoch] /= n
    return epochs * n


def bptt_train(
    model: SequenceModel,
    records: Sequence[ImageRecord],
    features: np.ndarray,
    starts: np.ndarray,
    window: int,
    *,
    lr: float,
    epochs: int,
    seed: int,
    workers: int = 1,
) -> list[float]:
    """Train with full backpropagation-through-time on the windows of the
    given length starting at `starts` (one or more indices into records and
    features, as from `data.build_sequences`), one Adam update per window,
    shuffling per epoch with the seeded RNG; in place, recording the window
    in model.window. Returns each epoch's mean training loss.

    Separate mode steps the three class stacks together but keeps them
    independent: each trains on its own label column with its own RNG
    stream split from the master seed, and ends where training it alone
    would. The history averages the groups' losses.

    `workers` is at least 1. With more, the groups are split into
    min(G, workers) contiguous parts, trained at once in memory all share:
    part 0 here, each other part in a forked worker. A worker that is done
    while this process steps 2+ groups is handed the last of them at the
    next step boundary. Each group still ends where training it alone
    would, so no bit changes. Shared mode has one group and never forks.
    Call with `workers` > 1 only while this process runs no other thread.
    """
    params = model.params
    groups = len(params["wp"])
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, k])) for k in range(groups)]
    model.window = window
    windows, targets = _windows(model.mode, records, features, window)
    split = [p.tolist() for p in np.array_split(np.arange(groups), min(groups, workers))]
    parts = [slice(p[0], p[-1] + 1) for p in split]
    if groups > 1:
        log.info("%s model: groups %s", model.mode, fork.plan([str(p) for p in split]))
    for key, value in params.items() if len(parts) > 1 else ():  # each process trains in place
        params[key] = fork.shared(value.shape)
        params[key][...] = value
    moments = [{key: fork.shared(value.shape) for key, value in params.items()} for _ in "mv"]
    history, orders = fork.shared((epochs, groups)), fork.shared((len(starts), groups), int)
    steps = epochs * len(starts)

    def fit(part: slice, step: int, own_rngs: list, stop: Callable | None = None) -> int:
        # slices of the leading axis are contiguous views, trained in place
        own, m, v = ({key: value[part] for key, value in d.items()} for d in (params, *moments))
        return _fit(
            own, windows, targets[part], starts, own_rngs, model.dropout_rate, lr=lr,
            epochs=epochs, state=nn.AdamState(m, v, lr, step), history=history[:, part],
            orders=orders[:, part], stop=stop,
        )

    with fork.workers(lambda message: fit(*message), len(parts) - 1) as pool:
        for worker, part in zip(pool, parts[1:]):
            worker.send((part, 0, rngs[part]))
        part, step, idle = parts[0], 0, None

        def handoff() -> bool:  # whether a worker is idle while this process steps 2+ groups
            nonlocal idle
            idle = part.stop - part.start > 1 and next((w for w in pool if w.ready()), None)
            return bool(idle)

        while (step := fit(part, step, rngs[part], handoff if pool else None)) < steps:
            idle.receive()
            part = slice(part.start, part.stop - 1)
            log.info("%s model: group %d moved to 1 worker at step %d of %d",
                     model.mode, part.stop, step, steps)
            idle.send((slice(part.stop, part.stop + 1), step, rngs[part.stop : part.stop + 1]))
        for worker in pool:
            worker.receive()
    return [float(np.mean(row)) for row in history]


# Windows per call of the head in predict_corridor. A chunk's hidden states
# are its one chunk-sized array; the head's (G, slice, T, mid) activations stay
# a fraction of them. numpy's stacked matmul runs one GEMM per (group, window),
# so the slice changes no product and no bit. At 400 images, hidden 100, mid 50
# and window 50, predict_corridor's traced peak read 1.41x one chunk's hidden
# states in shared mode and 1.44x in separate mode at slices of 4 to 16
# windows, 1.42x / 1.60x at 32 and 1.79x / 1.74x over whole chunks; its time
# did not move beyond noise (2-vCPU host, one BLAS thread).
HEAD_SLICE = 16


def predict_corridor(
    model: SequenceModel,
    records: Sequence[ImageRecord],
    features: np.ndarray,
    window: int,
    threshold: float,
    *,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-image class probabilities and labels over the contiguous runs of
    records, features[i] being the vector of records[i].

    Each image's probability is the mean of its per-step probability over
    every stride-1 window containing it, summed in window start order; a
    run shorter than the window is one window of its own length. The label
    rule is strictly-above-threshold. Each chunk of windows projects its
    feature rows once, steps a window view of that projection, and runs the
    head over slices of HEAD_SLICE windows of its hidden states.

    With `workers` > 1 the chunks, in image order, run in at most that many
    contiguous parts at once, the first here and each other one in a forked
    child (see `fork.split`). A part returns the sums of the images it is
    first to touch, and the window probabilities of its chunks that reach an
    earlier part's, added after that part's sums: no bit changes. Fork only
    while this process runs no other thread.
    """
    params = model.params
    groups = len(params["wp"])
    probs = np.zeros((len(records), len(CLASS_NAMES)))
    counts = np.empty((len(records), 1))  # windows per image
    size = 128 // groups  # bounds a chunk's working set at 128 group-windows
    chunks = []  # (lo, hi, w): the windows of w steps over images lo..hi-1
    for start, end in _runs(records):
        n = end - start
        w = min(window, n)
        pos = np.arange(n)
        counts[start:end, 0] = np.minimum(np.minimum(pos + 1, n - pos), min(w, n - w + 1))
        chunks += [(lo, min(lo + size + w - 1, end), w) for lo in range(start, end - w + 1, size)]
    count = max(1, min(workers, len(chunks)))
    cuts = [len(chunks) * k // count for k in range(count + 1)]
    parts = [chunks[a:b] for a, b in zip(cuts, cuts[1:])]
    log.info("%d chunks: %s", len(chunks), fork.plan([str(len(part)) for part in parts]))
    # part k is the first to touch images bounds[k] .. bounds[k + 1] - 1
    bounds = [0] + [part[-1][1] for part in parts[:-1]] + [len(records)]

    def run(k: int) -> tuple[list[np.ndarray], np.ndarray]:
        leading = []
        for lo, hi, w in parts[k]:
            rows = features[lo:hi]
            ux = _project(params, np.broadcast_to(rows, (groups,) + rows.shape))
            hs = packed_forward(params, _window_view(ux, w, axis=1), cache=False).H
            hs = hs.transpose(1, 2, 0, 3)  # (G, B, T, H)
            # (B, T, 3): the shared stack's columns, or class k's stack as column k
            window_probs = np.empty(hs.shape[1:3] + (len(CLASS_NAMES),))
            for a in range(0, len(window_probs), HEAD_SLICE):
                part = slice(a, a + HEAD_SLICE)
                sliced = _head_forward(params, hs[:, part], None)[2]  # (G, b, T, o)
                window_probs[part] = np.concatenate(sliced, axis=-1)
            del hs  # else the (T, G, B, H) hidden states stay resident through the next chunk
            _add_windows(probs[lo:hi], window_probs)
            if lo < bounds[k]:
                leading.append(window_probs)
        return leading, probs[bounds[k] : bounds[k + 1]]

    for k, (leading, sums) in enumerate(fork.split(run, range(count))):
        for (lo, _, _), window_probs in zip(parts[k], leading):
            _add_windows(probs[lo : bounds[k]], window_probs)
        probs[bounds[k] : bounds[k + 1]] = sums
    probs /= counts
    return probs, probs > threshold


def _add_windows(sums: np.ndarray, window_probs: np.ndarray) -> None:
    """Add step t of window j of window_probs (B, T, 3) to sums[j + t], where
    sums has a row; taking t downwards adds each row's windows in start order."""
    for t in range(window_probs.shape[1] - 1, -1, -1):
        target = sums[t : t + len(window_probs)]
        target += window_probs[: len(target), t]


def seq_save(model: SequenceModel, path: str, seed: int | None = None) -> None:
    meta = {
        "kind": "sequence",
        "mode": model.mode,
        "hidden": model.hidden,
        "input_dim": model.input_dim,
        "mid_dim": model.mid_dim,
        "dropout_rate": model.dropout_rate,
        "window": model.window,
        "seed": seed,
    }
    save_tensors(path, model.params, meta)


def seq_load(path: str) -> SequenceModel:
    """Read a model written by seq_save, checking its tensor set and every
    tensor shape against the mode and sizes its meta declares."""
    tensors, meta = load_tensors(path)
    if meta.get("kind") != "sequence":
        raise ValueError(f"{path}: not a sequence model (kind={meta.get('kind')!r})")
    try:
        model = SequenceModel(
            meta["mode"],
            hidden=meta_int("hidden", meta["hidden"]),
            input_dim=meta_int("input_dim", meta["input_dim"]),
            mid_dim=meta_int("mid_dim", meta["mid_dim"]),
            dropout_rate=meta_float("dropout_rate", meta["dropout_rate"]),
            params=tensors,
            # an untrained model is saved with no window
            window=None if meta["window"] is None else meta_int("window", meta["window"]),
        )
        if not (0.0 <= model.dropout_rate < 1.0):
            raise ValueError(f"dropout rate must be in [0, 1), got {model.dropout_rate}")
        want = _param_shapes(model.mode, model.input_dim, model.hidden, model.mid_dim)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: incomplete sequence-model meta: {exc!r}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: invalid sequence-model meta: {exc}") from exc
    check_shapes(path, tensors, want)
    return model
