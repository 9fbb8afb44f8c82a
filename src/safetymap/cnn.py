"""Frame-level classification: a small from-scratch CNN over pixel grids
(conv/relu/pool stages, a ReLU feature head, a 3-way sigmoid class head).

Each image maps to a feature vector (post-ReLU, so nonnegative) and three
independent class probabilities. The feature vectors feed the sequence
model downstream; the class head over them, `frame_predict`, is the frame
baseline, each image classified alone. Training (one seeded mini-batch Adam
loop) and extraction take the records (labels and image_id order) next to
their pixels, item i the (H, W, 3) uint8 image of records[i], indexed by
each process when its batch runs (`data.load_pixels` reads the file then).
The conv stage divides each image by 255, in forward and again in backward.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import CLASS_NAMES, fork, nn
from .data import ImageRecord
from .modelio import check_shapes, load_tensors, meta_int, save_tensors

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CnnConfig:
    feature_dim: int
    input_shape: tuple[int, int, int] = (3, 32, 32)  # channels, height, width
    stage_channels: tuple[int, ...] = (8, 16)  # conv channels; each stage ends in 2x2 pool
    kernel_size: int = 3  # stride 1, zero padding preserving extent

    def flat_dim(self) -> int:
        """The last stage's pooled size; extents are multiples of 2**stages (cnn_load)."""
        _, h, w = self.input_shape
        cell = 2 ** len(self.stage_channels)
        return self.stage_channels[-1] * (h // cell) * (w // cell)


@dataclass
class CnnModel:
    config: CnnConfig
    params: nn.Params


def _param_shapes(config: CnnConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in the order init_cnn draws them."""
    k = config.kernel_size
    shapes: dict[str, tuple[int, ...]] = {}
    in_ch = config.input_shape[0]
    for s, out_ch in enumerate(config.stage_channels):
        shapes[f"conv{s}.k"] = (out_ch, in_ch, k, k)
        shapes[f"conv{s}.b"] = (out_ch,)
        in_ch = out_ch
    shapes["feat.w"] = (config.feature_dim, config.flat_dim())
    shapes["feat.b"] = (config.feature_dim,)
    shapes["cls.w"] = (len(CLASS_NAMES), config.feature_dim)
    shapes["cls.b"] = (len(CLASS_NAMES),)
    return shapes


def init_cnn(config: CnnConfig, seed: int) -> CnnModel:
    """Glorot-uniform kernels and dense weights, zero biases. A weight of
    shape (out, in, *kernel) has fan-in in * kernel and fan-out out * kernel."""
    rng = np.random.default_rng(seed)
    params: nn.Params = {}
    for name, shape in _param_shapes(config).items():
        if name.endswith(".b"):
            params[name] = np.zeros(shape)
        else:
            kernel = math.prod(shape[2:])
            params[name] = nn.glorot_uniform(rng, shape, shape[1] * kernel, shape[0] * kernel)
    return CnnModel(config=config, params=params)


def _floats(image: np.ndarray) -> np.ndarray:
    """The C x H x W float image, levels / 255, of an H x W x C uint8 image."""
    return (image / 255.0).transpose(2, 0, 1)


def _conv_forward(model: CnnModel, image: np.ndarray, out: np.ndarray) -> list:
    """The conv, ReLU and pool stages on one H x W x C uint8 image. The last
    stage's pooled output is written into out, the image's (flat,) row of the
    dense input. Returns, per stage, what the backward pass keeps (input, the
    uint8 image at stage 0; argmax cache; pooled output, the last one a view
    of out)."""
    pad = model.config.kernel_size // 2
    last = len(model.config.stage_channels) - 1
    stages = []
    x = image
    for s in range(last + 1):
        kernels, bias = model.params[f"conv{s}.k"], model.params[f"conv{s}.b"]
        z = nn.conv2d_forward(x if s else _floats(x), kernels, bias, pad)
        pooled, idx = nn.maxpool2d_forward(nn.relu(z, out=z))
        if s == last:
            row = out.reshape(pooled.shape)
            row[...] = pooled
            pooled = row
        stages.append((x, idx, pooled))
        x = pooled
    return stages


def _conv_backward(model: CnnModel, stages: list, grad: np.ndarray) -> nn.Params:
    """Backpropagate one image's flat pooled-output gradient through its
    stages; returns its kernel and bias gradients by name. The gradient on
    the image itself is never formed."""
    pad = model.config.kernel_size // 2
    grads = {}
    grad = grad.reshape(stages[-1][2].shape)
    for s in reversed(range(len(stages))):
        x, idx, pooled = stages[s]
        kernels = model.params[f"conv{s}.k"]
        x = x if s else _floats(x)
        # the ReLU passes gradient only where the pooled maximum is positive
        grad_z = nn.maxpool2d_backward(idx, grad * nn.relu_grad(pooled))
        grads[f"conv{s}.k"], grads[f"conv{s}.b"] = nn.conv2d_backward(x, kernels, grad_z, pad)
        if s > 0:
            grad = nn.conv2d_backward_input(kernels, grad_z, pad)
    return grads


# --- the class head: the CNN's last layer; over extracted features, the frame baseline ---


def frame_predict(params: nn.Params, features: np.ndarray) -> np.ndarray:
    """Class probabilities (n, 3) of the class head in params over (n,
    feature_dim) feature vectors."""
    return nn.sigmoid(nn.dense_forward(features, params["cls.w"], params["cls.b"]))


def _head_backward(
    params: nn.Params, features: np.ndarray, probs: np.ndarray, labels: np.ndarray,
    grads: nn.Grads,
) -> tuple[float, np.ndarray]:
    """Batch-mean BCE of probs = frame_predict(params, features) against
    labels; stores the cls.w gradient (a factor pair, see nn.dense_backward)
    and writes the cls.b gradient in grads, and returns the loss and the
    gradient on the features."""
    loss = nn.bce_loss(probs, labels)
    grad_z = nn.bce_grad_from_logits(probs, labels)  # sigmoid+BCE fused
    grad_features, grads["cls.w"] = nn.dense_backward(
        features, params["cls.w"], grad_z, grads["cls.b"]
    )
    return loss, grad_features


def _conv_rows(
    model: CnnModel, images: Sequence[np.ndarray], flat: np.ndarray, keep_stages: bool = True
) -> list:
    """Conv stages image by image, each writing its pooled output into its
    row of flat, the (N, flat_dim) input of the dense head, from row 0 on.
    Each image's stage records, which only the backward pass reads, are
    returned with keep_stages and otherwise dropped once its row is written."""
    c, h, w = model.config.input_shape
    stages = []
    for image, row in zip(images, flat):
        if image.shape != (h, w, c) or image.dtype != np.uint8:
            raise ValueError(f"image shape {image.shape} of {image.dtype} != uint8 {(h, w, c)}")
        record = _conv_forward(model, image, row)
        if keep_stages:
            stages.append(record)
    return stages


def cnn_forward(model: CnnModel, images: Sequence[np.ndarray]) -> np.ndarray:
    """Nonnegative feature vectors (N, feature_dim) for N H x W x C uint8
    images; no image's stage records outlive its conv stages. The class
    probabilities are frame_predict(model.params, features)."""
    flat = np.empty((len(images), model.config.flat_dim()))
    _conv_rows(model, images, flat, keep_stages=False)
    return nn.relu(nn.dense_forward(flat, model.params["feat.w"], model.params["feat.b"]))


def cnn_loss_and_grads(
    model: CnnModel, images: Sequence[np.ndarray], labels: np.ndarray, grads: nn.Grads,
    update: Callable[[nn.DenseGrad], None], buffers: np.ndarray,
    workers: Sequence[fork.Worker] = (),
) -> float:
    """Batch-mean BCE over the three outputs of the N images of labels (N,
    3). The batch-mean gradient of feat.w is passed to update as its factor
    pair (see nn.dense_backward), never formed, before the workers' conv
    gradients are awaited; cls.w's pair is stored in grads, and every other
    gradient is written into the array grads holds under its name. images
    are the batch's first H x W x C uint8 images, all N without workers.
    buffers, (2, N or more, flat_dim), receives the batch's dense input in
    buffers[0][:N] and its gradient in buffers[1][:N]; with workers they are
    shared memory (see cnn_train). Each of `workers`, sent the next
    contiguous slice (see cnn_train), writes its rows of the dense input
    and answers, and then, sent the gradient on feat.w's outputs, answers
    with each image's conv gradients, which are summed in image order from
    zero as this process's are."""
    flat, grad_flat = buffers[:, : len(labels)]
    stages = _conv_rows(model, images, flat)
    for worker in workers:
        worker.receive()
    feat_z = nn.dense_forward(flat, model.params["feat.w"], model.params["feat.b"])
    features = nn.relu(feat_z, out=feat_z)
    probs = frame_predict(model.params, features)
    loss, grad_feat = _head_backward(model.params, features, probs, labels, grads)
    grad_feat_z = grad_feat * nn.relu_grad(features)
    _, pair = nn.dense_backward(
        flat, model.params["feat.w"], grad_feat_z, grads["feat.b"], out=grad_flat
    )
    for worker in workers:
        worker.send(grad_feat_z)
    image_grads = [_conv_backward(model, st, g) for st, g in zip(stages, grad_flat)]
    update(pair)
    for worker in workers:
        image_grads += worker.receive()
    for key in image_grads[0]:
        grads[key].fill(0.0)
        for image in image_grads:
            grads[key] += image[key]
    return loss


def _train(
    params: nn.Params, n: int, step: Callable[[np.ndarray, nn.Grads], float], *,
    lr: float, batch_size: int, epochs: int, seed: int,
) -> list[float]:
    """Minimize mean BCE with Adam over seeded shuffled mini-batches of n >= 1
    examples (cmd_train_cnn checks), in place. step(batch, grads) stores the
    batch-mean gradient of every parameter of params for the example indices
    batch in grads (a dense weight's, named *.w, as its factor pair; every
    other one written into the array grads holds) and returns the batch's
    mean loss; a parameter that step updates itself, as cnn_train's feat.w,
    is left out of params. Returns each epoch's mean training loss."""
    rng = np.random.default_rng(seed)
    state = nn.adam_init(params, lr)
    # Every step writes its array gradients into these arrays, and adam_step
    # works through one tile-sized and one row-block-sized buffer, so no
    # (feature_dim, flat) gradient is ever stored. A buffer of that size
    # allocated and freed at each step would raise glibc's mmap threshold
    # (128 KB at start) to its size; every smaller allocation of a step would
    # then come from a heap whose resident size depends on the process's
    # allocation layout, and peak RSS would differ by tens of MB between
    # identical runs.
    grads: nn.Grads = {
        key: np.empty_like(p) for key, p in params.items() if not key.endswith(".w")
    }
    history = []
    for _ in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            epoch_loss += step(batch, grads) * len(batch)
            nn.adam_step(params, grads, state)
        history.append(epoch_loss / n)
    return history


def _feature_row_runs(shape: tuple[int, int], processes: int) -> list[slice]:
    """Each process's contiguous run of feat.w's row blocks (those of
    nn.adam_step), sized so that no process maps many more bytes than
    another. The command's process maps all R rows, as its dense layer
    reads them, plus the two moments of its own r0 rows; a worker maps its
    r rows and their moments. R + 2 r0 = 3 r for P processes gives r0 =
    R (4 - P) / (2 P + 1), at least 0, taken to the nearest block edge (the
    smaller of two as near); the other blocks are cut into P - 1 runs, the
    longer first. One process owns every row."""
    edges = [block.start for block in nn._row_blocks(*shape)] + [shape[0]]
    # |edge - r0| scaled by 2 P + 1, in integers; min keeps the first of a tie
    target, scale = max(0, shape[0] * (4 - processes)), 2 * processes + 1
    here = min(range(len(edges)), key=lambda i: abs(edges[i] * scale - target))
    rest = np.array_split(range(here, len(edges) - 1), processes - 1) if processes > 1 else []
    cuts = np.cumsum([0, here] + [len(run) for run in rest])
    return [slice(edges[a], edges[b]) for a, b in zip(cuts, cuts[1:])]


def cnn_train(
    model: CnnModel, records: Sequence[ImageRecord], pixels: Sequence[np.ndarray], *,
    lr: float, batch_size: int, epochs: int, seed: int, workers: int = 1,
) -> list[float]:
    """Train the CNN with _train, in place; pixels[i] is the (H, W, 3) uint8
    image of records[i], indexed by the process that runs its conv stages
    when its batch runs. Returns _train's history. feat.w and the batch
    buffers of cnn_loss_and_grads move to shared memory, and each process
    updates its own run of feat.w's rows (see _feature_row_runs) with Adam
    moments of those rows alone; _train updates the rest here.

    With `workers` above 1, each batch is split into min(workers,
    batch_size) contiguous slices, the first here and each other in a worker
    forked before training (see `fork`), sent its run of feat.w's rows once
    and at each step the conv parameters, its slice's indices into the
    pixels it inherited and its first row in the buffers, then the gradient
    on feat.w's outputs (see cnn_loss_and_grads); no array of the batch
    crosses a pipe but that gradient.
    """
    labels = np.array([r.labels for r in records], dtype=np.float64)
    # the private feat.w is freed before the fork, which would map its pages
    # into every worker
    shape = model.params["feat.w"].shape
    feat_w = fork.shared(shape)
    feat_w[...] = model.params["feat.w"]
    model.params["feat.w"] = feat_w
    batch_rows = min(batch_size, len(records))
    buffers = fork.shared((2, batch_rows, model.config.flat_dim()))
    flat, grad_flat = buffers
    stages: list = []
    mine = slice(0, 0)  # in a worker: its slice's rows in the buffers
    update = None  # this process's own(rows)

    def own(rows: slice) -> Callable[[nn.DenseGrad], None]:
        # Adam on feat_w[rows] from each step's pair, the moments allocated
        # here; the rows are whole blocks, each formed as on the whole weight
        shard = {"w": feat_w[rows]}
        state = nn.adam_init(shard, lr)
        return lambda pair: nn.adam_step(shard, {"w": (pair[0][:, rows], pair[1])}, state)

    def serve(message: slice | tuple | np.ndarray) -> list[nn.Params] | None:
        # in a worker: its run of feat.w's rows, then each step its slice's
        # conv stages forward, then its rows' update and the stages backward
        nonlocal update, mine
        if isinstance(message, slice):
            update = own(message)
        elif isinstance(message, np.ndarray):  # the gradient on feat.w's outputs
            update((message, flat[: len(message)]))
            return [_conv_backward(model, st, g) for st, g in zip(stages, grad_flat[mine])]
        else:
            conv, part, first = message
            model.params.update(conv)
            mine = slice(first, first + len(part))
            stages[:] = _conv_rows(model, [pixels[i] for i in part], flat[mine])
        return None

    processes = min(workers, batch_size)
    sizes = [str(len(p)) for p in np.array_split(range(batch_rows), processes)]
    log.info("images per batch of %d: %s", batch_size, fork.plan(sizes))
    runs = _feature_row_runs(shape, processes)
    log.info("feat.w rows: %s", fork.plan([f"{rows.start}-{rows.stop}" for rows in runs]))
    with fork.workers(serve, processes - 1) as pool:
        for worker, rows in zip(pool, runs[1:]):
            worker.send(rows)
        update = own(runs[0])
        for worker in pool:
            worker.receive()

        def step(batch: np.ndarray, grads: nn.Grads) -> float:
            parts = np.array_split(batch, processes)
            conv = {key: p for key, p in model.params.items() if key.startswith("conv")}
            first = len(parts[0])
            for worker, part in zip(pool, parts[1:]):
                worker.send((conv, part, first))
                first += len(part)
            images = [pixels[i] for i in parts[0]]
            return cnn_loss_and_grads(model, images, labels[batch], grads, update, buffers, pool)

        rest = {key: p for key, p in model.params.items() if key != "feat.w"}
        n = len(records)
        return _train(rest, n, step, lr=lr, batch_size=batch_size, epochs=epochs, seed=seed)


def extract_features(
    model: CnnModel, records: Sequence[ImageRecord], pixels: Sequence[np.ndarray],
    batch_size: int, *, workers: int = 1,
) -> np.ndarray:
    """The (n, feature_dim) CNN feature vectors of the (H, W, 3) uint8
    images pixels, row i for pixels[i] and records[i], batch_size images per
    forward call, each batch indexed by the process that runs it.
    Batches are cut from the records sorted by image_id, so a record's
    features do not depend on the input order (a GEMM row's last bits can
    depend on its position in the batch). With `workers` above 1, the
    batches are split into at most that many contiguous runs, the first here
    and each other in a forked child (see `fork.split`); no batch boundary
    moves, so the split changes no bit."""
    order = sorted(range(len(records)), key=lambda i: records[i].image_id)
    batches = [order[start : start + batch_size] for start in range(0, len(order), batch_size)]
    parts = np.array_split(range(len(batches)), max(1, min(workers, len(batches))))
    runs = [[batches[i] for i in part] for part in parts]
    log.info("batches of %d: %s", batch_size, fork.plan([str(len(run)) for run in runs]))

    def features(run: list[list[int]]) -> list[np.ndarray]:
        return [cnn_forward(model, [pixels[i] for i in batch]) for batch in run]

    out = np.empty((len(records), model.config.feature_dim))
    for run, rows in zip(runs, fork.split(features, runs)):
        for batch, row in zip(run, rows):
            out[batch] = row
    return out


def cnn_save(model: CnnModel, path: str, seed: int | None = None) -> None:
    meta = {
        "kind": "cnn",
        "input_shape": list(model.config.input_shape),
        "stage_channels": list(model.config.stage_channels),
        "kernel_size": model.config.kernel_size,
        "feature_dim": model.config.feature_dim,
        "seed": seed,
    }
    save_tensors(path, model.params, meta)


def cnn_load(path: str) -> CnnModel:
    """Read a model written by cnn_save, checking that the kernels run the
    architecture its meta declares and every tensor shape against it."""
    tensors, meta = load_tensors(path)
    if meta.get("kind") != "cnn":
        raise ValueError(f"{path}: not a cnn model (kind={meta.get('kind')!r})")
    try:
        config = CnnConfig(
            input_shape=tuple(meta_int("input_shape", d) for d in meta["input_shape"]),
            stage_channels=tuple(meta_int("stage_channels", c) for c in meta["stage_channels"]),
            kernel_size=meta_int("kernel_size", meta["kernel_size"]),
            feature_dim=meta_int("feature_dim", meta["feature_dim"]),
        )
        (c, h, w), k, stages = config.input_shape, config.kernel_size, config.stage_channels
        cell = 2 ** len(stages)  # each stage's 2x2 pool halves both extents
        if k < 1 or k % 2 == 0:
            raise ValueError(f"kernel_size {k} is not odd and positive")
        if min(stages, default=0) < 1:
            raise ValueError(f"stage_channels {list(stages)} is not 1+ stages of 1+ channels")
        if c != 3 or min(h, w) < 1 or h % cell or w % cell:
            raise ValueError(f"input_shape {[c, h, w]} is not RGB of positive multiples of {cell}")
        want = _param_shapes(config)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: incomplete or invalid cnn meta: {exc!r}") from exc
    check_shapes(path, tensors, want)
    return CnnModel(config=config, params=tensors)
