"""Frame-level classification: a small from-scratch CNN over pixel grids
(conv/relu/pool stages, a ReLU feature head, a 3-way sigmoid class head),
whose class head trained alone on precomputed features is the frame baseline.

Each image maps to a feature vector (post-ReLU, so nonnegative) and three
independent class probabilities; the feature vectors feed the sequence
model downstream. Training (one seeded mini-batch Adam loop for both) and
extraction take the records (labels and image_id order) next to the payload
array their loader returns: the (n, H, W, 3) uint8 pixels of
`data.load_pixels` or the (n, d) features of `data.attach_features`, row i
belonging to records[i].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import CLASS_NAMES, nn
from .data import ImageRecord
from .modelio import check_shapes, load_tensors, meta_int, save_tensors


@dataclass(frozen=True)
class CnnConfig:
    feature_dim: int
    input_shape: tuple[int, int, int] = (3, 32, 32)  # channels, height, width
    stage_channels: tuple[int, ...] = (8, 16)  # conv channels; each stage ends in 2x2 pool
    kernel_size: int = 3  # stride 1, zero padding preserving extent

    def flat_dim(self) -> int:
        c, h, w = self.input_shape
        for _ in self.stage_channels:
            h //= 2
            w //= 2
        if h < 1 or w < 1:
            raise ValueError("too many pooling stages for the input extent")
        return self.stage_channels[-1] * h * w


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


def _conv_forward(model: CnnModel, image: np.ndarray, out: np.ndarray) -> list:
    """The conv, ReLU and pool stages on one C x H x W image. The last
    stage's pooled output is written into out, the image's (flat,) row of the
    dense input. Returns, per stage, what the backward pass keeps (input,
    argmax cache, pooled output; the last one a view of out)."""
    pad = model.config.kernel_size // 2
    last = len(model.config.stage_channels) - 1
    stages = []
    x = image
    for s in range(last + 1):
        z = nn.conv2d_forward(x, model.params[f"conv{s}.k"], model.params[f"conv{s}.b"], pad)
        pooled, idx = nn.maxpool2d_forward(nn.relu(z, out=z))
        if s == last:
            row = out.reshape(pooled.shape)
            row[...] = pooled
            pooled = row
        stages.append((x, idx, pooled))
        x = pooled
    return stages


def _conv_backward(model: CnnModel, stages: list, grad: np.ndarray, grads: nn.Params) -> None:
    """Backpropagate one image's flat pooled-output gradient through its
    stages, adding the kernel and bias gradients into grads. The gradient
    on the image itself is never formed."""
    pad = model.config.kernel_size // 2
    grad = grad.reshape(stages[-1][2].shape)
    for s in reversed(range(len(stages))):
        x, idx, pooled = stages[s]
        kernels = model.params[f"conv{s}.k"]
        # the ReLU passes gradient only where the pooled maximum is positive
        grad_z = nn.maxpool2d_backward(idx, grad * nn.relu_grad(pooled))
        grad_k, grad_b = nn.conv2d_backward(x, kernels, grad_z, pad)
        grads[f"conv{s}.k"] += grad_k
        grads[f"conv{s}.b"] += grad_b
        if s > 0:
            grad = nn.conv2d_backward_input(kernels, grad_z, pad)


# --- the class head: the CNN's last layer, and alone the frame baseline ---


def init_frame_classifier(feature_dim: int, seed: int) -> nn.Params:
    """The frame baseline: a class head {"cls.w", "cls.b"} over
    precomputed (n, feature_dim) feature vectors, Glorot-uniform weights and
    zero biases."""
    rng = np.random.default_rng(seed)
    n = len(CLASS_NAMES)
    return {"cls.w": nn.glorot_uniform(rng, (n, feature_dim), feature_dim, n), "cls.b": np.zeros(n)}


def frame_predict(params: nn.Params, features: np.ndarray) -> np.ndarray:
    """Class probabilities (n, 3) of the class head in params over (n,
    feature_dim) feature vectors."""
    return nn.sigmoid(nn.dense_forward(features, params["cls.w"], params["cls.b"]))


def _head_backward(
    params: nn.Params, features: np.ndarray, probs: np.ndarray, labels: np.ndarray,
    grads: nn.Params,
) -> tuple[float, np.ndarray]:
    """Batch-mean BCE of probs = frame_predict(params, features) against
    labels; writes the cls.w and cls.b gradients into grads and returns the
    loss and the gradient on the features."""
    loss = nn.bce_loss(probs, labels)
    grad_z = nn.bce_grad_from_logits(probs, labels)  # sigmoid+BCE fused
    return loss, nn.dense_backward(features, params["cls.w"], grad_z, grads["cls.w"], grads["cls.b"])


def _forward(
    model: CnnModel, images: np.ndarray, keep_stages: bool = True
) -> tuple[list, dict[str, np.ndarray]]:
    """Conv stages image by image, each writing its pooled output into its
    row of the (N, flat) dense input, then the dense head on those rows as
    one GEMM per layer. Each image's stage records, which only the backward
    pass reads, are returned with keep_stages and otherwise dropped as soon
    as the image's row is written."""
    if images.ndim != 4 or images.shape[1:] != model.config.input_shape:
        raise ValueError(
            f"image batch shape {images.shape} != (N, *{model.config.input_shape})"
        )
    flat = np.empty((len(images), model.config.flat_dim()))
    stages = []
    for image, row in zip(images, flat):
        record = _conv_forward(model, image, row)
        if keep_stages:
            stages.append(record)
    feat_z = nn.dense_forward(flat, model.params["feat.w"], model.params["feat.b"])
    features = nn.relu(feat_z)
    probs = frame_predict(model.params, features)
    return stages, {"flat": flat, "feat_z": feat_z, "features": features, "probs": probs}


def cnn_forward(model: CnnModel, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class probabilities (N, 3) and nonnegative feature vectors (N,
    feature_dim) for an (N, C, H, W) batch of images; no image's stage
    records outlive its conv stages."""
    _, head = _forward(model, images, keep_stages=False)
    return head["probs"], head["features"]


def cnn_loss_and_grads(
    model: CnnModel, images: np.ndarray, labels: np.ndarray, grads: nn.Params
) -> float:
    """Batch-mean BCE over the three outputs of N images; the batch-mean
    gradient of every parameter is written into grads, which holds one array
    of the parameter's shape per name."""
    stages, head = _forward(model, images)
    loss, grad_feat = _head_backward(model.params, head["features"], head["probs"], labels, grads)
    grad_feat_z = grad_feat * nn.relu_grad(head["feat_z"])
    grad_flat = nn.dense_backward(
        head["flat"], model.params["feat.w"], grad_feat_z, grads["feat.w"], grads["feat.b"]
    )
    for s in range(len(model.config.stage_channels)):
        grads[f"conv{s}.k"].fill(0.0)
        grads[f"conv{s}.b"].fill(0.0)
    for st, g in zip(stages, grad_flat):
        _conv_backward(model, st, g, grads)
    return loss


def _train(
    params: nn.Params, n: int, step: Callable[[np.ndarray, nn.Params], float], *,
    lr: float, batch_size: int, epochs: int, seed: int,
) -> list[dict[str, float]]:
    """Minimize mean BCE with Adam over seeded shuffled mini-batches of n
    examples, in place. step(batch, grads) writes the batch-mean gradient of
    every parameter for the example indices batch into grads and returns the
    batch's mean loss. Returns one {"epoch", "train_loss"} entry per epoch."""
    if n == 0:
        raise ValueError("empty training set")
    rng = np.random.default_rng(seed)
    state = nn.adam_init(params, lr)
    # Every step writes its gradients into these arrays, and adam_step works
    # through one tile-sized buffer. A (feature_dim, flat) weight gradient or
    # Adam buffer allocated and freed at each step would raise glibc's mmap
    # threshold (128 KB at start) to its size; every smaller allocation of a
    # step would then come from a heap whose resident size depends on the
    # process's allocation layout, and peak RSS would differ by tens of MB
    # between identical runs.
    grads = {key: np.empty_like(p) for key, p in params.items()}
    history: list[dict[str, float]] = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            epoch_loss += step(batch, grads) * len(batch)
            nn.adam_step(params, grads, state)
        history.append({"epoch": float(epoch), "train_loss": epoch_loss / n})
    return history


def cnn_train(
    model: CnnModel, records: Sequence[ImageRecord], pixels: np.ndarray, *,
    lr: float, batch_size: int, epochs: int, seed: int,
) -> list[dict[str, float]]:
    """Train the CNN with _train, in place; pixels[i] is the (H, W, 3) uint8
    image of records[i]. Returns _train's history."""
    labels = np.array([r.labels for r in records], dtype=np.float64)
    # Every step writes its float images into this one buffer, for the same
    # reason _train reuses its gradient arrays.
    batch_images = np.empty((batch_size, *pixels.shape[1:]))

    def step(batch: np.ndarray, grads: nn.Params) -> float:
        images = batch_images[: len(batch)]
        np.divide(pixels[batch], 255.0, out=images)
        return cnn_loss_and_grads(model, images.transpose(0, 3, 1, 2), labels[batch], grads)

    return _train(
        model.params, len(records), step, lr=lr, batch_size=batch_size, epochs=epochs, seed=seed
    )


def frame_train(
    params: nn.Params, records: Sequence[ImageRecord], features: np.ndarray, *,
    lr: float, batch_size: int, epochs: int, seed: int,
) -> list[dict[str, float]]:
    """Train the frame baseline's class head with _train, in place; features[i]
    is the (feature_dim,) vector of records[i]. Returns _train's history."""
    labels = np.array([r.labels for r in records], dtype=np.float64)

    def step(batch: np.ndarray, grads: nn.Params) -> float:
        x = features[batch]
        return _head_backward(params, x, frame_predict(params, x), labels[batch], grads)[0]

    return _train(params, len(records), step, lr=lr, batch_size=batch_size, epochs=epochs, seed=seed)


def extract_features(
    model: CnnModel, records: Sequence[ImageRecord], pixels: np.ndarray, batch_size: int
) -> np.ndarray:
    """The (n, feature_dim) CNN feature vectors of the images pixels (n, H,
    W, 3), row i for records[i], batch_size images per forward call.
    Batches are cut from the records sorted by image_id, so a record's
    features do not depend on the input order (a GEMM row's last bits can
    depend on its position in the batch)."""
    order = sorted(range(len(records)), key=lambda i: records[i].image_id)
    out = np.empty((len(records), model.config.feature_dim))
    # one float image buffer for every batch, as in cnn_train
    batch_images = np.empty((min(batch_size, len(records)), *pixels.shape[1:]))
    for start in range(0, len(order), batch_size):
        batch = order[start : start + batch_size]
        images = batch_images[: len(batch)]
        np.divide(pixels[batch], 255.0, out=images)
        out[batch] = cnn_forward(model, images.transpose(0, 3, 1, 2))[1]
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
    """Read a model written by cnn_save, checking every tensor shape against
    the configuration its meta declares."""
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
        want = _param_shapes(config)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ValueError(f"{path}: incomplete or invalid cnn meta: {exc!r}") from exc
    check_shapes(path, tensors, want)
    return CnnModel(config=config, params=tensors)
