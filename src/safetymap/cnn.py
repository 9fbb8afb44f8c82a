"""Frame-level classification: a small from-scratch CNN over pixel grids
(conv/relu/pool stages, a ReLU feature head, a 3-way sigmoid class head)
and a logistic frame classifier over precomputed feature vectors.

Each image maps to a feature vector (post-ReLU, so nonnegative) and three
independent class probabilities; the feature vectors feed the sequence
model downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import nn
from .data import ImageRecord
from .modelio import check_shapes, load_tensors, save_tensors

N_CLASSES = 3


@dataclass(frozen=True)
class CnnConfig:
    input_shape: tuple[int, int, int] = (3, 32, 32)  # channels, height, width
    stage_channels: tuple[int, ...] = (8, 16)  # conv channels; each stage ends in 2x2 pool
    kernel_size: int = 3  # stride 1, zero padding preserving extent
    feature_dim: int = 250

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
    shapes["cls.w"] = (N_CLASSES, config.feature_dim)
    shapes["cls.b"] = (N_CLASSES,)
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


def _forward_cached(model: CnnModel, image: np.ndarray) -> dict:
    cfg = model.config
    if image.shape != cfg.input_shape:
        raise ValueError(f"image shape {image.shape} != configured {cfg.input_shape}")
    pad = cfg.kernel_size // 2
    cache: dict = {"stage": [], "pad": pad}
    x = image
    for s in range(len(cfg.stage_channels)):
        z = nn.conv2d_forward(x, model.params[f"conv{s}.k"], model.params[f"conv{s}.b"], 1, pad)
        a = nn.relu(z)
        pooled, idx = nn.maxpool2d_forward(a)
        cache["stage"].append({"x": x, "z": z, "idx": idx})
        x = pooled
    flat = x.reshape(-1)
    feat_z = nn.dense_forward(flat, model.params["feat.w"], model.params["feat.b"])
    features = nn.relu(feat_z)
    cls_z = nn.dense_forward(features, model.params["cls.w"], model.params["cls.b"])
    probs = nn.sigmoid(cls_z)
    cache.update(
        {"pool_shape": x.shape, "flat": flat, "feat_z": feat_z, "features": features, "probs": probs}
    )
    return cache


def cnn_forward(model: CnnModel, image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class probabilities (3-vector) and the nonnegative feature vector."""
    cache = _forward_cached(model, image)
    return cache["probs"], cache["features"]


def cnn_loss_and_grads(
    model: CnnModel, image: np.ndarray, labels: np.ndarray
) -> tuple[float, nn.Params, np.ndarray]:
    """Mean BCE over the three outputs plus gradients for every parameter
    and the input image."""
    cache = _forward_cached(model, image)
    probs = cache["probs"]
    loss, _ = nn.bce_loss(probs, labels)
    grads: nn.Params = {}
    grad_cls_z = nn.bce_grad_from_logits(probs, labels)  # sigmoid+BCE fused
    grad_feat, grads["cls.w"], grads["cls.b"] = nn.dense_backward(
        cache["features"], model.params["cls.w"], grad_cls_z
    )
    grad_feat_z = grad_feat * nn.relu_grad(cache["feat_z"])
    grad_flat, grads["feat.w"], grads["feat.b"] = nn.dense_backward(
        cache["flat"], model.params["feat.w"], grad_feat_z
    )
    grad_x = grad_flat.reshape(cache["pool_shape"])
    for s in reversed(range(len(model.config.stage_channels))):
        st = cache["stage"][s]
        grad_a = nn.maxpool2d_backward(st["idx"], grad_x)
        grad_z = grad_a * nn.relu_grad(st["z"])
        grad_x, grads[f"conv{s}.k"], grads[f"conv{s}.b"] = nn.conv2d_backward(
            st["x"], model.params[f"conv{s}.k"], grad_z, 1, cache["pad"]
        )
    return loss, grads, grad_x


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 30
    seed: int = 0


def _mean_loss(model: CnnModel, records: Sequence[ImageRecord]) -> float:
    total = 0.0
    for r in records:
        probs, _ = cnn_forward(model, _chw(r))
        loss, _ = nn.bce_loss(probs, np.array(r.labels, dtype=np.float64))
        total += loss
    return total / len(records)


def _chw(record: ImageRecord) -> np.ndarray:
    if record.pixels is None:
        raise ValueError(f"record {record.image_id} has no pixels")
    return record.pixels.transpose(2, 0, 1)


def cnn_train(
    model: CnnModel,
    records: Sequence[ImageRecord],
    config: TrainConfig,
    val_records: Sequence[ImageRecord] | None = None,
) -> list[dict[str, float]]:
    """Minimize mean BCE with Adam over shuffled mini-batches, in place.

    Returns one history entry per epoch: {"epoch", "train_loss"} plus
    "val_loss" when a validation set is given.
    """
    if not records:
        raise ValueError("empty training set")
    for r in records:
        if r.pixels is None:
            raise ValueError(f"record {r.image_id} has no pixels")
    rng = np.random.default_rng(config.seed)
    state = nn.adam_init(model.params, lr=config.lr)
    history: list[dict[str, float]] = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(records))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [records[i] for i in order[start : start + config.batch_size]]
            acc: nn.Params = {k: np.zeros_like(v) for k, v in model.params.items()}
            for r in batch:
                loss, grads, _ = cnn_loss_and_grads(
                    model, _chw(r), np.array(r.labels, dtype=np.float64)
                )
                epoch_loss += loss
                for k in acc:
                    acc[k] += grads[k]
            for k in acc:
                acc[k] /= len(batch)
            nn.adam_step(model.params, acc, state)
        entry = {"epoch": float(epoch), "train_loss": epoch_loss / len(records)}
        if val_records:
            entry["val_loss"] = _mean_loss(model, val_records)
        history.append(entry)
    return history


def extract_features(model: CnnModel, records: Sequence[ImageRecord]) -> list[ImageRecord]:
    """Attach each record's CNN feature vector; order-independent per record."""
    out = []
    for r in records:
        _, features = cnn_forward(model, _chw(r))
        out.append(replace(r, features=features))
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
            input_shape=tuple(int(d) for d in meta["input_shape"]),
            stage_channels=tuple(int(c) for c in meta["stage_channels"]),
            kernel_size=int(meta["kernel_size"]),
            feature_dim=int(meta["feature_dim"]),
        )
        want = _param_shapes(config)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ValueError(f"{path}: incomplete or invalid cnn meta: {exc!r}") from exc
    check_shapes(path, tensors, want)
    return CnnModel(config=config, params=tensors)


# --- logistic frame classifier over precomputed feature vectors ---
#
# Stand-in for the per-image ("frame only") baseline when records carry
# feature vectors instead of pixels: three independent logistic outputs.


@dataclass
class FrameClassifier:
    feature_dim: int
    params: nn.Params


def init_frame_classifier(feature_dim: int, seed: int) -> FrameClassifier:
    rng = np.random.default_rng(seed)
    return FrameClassifier(
        feature_dim=feature_dim,
        params={
            "w": nn.glorot_uniform(rng, (N_CLASSES, feature_dim), feature_dim, N_CLASSES),
            "b": np.zeros(N_CLASSES),
        },
    )


def frame_predict(model: FrameClassifier, features: np.ndarray) -> np.ndarray:
    """Per-frame class probabilities for a (n, feature_dim) matrix."""
    return nn.sigmoid(features @ model.params["w"].T + model.params["b"])


def frame_train(
    model: FrameClassifier, records: Sequence[ImageRecord], config: TrainConfig
) -> list[dict[str, float]]:
    """Train the logistic frame classifier with Adam on mean BCE, in place."""
    if not records:
        raise ValueError("empty training set")
    feats = np.stack([r.features for r in records])
    labels = np.array([r.labels for r in records], dtype=np.float64)
    rng = np.random.default_rng(config.seed)
    state = nn.adam_init(model.params, lr=config.lr)
    history = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(records))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            x, y = feats[idx], labels[idx]
            probs = frame_predict(model, x)
            loss, _ = nn.bce_loss(probs, y)
            epoch_loss += loss * len(idx)
            grad_z = (probs - y) / probs.size
            grads = {"w": grad_z.T @ x, "b": grad_z.sum(axis=0)}
            nn.adam_step(model.params, grads, state)
        history.append({"epoch": float(epoch), "train_loss": epoch_loss / len(records)})
    return history
