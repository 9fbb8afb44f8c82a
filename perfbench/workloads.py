"""The three benchmark workloads: seeded input generators, the CLI stages each
workload times, the checks on every stage output, and the counts computed
from the input and model shapes.

Each workload stresses a different part of the pipeline (see each
definition's docstring); a change to one part should move its workload's
numbers and leave the others alone.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

EARTH_RADIUS_M = 6_371_008.8  # the program's sphere, so generated edges have exact lengths
INTERVAL_M = 20.0  # the program's default sampling interval
WINDOW = 50  # the program's default window
EPOCHS = 1  # one training epoch keeps a repetition within the run time
LOSS_FILE = "loss.csv"  # --loss-out of each workload's training stage


class CheckError(Exception):
    """A stage exited 0 but its output is wrong."""


@dataclass
class Stage:
    """One CLI invocation: `safetymap --config CFG --seed SEED <argv...>`."""

    name: str  # the CLI command, e.g. "train-lstm"
    config: str  # config file name inside the work directory
    argv: list[str]
    outputs: list[str]  # files the stage writes, digested after every run


@dataclass
class Workload:
    name: str
    configs: dict[str, str]  # config file name -> content
    setup_stages: list[Stage]  # untimed prerequisites
    stages: list[Stage]  # the timed stages, run in order
    generate: Callable[[str, int], None] | None = None  # writes inputs from (work_dir, seed)


def _cfg(**values) -> str:
    return "".join(f"{k} = {v}\n" for k, v in values.items())


# --- workload definitions ---


# Input sizes keep one repetition of each workload near 8 s, so a run's
# measuring time holds several repetitions and reports their median; the
# per-window, per-point and per-image costs are those of the larger sizes.
CORRIDOR_POINTS = 600
WIDE_POINTS = 4000
TRAIN_POINTS = 400


def corridor_train() -> Workload:
    """Desk config (d=16, H=100, T=50, stride 1): separate-mode BPTT dominates, so
    LSTM-kernel, lockstep and window-view changes show here."""
    cfg = "desk.cfg"
    return Workload(
        name="corridor-train",
        configs={cfg: _cfg(n_points=CORRIDOR_POINTS, lstm_epochs=EPOCHS)},
        setup_stages=[
            Stage("synth", cfg, ["--out", "labels.csv", "--features-out", "features.jsonl"],
                  ["labels.csv", "features.jsonl"]),
        ],
        stages=[
            Stage("train-lstm", cfg,
                  ["--labels", "labels.csv", "--features", "features.jsonl", "--mode", "separate",
                   "--model-out", "model.bin", "--loss-out", LOSS_FILE],
                  ["model.bin", LOSS_FILE]),
            Stage("predict", cfg,
                  ["--labels", "labels.csv", "--features", "features.jsonl", "--model", "model.bin",
                   "--out", "predictions.csv"], ["predictions.csv"]),
            Stage("evaluate", cfg,
                  ["--predictions", "predictions.csv", "--truth", "labels.csv", "--out", "metrics.json"],
                  ["metrics.json"]),
            Stage("export-map", cfg, ["--predictions", "predictions.csv", "--out", "map.geojson"],
                  ["map.geojson"]),
        ],
    )


NETWORK_EDGES = 10
EDGE_SEGMENTS = 200
# edges of 10 km with a vertex every 50 m; the extra 5 mm keeps each
# length off an exact multiple of the sampling interval, where the sample
# count would hinge on the last bit of a rounded sum
SEGMENT_M = 50.005


def network_map() -> Workload:
    """Paper width (d=250): inference only, on a 4000-point corridor, plus the geo
    sampling walk over 10 km edges. Training and separate-mode changes should
    leave it unchanged."""
    big, small = "wide.cfg", "wide_train.cfg"
    return Workload(
        name="network-map",
        configs={
            big: _cfg(n_points=WIDE_POINTS, feature_dim=250),
            small: _cfg(n_points=TRAIN_POINTS, feature_dim=250, lstm_epochs=EPOCHS),
        },
        setup_stages=[
            Stage("synth", big, ["--out", "labels.csv", "--features-out", "features.jsonl"],
                  ["labels.csv", "features.jsonl"]),
            Stage("synth", small, ["--out", "train_labels.csv", "--features-out", "train_features.jsonl"],
                  ["train_labels.csv", "train_features.jsonl"]),
            Stage("train-lstm", small,
                  ["--labels", "train_labels.csv", "--features", "train_features.jsonl", "--mode", "shared",
                   "--model-out", "model.bin", "--loss-out", LOSS_FILE],
                  ["model.bin", LOSS_FILE]),
        ],
        generate=write_network,
        stages=[
            Stage("sample", big, ["--network", "network.geojson", "--out", "samples.csv"], ["samples.csv"]),
            Stage("url-gen", big, ["--samples", "samples.csv", "--key", "BENCHKEY", "--out", "urls.txt"],
                  ["urls.txt"]),
            Stage("predict", big,
                  ["--labels", "labels.csv", "--features", "features.jsonl", "--model", "model.bin",
                   "--out", "predictions.csv"], ["predictions.csv"]),
            Stage("evaluate", big,
                  ["--predictions", "predictions.csv", "--truth", "labels.csv", "--out", "metrics.json"],
                  ["metrics.json"]),
            Stage("export-map", big, ["--predictions", "predictions.csv", "--out", "map.geojson"],
                  ["map.geojson"]),
        ],
    )


N_IMAGES = 256
IMAGE_SIZE = 128


def pixel_cnn() -> Workload:
    """256 PPM images of 128x128 at d=250: the only workload running the conv, pool
    and dense kernels, PPM decoding and the feature-file writer. No LSTM work."""
    cfg = "pixel.cfg"
    return Workload(
        name="pixel-cnn",
        configs={cfg: _cfg(feature_dim=250, cnn_epochs=EPOCHS, batch_size=32)},
        setup_stages=[],
        generate=write_images,
        stages=[
            Stage("train-cnn", cfg,
                  ["--labels", "labels.csv", "--manifest", "manifest.csv", "--model-out", "cnn.bin",
                   "--loss-out", LOSS_FILE], ["cnn.bin", LOSS_FILE]),
            Stage("extract-features", cfg,
                  ["--labels", "labels.csv", "--manifest", "manifest.csv", "--model", "cnn.bin",
                   "--out", "features.jsonl"], ["features.jsonl"]),
        ],
    )


# --- input generators (the program sees only the files they write) ---


def _destination(lat: float, lon: float, bearing: float, dist: float) -> tuple[float, float]:
    """Point `dist` metres from (lat, lon) along the great circle at `bearing` degrees."""
    phi, lam, theta = math.radians(lat), math.radians(lon), math.radians(bearing)
    delta = dist / EARTH_RADIUS_M
    phi2 = math.asin(math.sin(phi) * math.cos(delta) + math.cos(phi) * math.sin(delta) * math.cos(theta))
    lam2 = lam + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(phi),
        math.cos(delta) - math.sin(phi) * math.sin(phi2),
    )
    return math.degrees(phi2), math.degrees(lam2)


def write_network(work: str, seed: int) -> None:
    """NETWORK_EDGES edges of 200 x 50 m segments, each a seeded random walk in heading."""
    rng = np.random.default_rng([seed, 1])
    features = []
    for e in range(NETWORK_EDGES):
        lat, lon = 33.0 + rng.uniform(0, 1.0), -87.0 + rng.uniform(0, 1.0)
        heading = rng.uniform(0, 360)
        coords = [[lon, lat]]
        for turn in rng.normal(0.0, 4.0, size=EDGE_SEGMENTS):
            heading = (heading + turn) % 360.0
            lat, lon = _destination(lat, lon, heading, SEGMENT_M)
            coords.append([lon, lat])
        features.append({
            "type": "Feature",
            "properties": {"id": f"edge-{e:02d}"},
            "geometry": {"type": "LineString", "coordinates": coords},
        })
    with open(os.path.join(work, "network.geojson"), "w", encoding="utf-8") as fh:
        json.dump({"type": "FeatureCollection", "features": features}, fh)


def write_images(work: str, seed: int) -> None:
    """Separable pixel dataset: label k brightens colour channel k."""
    rng = np.random.default_rng([seed, 2])
    img_dir = os.path.join(work, "images")
    os.makedirs(img_dir, exist_ok=True)
    header = f"P6\n{IMAGE_SIZE} {IMAGE_SIZE}\n255\n".encode("ascii")
    with open(os.path.join(work, "labels.csv"), "w", newline="", encoding="utf-8") as lf, \
            open(os.path.join(work, "manifest.csv"), "w", newline="", encoding="utf-8") as mf:
        labels_out, manifest = csv.writer(lf), csv.writer(mf)
        labels_out.writerow(("image_id", "edge_id", "seq_index", "lat", "lon", "rs", "mcb", "cb"))
        manifest.writerow(("image_id", "path"))
        for i in range(N_IMAGES):
            labels = rng.random(3) < 0.5
            img = rng.normal(0.45, 0.08, size=(IMAGE_SIZE, IMAGE_SIZE, 3)) + 0.35 * labels
            raw = np.clip(np.rint(np.clip(img, 0.0, 1.0) * 255.0), 0, 255).astype(np.uint8)
            image_id = f"px-{i:04d}"
            with open(os.path.join(img_dir, f"{image_id}.ppm"), "wb") as fh:
                fh.write(header + raw.tobytes())
            labels_out.writerow(
                (image_id, "edge-px", i, "33.000000", f"{-87.0 + 1e-4 * i:.6f}", *(int(b) for b in labels))
            )
            manifest.writerow((image_id, f"images/{image_id}.ppm"))


# --- output readers and checks ---


def read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _finite_unit(values) -> bool:
    return all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values)


def check_predictions(work: str) -> None:
    labels = read_csv(os.path.join(work, "labels.csv"))
    rows = read_csv(os.path.join(work, "predictions.csv"))
    if len(rows) != len(labels):
        raise CheckError(f"predictions: {len(rows)} rows for {len(labels)} label rows")
    for row in rows:
        if not _finite_unit(float(row[k]) for k in ("p_rs", "p_mcb", "p_cb")):
            raise CheckError(f"predictions: probability outside [0, 1] for {row['image_id']}")


def check_map(work: str) -> None:
    n = len(read_csv(os.path.join(work, "predictions.csv")))
    with open(os.path.join(work, "map.geojson"), encoding="utf-8") as fh:
        doc = json.load(fh)
    points = [f["geometry"] for f in doc.get("features", []) if f["geometry"]["type"] == "Point"]
    if doc.get("type") != "FeatureCollection" or len(points) != n:
        raise CheckError(f"map: {len(points)} Point features for {n} predictions")
    for g in points:
        lon, lat = g["coordinates"]
        if not (abs(lat) <= 90.0 and abs(lon) <= 180.0):
            raise CheckError(f"map: coordinate out of range {g['coordinates']}")


def read_avg_f(work: str) -> float:
    with open(os.path.join(work, "metrics.json"), encoding="utf-8") as fh:
        avg_f = float(json.load(fh)["avg_f"])
    if not 0.0 <= avg_f <= 1.0:
        raise CheckError(f"evaluate: avg_f {avg_f} outside [0, 1]")
    return avg_f


def read_final_loss(work: str, name: str) -> float:
    rows = read_csv(os.path.join(work, name))
    loss = float(rows[-1]["train_loss"]) if rows else float("nan")
    if not math.isfinite(loss):
        raise CheckError(f"{name}: final train_loss {loss} is not finite")
    return loss


def haversine_m(a: tuple[float, float], b: tuple[float, float]) -> float:
    lat1, lon1, lat2, lon2 = map(math.radians, (a[0], a[1], b[0], b[1]))
    s = math.sin((lat2 - lat1) / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(s)))


def network_edges(work: str) -> list[tuple[int, int]]:
    """(expected sample points, segments) per edge of the generated network."""
    with open(os.path.join(work, "network.geojson"), encoding="utf-8") as fh:
        doc = json.load(fh)
    out = []
    for f in doc["features"]:
        pts = [(lat, lon) for lon, lat in f["geometry"]["coordinates"]]
        length = sum(haversine_m(pts[i], pts[i + 1]) for i in range(len(pts) - 1))
        out.append((int(math.floor(length / INTERVAL_M + 1e-9)) + 1, len(pts) - 1))
    return out


def check_samples(work: str) -> None:
    expected = sum(n for n, _ in network_edges(work))
    rows = read_csv(os.path.join(work, "samples.csv"))
    if len(rows) != expected:
        raise CheckError(f"sample: {len(rows)} points, expected {expected}")
    for row in rows:
        lat, lon, heading = float(row["lat"]), float(row["lon"]), float(row["heading_deg"])
        # a heading is written to 2 decimals, so 359.996 reads 360.00
        if not (abs(lat) <= 90.0 and abs(lon) <= 180.0 and 0.0 <= heading <= 360.0):
            raise CheckError(f"sample: bad point {row}")


def check_urls(work: str) -> None:
    n = len(read_csv(os.path.join(work, "samples.csv")))
    with open(os.path.join(work, "urls.txt"), encoding="utf-8") as fh:
        urls = fh.read().splitlines()
    if len(urls) != n or not all(u.startswith("https://") and "key=BENCHKEY" in u for u in urls):
        raise CheckError(f"url-gen: {len(urls)} URLs for {n} samples, or a malformed URL")


def check_extracted(work: str, dim: int) -> None:
    ids = sorted(row["image_id"] for row in read_csv(os.path.join(work, "labels.csv")))
    seen = []
    with open(os.path.join(work, "features.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            vec = obj["features"]
            if len(vec) != dim or not all(math.isfinite(v) for v in vec):
                raise CheckError(f"extract-features: bad vector for {obj['image_id']}")
            seen.append(obj["image_id"])
    if sorted(seen) != ids or len(seen) != N_IMAGES:
        raise CheckError(f"extract-features: {len(seen)} vectors for {len(ids)} images")


# --- counts computed from shapes (exact, identical on every run of a seed) ---


def lstm_step_flops(model) -> tuple[int, int]:
    """Matmul FLOPs per window-step of one stack of a loaded SequenceModel:
    (forward, forward + backward)."""
    h, d, m = model.hidden, model.input_dim, model.mid_dim
    o = 3 if model.mode == "shared" else 1
    fwd = 8 * h * (d + h) + 2 * m * h + 2 * o * m
    # backward: dh and dW (recurrent), dU (input), and the two head layers twice
    bwd = 16 * h * h + 8 * h * d + 4 * m * h + 4 * o * m
    return fwd, fwd + bwd


def n_groups(model) -> int:
    return 1 if model.mode == "shared" else 3


def corridor_shape(work: str) -> tuple[int, int, int]:
    """(images, training windows at stride 1, predict window-steps per stack),
    counting windows within each gapless run of the label file."""
    rows = read_csv(os.path.join(work, "labels.csv"))
    keys = sorted((r["edge_id"], int(r["seq_index"])) for r in rows)
    runs, start = [], 0
    for i in range(1, len(keys) + 1):
        if i == len(keys) or keys[i][0] != keys[i - 1][0] or keys[i][1] != keys[i - 1][1] + 1:
            runs.append(i - start)
            start = i
    windows = sum(max(0, n - WINDOW + 1) for n in runs)
    # a run shorter than the window gets one truncated pass
    predict_steps = sum((n - WINDOW + 1) * WINDOW if n >= WINDOW else n for n in runs)
    return len(rows), windows, predict_steps


def conv_forward_flops(config) -> int:
    """Conv FLOPs for one image's forward pass, from a loaded CnnModel's config."""
    c, h, w = config.input_shape
    k = config.kernel_size
    total = 0
    for out_ch in config.stage_channels:
        total += 2 * out_ch * c * k * k * h * w  # stride 1, extent-preserving padding
        c, h, w = out_ch, h // 2, w // 2
    return total


WORKLOADS = {w.name: w for w in (corridor_train(), network_map(), pixel_cnn())}
