"""Shared fixtures, dataset builders, the finite-difference gradient check,
and the acceptance-summary hook."""

from __future__ import annotations

import ast
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from safetymap import cli
from safetymap.cli import BLAS_THREAD_VARS, _usable_cpus

# The test process runs BLAS as the CLI does, at one thread. The count is
# read when numpy loads, which nothing (pytest, hypothesis, the CLI module)
# has done yet.
assert "numpy" not in sys.modules, "numpy was loaded before tests/conftest.py"
os.environ.update({var: "1" for var in BLAS_THREAD_VARS})

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import safetymap
from safetymap import CLASS_NAMES, nn
from safetymap.cnn import _head_backward, _train, frame_predict
from safetymap.config import PipelineConfig
from safetymap.data import (
    ImageRecord, _run_length_labels, build_sequences, synth_corridor, write_labels,
)
from safetymap.geo import LatLon
from safetymap.lstm import SequenceModel, bptt_train, init_sequence_model, predict_corridor
from safetymap.modelio import save_tensors
from safetymap.metrics import (
    class_metrics,
    isolated_error_correction_rate,
    weighted_avg_f,
)

# what train-lstm passes to bptt_train: one process per usable CPU
WORKERS = _usable_cpus()


# Property tests draw a fixed example sequence (derandomize) and keep no
# example database, so every rerun checks the same cases.
settings.register_profile(
    "safetymap",
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("safetymap")


# Runs cli.main(argv[2:]), as if argv[1] CPUs were usable unless argv[1] is
# empty, and then prints, as the last line of stdout, the names of the numpy
# and package modules the process loaded, whether it has a child process
# left, running or unreaped, and the peak resident sizes of the process
# (VmHWM) and of the largest of the workers it reaped (Linux only).
_CLI_PROCESS = """
import json, os, resource, sys
from safetymap import cli
if sys.argv[1]:
    cli._usable_cpus = lambda: int(sys.argv[1])
try:
    code = cli.main(sys.argv[2:])
except SystemExit as exc:  # --help and argparse usage errors
    code = exc.code
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
        children_left = True
    except ChildProcessError:
        children_left = False
    modules = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "safetymap"))
    try:
        with open("/proc/self/status") as fh:
            peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
        workers_peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    except OSError:  # no procfs
        peak_kb = workers_peak_kb = None
    print(json.dumps({"modules": modules, "children_left": children_left, "peak_kb": peak_kb,
                      "workers_peak_kb": workers_peak_kb}))
sys.exit(code)
"""


def assert_no_child_left():
    """This process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def materialize(grads: dict) -> dict[str, np.ndarray]:
    """grads with each dense weight's factor pair (grad_out, x) formed as
    the array np.matmul(grad_out.T, x) it stands for (see nn.dense_backward)."""
    return {
        key: np.matmul(g[0].T, g[1]) if isinstance(g, tuple) else g for key, g in grads.items()
    }


def store_feat_w(grads: dict) -> Callable[[tuple], None]:
    """An update for cnn_loss_and_grads that stores feat.w's factor pair in
    grads["feat.w"]."""
    return lambda pair: grads.__setitem__("feat.w", pair)


def grad_check(loss_and_grads, params: dict[str, np.ndarray], h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_and_grads(params) must return (scalar loss, grads dict) and be
    deterministic (dropout disabled); a dense weight's gradient may be its
    factor pair. The relative error per coordinate is
    |g_a - g_fd| / max(1e-8, |g_a| + |g_fd|).
    """
    analytic = materialize(loss_and_grads(params)[1])
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


DEFAULTS = PipelineConfig()


def sequence_model(
    mode: str,
    input_dim: int,
    *,
    hidden: int = DEFAULTS.hidden,
    mid_dim: int = DEFAULTS.mid_dim,
    dropout_rate: float = DEFAULTS.dropout,
    seed: int,
) -> SequenceModel:
    """init_sequence_model, taking the pipeline's defaults for the sizes and
    dropout rate a test leaves out."""
    return init_sequence_model(mode, input_dim, hidden, mid_dim, dropout_rate, seed)


class CliProcess(NamedTuple):
    code: int
    modules: frozenset[str]  # numpy and safetymap modules loaded
    stderr: str
    children_left: bool  # a child process still running or unreaped at exit
    peak_kb: int | None  # the command process's peak resident size (VmHWM), None off Linux
    workers_peak_kb: int | None  # the largest peak (ru_maxrss) of its reaped workers, 0 if none


def process_env(threads: str = "1") -> dict[str, str]:
    """This environment with this package's source first on PYTHONPATH and
    `threads` OpenBLAS and OpenMP threads, for a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(safetymap.__file__).resolve().parents[1])}
    env.update({key: threads for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")})
    return env


def run_cli_process(
    *argv: str, threads: str = "1", timeout: float = 120.0, stdin: str | None = None,
    address_space: int | None = None, cpus: int | None = None,
) -> CliProcess:
    """Run `cli.main(argv)` in a fresh interpreter (see `process_env`),
    given stdin through a pipe, with an address_space limit in bytes
    (RLIMIT_AS) on the interpreter and the workers it forks, and as if
    `cpus` CPUs were usable."""

    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    proc = subprocess.run(
        [sys.executable, "-c", _CLI_PROCESS, str(cpus or ""), *argv], input=stdin,
        env=process_env(threads), capture_output=True, text=True, timeout=timeout,
        preexec_fn=limit if address_space else None,
    )
    report = (proc.stdout.splitlines() or [""])[-1]
    assert report.startswith("{"), f"no module list; stderr:\n{proc.stderr}"
    report = json.loads(report)
    return CliProcess(
        proc.returncode, frozenset(report["modules"]), proc.stderr, report["children_left"],
        report["peak_kb"], report["workers_peak_kb"],
    )


PIPELINE_OUTPUTS = (
    "labels.csv", "features.jsonl", "model.bin", "predictions.csv", "metrics.json", "map.geojson"
)


def run_synth_pipeline(work: Path, config: str, mode: str = "shared") -> dict[str, Path]:
    """synth, train-lstm, predict, evaluate and export-map through
    `cli.main` in work, each expected to exit 0: each output's path by its
    name in PIPELINE_OUTPUTS."""
    p = {name: work / name for name in PIPELINE_OUTPUTS}
    corridor = ["--labels", str(p["labels.csv"]), "--features", str(p["features.jsonl"])]
    for argv in (
        ["synth", "--out", str(p["labels.csv"]), "--features-out", str(p["features.jsonl"])],
        ["train-lstm", *corridor, "--mode", mode, "--model-out", str(p["model.bin"])],
        ["predict", *corridor, "--model", str(p["model.bin"]), "--out", str(p["predictions.csv"])],
        ["evaluate", "--predictions", str(p["predictions.csv"]), "--truth", str(p["labels.csv"]),
         "--out", str(p["metrics.json"])],
        ["export-map", "--predictions", str(p["predictions.csv"]), "--out", str(p["map.geojson"])],
    ):
        assert cli.main(["--config", config, *argv]) == 0, argv
    return p


def quantise(pixels: np.ndarray) -> np.ndarray:
    """An H x W x 3 float array in [0, 1] as the uint8 levels a PPM stores."""
    return np.clip(np.rint(pixels * 255.0), 0, 255).astype(np.uint8)


def write_ppm(path: str, pixels: np.ndarray) -> None:
    """Write an H x W x 3 uint8 array, or a float array in [0, 1] quantised
    to uint8, as a binary PPM (P6, maxval 255)."""
    h, w = pixels.shape[:2]
    raw = pixels if pixels.dtype == np.uint8 else quantise(pixels)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(raw.tobytes())


def make_pixel_records(n: int, rng: np.random.Generator, height: int = 32, width: int = 32):
    """Separable synthetic pixel dataset: label k brightens color channel k.
    Returns the records and their (n, height, width, 3) uint8 pixels,
    quantised as write_ppm stores them."""
    records = []
    pixels = np.empty((n, height, width, 3), dtype=np.uint8)
    for i in range(n):
        labels = tuple(bool(b) for b in rng.random(3) < 0.5)
        img = rng.normal(0.45, 0.08, size=(height, width, 3))
        for k in range(3):
            if labels[k]:
                img[:, :, k] += 0.35
        pixels[i] = quantise(np.clip(img, 0.0, 1.0))
        records.append(
            ImageRecord(
                image_id=f"px-{i:04d}",
                edge_id="edge-px",
                seq_index=i,
                location=LatLon(33.0, -87.0 + 1e-4 * i),
                labels=labels,
            )
        )
    return records, pixels


# mean run lengths, in images, of each class's on and off runs along a pixel corridor
PIXEL_RUN_ON = (6.0, 3.0, 5.0)  # rs, mcb, cb
PIXEL_RUN_OFF = (3.0, 6.0, 5.0)


def make_pixel_corridor(n: int, rng: np.random.Generator, height: int = 16, width: int = 16):
    """A pixel corridor: n images along one or two edges (drawn), 20 m
    apart, each edge's labels alternating geometric runs per class as
    `synth_corridor` draws them. Label k adds a cue to colour channel k of
    a noisy grey image, so a frame classifier errs where the noise hides
    the cue, and the runs are what a sequence model can use. Returns the
    records and their (n, height, width, 3) uint8 pixels."""
    edges = np.array_split(np.arange(n), rng.integers(1, 3))
    records = []
    pixels = np.empty((n, height, width, 3), dtype=np.uint8)
    for e, members in enumerate(edges):
        labels = np.stack(
            [_run_length_labels(rng, len(members), on, off)
             for on, off in zip(PIXEL_RUN_ON, PIXEL_RUN_OFF)],
            axis=1,
        )
        for seq, (i, row) in enumerate(zip(members, labels)):
            img = rng.normal(0.4, 0.15, size=(height, width, 3)) + 0.2 * row
            pixels[i] = quantise(np.clip(img, 0.0, 1.0))
            records.append(
                ImageRecord(
                    image_id=f"px-{i:04d}",
                    edge_id=f"edge-{e}",
                    seq_index=seq,
                    location=LatLon(33.0 + 0.01 * e, -87.0 + 2.15e-4 * seq),
                    labels=tuple(bool(b) for b in row),
                )
            )
    return records, pixels


def write_pixel_inputs(
    tmp_path, n=12, size=8, config="feature_dim = 8\ncnn_epochs = 1\nbatch_size = 4\n",
    make=make_pixel_records,
):
    """n size x size labelled PPM images from make (make_pixel_records or
    make_pixel_corridor, seeded), their manifest and a CNN config (by
    default one epoch), in tmp_path: returns the label, manifest and config
    paths."""
    rng = np.random.default_rng(0)
    records, pixels = make(n, rng, height=size, width=size)
    labels = tmp_path / "labels.csv"
    write_labels(str(labels), records)
    manifest = tmp_path / "manifest.csv"
    rows = ["image_id,path"]
    for r, image in zip(records, pixels):
        ppm = tmp_path / f"{r.image_id}.ppm"
        write_ppm(str(ppm), image)
        rows.append(f"{r.image_id},{ppm.name}")
    manifest.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "cnn.cfg"
    cfg.write_text(config + "seed = 3\n")
    return labels, manifest, cfg


def write_cnn_container(path, input_shape, stage_channels, kernel_size, feature_dim) -> None:
    """A cnn container whose meta declares this architecture, whatever its
    values, and whose tensors have the shapes the meta implies: each stage a
    (channels, in, k, k) kernel and its bias, each 2x2 pool flooring both
    extents. A negative kernel extent, which no shape has, is written as 0."""
    rng = np.random.default_rng(0)
    (c, h, w), k = input_shape, max(kernel_size, 0)
    tensors = {}
    for s, out in enumerate(stage_channels):
        tensors[f"conv{s}.k"] = rng.normal(0.0, 0.1, (out, c, k, k))
        tensors[f"conv{s}.b"] = np.zeros(out)
        c, h, w = out, h // 2, w // 2
    tensors["feat.w"] = rng.normal(0.0, 0.1, (feature_dim, c * h * w))
    tensors["feat.b"] = np.zeros(feature_dim)
    tensors["cls.w"] = rng.normal(0.0, 0.1, (len(CLASS_NAMES), feature_dim))
    tensors["cls.b"] = np.zeros(len(CLASS_NAMES))
    meta = {
        "kind": "cnn", "input_shape": list(input_shape), "stage_channels": list(stage_channels),
        "kernel_size": kernel_size, "feature_dim": feature_dim, "seed": None,
    }
    save_tensors(str(path), tensors, meta)


def enumerate_windows(records, window, stride):
    """Brute-force window oracle: scan every start, group into runs, apply stride."""
    starts_by_run = {}
    for s in range(len(records) - window + 1):
        chunk = records[s : s + window]
        gapless = all(
            chunk[i].edge_id == chunk[0].edge_id
            and chunk[i].seq_index == chunk[0].seq_index + i
            for i in range(window)
        )
        if not gapless:
            continue
        run_key = None
        for key, starts in starts_by_run.items():
            # adjacent starts share a run only over consecutive records (window 1
            # windows do not overlap, so a gap between them splits the run)
            if (
                records[s].edge_id == key[0]
                and s == starts[-1] + 1
                and records[s].seq_index == records[s - 1].seq_index + 1
            ):
                run_key = key
                break
        if run_key is None:
            run_key = (records[s].edge_id, s)
            starts_by_run[run_key] = []
        starts_by_run[run_key].append(s)
    kept = []
    for (_, first), starts in starts_by_run.items():
        kept.extend(s for s in starts if (s - first) % stride == 0)
    return sorted(kept)


# --- the corridor experiment shared by the spatial-context acceptance checks ---

CORRIDOR_SEEDS = (0, 1, 2, 3, 4)
CORRIDOR_WINDOW = 50
CORRIDOR_TRAIN_STRIDE = 10
CORRIDOR_HIDDEN = 12
CORRIDOR_EPOCHS = 5


@pytest.fixture(scope="session")
def corridor_experiments():
    """Frame vs shared vs separate classifiers on five seeded corridor pairs.

    Constants were frozen after one calibration run; each experiment trains
    on one 2000-point corridor and evaluates on an independent one.
    """
    config = PipelineConfig()
    results = []
    for seed in CORRIDOR_SEEDS:
        train_records, train_features = synth_corridor(config, seed=1000 + seed)
        test_records, test_features = synth_corridor(config, seed=2000 + seed)
        truth = np.array([r.labels for r in test_records])
        counts = truth.sum(axis=0).tolist()

        # the frame baseline: the CNN's class head trained alone on the features
        d, n = config.feature_dim, len(CLASS_NAMES)
        rng = np.random.default_rng(seed)
        frame = {"cls.w": nn.glorot_uniform(rng, (n, d), d, n), "cls.b": np.zeros(n)}
        train_truth = np.array([r.labels for r in train_records], dtype=np.float64)

        def frame_step(batch, grads):
            x = train_features[batch]
            return _head_backward(frame, x, frame_predict(frame, x), train_truth[batch], grads)[0]

        _train(frame, len(train_records), frame_step, lr=1e-2, batch_size=32, epochs=30, seed=seed)
        frame_labels = frame_predict(frame, test_features) > 0.5

        starts = build_sequences(train_records, CORRIDOR_WINDOW, CORRIDOR_TRAIN_STRIDE)
        train_config = dict(lr=1e-3, epochs=CORRIDOR_EPOCHS, seed=seed, workers=WORKERS)
        shared = sequence_model("shared", config.feature_dim, hidden=CORRIDOR_HIDDEN, seed=seed)
        bptt_train(shared, train_records, train_features, starts, CORRIDOR_WINDOW, **train_config)
        separate = sequence_model("separate", config.feature_dim, hidden=CORRIDOR_HIDDEN, seed=seed)
        bptt_train(separate, train_records, train_features, starts, CORRIDOR_WINDOW, **train_config)

        predict = dict(window=CORRIDOR_WINDOW, threshold=DEFAULTS.threshold)
        _, shared_labels = predict_corridor(shared, test_records, test_features, **predict)
        _, separate_labels = predict_corridor(separate, test_records, test_features, **predict)

        def avg_f(labels):
            return weighted_avg_f([m.f for m in class_metrics(labels, truth)], counts)

        results.append(
            {
                "seed": seed,
                "frame_avg_f": avg_f(frame_labels),
                "shared_avg_f": avg_f(shared_labels),
                "separate_avg_f": avg_f(separate_labels),
                # a synthetic corridor is one run
                "correction_rates": isolated_error_correction_rate(
                    frame_labels, shared_labels, truth, [len(truth)]
                ),
            }
        )
    return results


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def wrapped_table() -> dict[str, tuple[str, ...]]:
    """The WRAPPED literal of perfbench/tracer.py, {module: function names},
    read with ast, without importing the tracer."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no WRAPPED table")


# --- acceptance reporting: one pass/fail line per criterion ---

ACCEPTANCE_CRITERIA = {
    1: "Eq-2 weighted-F fidelity on published table rows",
    2: "packed LSTM kernel matches straight-line cell oracle (1000 transitions, <=1e-12)",
    3: "finite-difference gradient checks (layers, CNN, LSTM shared and separate, <1e-4)",
    4: "sequence model beats frame-only by >=0.03 Avg.F; correction rate >=0.5",
    5: "separate mode >= shared mode - 0.01, strictly greater in majority",
    6: "floor(L/20)+1 sampling law and 1% spacing on random polylines",
    7: "window construction equals brute-force enumeration (200 fixtures)",
    8: "CLI pipeline byte-identical across two runs with one seed",
}

_acceptance_results: dict[int, str] = {}
_acceptance_ran = False


def record_acceptance(criterion: int, detail: str) -> None:
    _acceptance_results[criterion] = detail


def mark_acceptance_started() -> None:
    global _acceptance_ran
    _acceptance_ran = True


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_ran:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, description in sorted(ACCEPTANCE_CRITERIA.items()):
        if criterion in _acceptance_results:
            line = f"[criterion {criterion}] PASS  {description}"
            detail = _acceptance_results[criterion]
            if detail:
                line += f"  ({detail})"
            terminalreporter.write_line(line, green=True)
        else:
            terminalreporter.write_line(
                f"[criterion {criterion}] FAIL  {description}", red=True
            )
