"""Command-line front door for the road-safety-feature mapping pipeline.

Commands cover the full flow: sample points along a road network, generate
synthetic corridors, train the frame CNN, extract features, train the
sequence model, predict (with it, or with the CNN as the frame baseline),
evaluate, and export prediction maps as GeoJSON.

Each command imports the modules it runs (cnn, lstm, metrics, numpy) when it
runs, so the geometry and table commands (sample, url-gen, evaluate,
export-map) start without loading numpy.

`main` pins BLAS (OpenBLAS, OpenMP, MKL) to one thread before any command
loads numpy, so every command writes the same bytes whatever thread count
the environment asks for. A BLAS split of some GEMMs changes their last
bits with the thread count, and a second BLAS thread gains nothing on this
program's shapes. train-lstm, predict, train-cnn and extract-features split
their work over processes instead, one per usable CPU (see `fork`).
A caller that loaded numpy before calling `main` keeps its BLAS pool, and
its commands run in one process.

Exit codes: 0 success, 2 usage or config error, 3 missing input file,
4 input file violates its schema, 5 validation or dimension error (out of
memory included), 1 unexpected failure, 143 ended by SIGTERM.
"""

from __future__ import annotations

import argparse
import errno
import logging
import os
import signal
import sys
import threading
from dataclasses import asdict, replace

from . import CLASS_NAMES, data, geo
from .config import PipelineConfig, load_config, stage_seed

log = logging.getLogger("safetymap")

EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_SCHEMA = 4
EXIT_VALIDATION = 5

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where fork or affinity is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _log_run(command: str, config: PipelineConfig) -> None:
    log.info("command=%s seed=%d config=%s", command, config.seed, asdict(config))


# --- command implementations ---


def cmd_sample(args, config: PipelineConfig) -> int:
    edges = geo.load_road_network(args.network)
    points = geo.sample_points(edges, config.interval_m)
    data.write_samples(args.out, points)
    log.info("wrote %d sample points to %s", len(points), args.out)
    return 0


def cmd_url_gen(args, config: PipelineConfig) -> int:
    if not args.key:
        raise ValueError("API key must be non-empty")
    if args.size <= 0:
        raise ValueError(f"image size must be positive, got {args.size}")
    points = data.read_samples(args.samples)
    with open(args.out, "w", encoding="utf-8") as fh:
        for p in points:
            url = geo.streetview_request_url(p.location, p.heading_deg, args.size, args.key)
            fh.write(url + "\n")
    log.info("wrote %d request URLs to %s", len(points), args.out)
    return 0


def cmd_synth(args, config: PipelineConfig) -> int:
    records, features = data.synth_corridor(config, stage_seed(config.seed, "synth"))
    data.write_labels(args.out, records)
    data.write_features(args.features_out, records, features)
    log.info("wrote %d synthetic records to %s / %s", len(records), args.out, args.features_out)
    return 0


def cmd_train_cnn(args, config: PipelineConfig) -> int:
    from . import cnn as cnn_mod

    arch = cnn_mod.CnnConfig(feature_dim=config.feature_dim)
    records = data.load_labels(args.labels)
    if not records:
        raise ValueError(f"{args.labels}: empty training set")
    # every image has the first one's size, which each pooling stage halves
    pixels = data.load_pixels(records, args.manifest, multiple=2 ** len(arch.stage_channels))
    model = cnn_mod.init_cnn(
        replace(arch, input_shape=(3, *pixels.shape[1:3])), seed=stage_seed(config.seed, "cnn-init")
    )
    history = cnn_mod.cnn_train(
        model,
        records,
        pixels,
        lr=config.cnn_lr,
        batch_size=config.batch_size,
        epochs=config.cnn_epochs,
        seed=stage_seed(config.seed, "cnn-train"),
        workers=args.workers,
    )
    cnn_mod.cnn_save(model, args.model_out, seed=config.seed)
    if args.loss_out:
        _write_history(args.loss_out, history)
    final = history[-1] if history else float("nan")
    log.info("trained cnn for %d epochs, final loss %.4f", config.cnn_epochs, final)
    return 0


def cmd_extract_features(args, config: PipelineConfig) -> int:
    from . import cnn as cnn_mod

    model = cnn_mod.cnn_load(args.model)
    records = data.load_labels(args.labels)
    pixels = data.load_pixels(records, args.manifest, extent=model.config.input_shape[1:])
    features = cnn_mod.extract_features(
        model, records, pixels, config.batch_size, workers=args.workers
    )
    data.write_features(args.out, records, features)
    log.info("wrote %d feature vectors to %s", len(records), args.out)
    return 0


def cmd_train_lstm(args, config: PipelineConfig) -> int:
    from . import lstm

    records = data.load_labels(args.labels)
    features = data.attach_features(records, args.features, config.feature_dim, workers=args.workers)
    starts = data.build_sequences(records, config.window, config.stride)
    if len(starts) == 0:  # before the model, which the config may make large
        raise ValueError("empty training set")
    model = lstm.init_sequence_model(
        args.mode,
        input_dim=config.feature_dim,
        hidden=config.hidden,
        mid_dim=config.mid_dim,
        dropout_rate=config.dropout,
        seed=stage_seed(config.seed, "lstm-init"),
    )
    history = lstm.bptt_train(
        model,
        records,
        features,
        starts,
        config.window,
        lr=config.lstm_lr,
        epochs=config.lstm_epochs,
        seed=stage_seed(config.seed, "lstm-train"),
        workers=args.workers,
    )
    lstm.seq_save(model, args.model_out, seed=config.seed)
    if args.loss_out:
        _write_history(args.loss_out, history)
    final = history[-1] if history else float("nan")
    log.info(
        "trained %s sequence model on %d windows, final loss %.4f",
        args.mode,
        len(starts),
        final,
    )
    return 0


def cmd_predict(args, config: PipelineConfig) -> int:
    from .modelio import container_kind

    # the model is read and checked first: parsing the features takes longer.
    # A CNN's class head labels each image alone: the frame baseline.
    frames = container_kind(args.model) == "cnn"
    if frames:
        from . import cnn

        model = cnn.cnn_load(args.model)
        input_dim = model.config.feature_dim
    else:
        from . import lstm

        model = lstm.seq_load(args.model)
        input_dim = model.input_dim
        if model.window != config.window:
            raise ValueError(
                f"{args.model} was trained with window {model.window}, config window is {config.window}"
            )
    if input_dim != config.feature_dim:
        raise ValueError(
            f"{args.model} was trained with input_dim {input_dim}, "
            f"config feature_dim is {config.feature_dim}"
        )
    records = data.load_labels(args.labels)
    features = data.attach_features(records, args.features, config.feature_dim, workers=args.workers)
    if frames:
        probs = cnn.frame_predict(model.params, features)
        labels = probs > config.threshold
    else:
        probs, labels = lstm.predict_corridor(
            model, records, features, config.window, config.threshold, workers=args.workers
        )
    data.write_predictions(args.out, records, probs, labels)
    log.info("wrote %d predictions to %s", len(records), args.out)
    return 0


def _align_to_truth(
    rows: list[data.PredictionRow], truth_records: list[data.ImageRecord], name: str
) -> None:
    """Sort prediction rows by (edge_id, seq_index) and check that they key-match
    the truth records, which load_labels returns in that order, one to one."""
    if len(rows) != len(truth_records):
        raise ValueError(
            f"length mismatch: {len(rows)} {name} rows vs {len(truth_records)} truth records"
        )
    rows.sort(key=lambda r: (r.edge_id, r.seq_index))
    for row, rec in zip(rows, truth_records):
        if (row.edge_id, row.seq_index) != (rec.edge_id, rec.seq_index):
            raise ValueError(f"{name}/truth key mismatch at ({row.edge_id}, {row.seq_index})")


def cmd_evaluate(args, config: PipelineConfig) -> int:
    from . import metrics

    rows = data.read_predictions(args.predictions)
    truth_records = data.load_labels(args.truth)
    _align_to_truth(rows, truth_records, "prediction")
    if args.baseline:  # checked before scoring, so a refused baseline warns of nothing
        base_rows = data.read_predictions(args.baseline)
        _align_to_truth(base_rows, truth_records, "baseline")
    predictions = [row.labels for row in rows]
    truth = [r.labels for r in truth_records]
    per_class = metrics.class_metrics(predictions, truth)
    metrics.warn_if_degenerate(per_class)
    counts = [m.tp + m.fn for m in per_class]  # each class's positives in truth
    report = metrics.metrics_report(per_class, counts)
    if args.baseline:
        run_lengths = [end - start for start, end in data._runs(truth_records)]
        rates = metrics.isolated_error_correction_rate(
            [row.labels for row in base_rows], predictions, truth, run_lengths
        )
        report["isolated_error_correction"] = {
            name: rate for name, rate in zip(CLASS_NAMES, rates)
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(geo.dumps_stable(report))
    print(metrics.format_table(per_class, counts))
    log.info("wrote metrics to %s (avg_f=%.4f)", args.out, report["avg_f"])
    return 0


def cmd_export_map(args, config: PipelineConfig) -> int:
    rows = data.read_predictions(args.predictions)
    doc = geo.export_prediction_geojson(rows)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(doc)
    log.info("wrote prediction map with %d points to %s", len(rows), args.out)
    return 0


# --- argument parsing and dispatch ---


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safetymap",
        description="Road safety feature mapping pipeline.",
        epilog=(
            "exit codes: 0 success, 2 usage/config error, 3 missing file, "
            "4 schema error, 5 validation error, 1 unexpected"
        ),
    )
    parser.add_argument("--config", help="pipeline config file (key = value lines)")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample points along a road network GeoJSON")
    p.add_argument("--network", required=True, help="GeoJSON FeatureCollection of LineStrings")
    p.add_argument("--out", required=True, help="output samples CSV")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("url-gen", help="emit streetview request URLs for sample points")
    p.add_argument("--samples", required=True, help="samples CSV from the sample command")
    p.add_argument("--key", required=True, help="API key to embed")
    p.add_argument("--size", type=int, default=224, help="square image size in pixels")
    p.add_argument("--out", required=True, help="output URL list, one per line")
    p.set_defaults(func=cmd_url_gen)

    p = sub.add_parser("synth", help="generate a synthetic labeled corridor")
    p.add_argument("--out", required=True, help="output label CSV")
    p.add_argument("--features-out", required=True, help="output feature JSON-lines")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-cnn", help="train the frame CNN on pixel images")
    p.add_argument("--labels", required=True, help="label CSV")
    p.add_argument("--manifest", required=True, help="image_id,path manifest CSV of PPM files")
    p.add_argument("--model-out", required=True, help="output model container")
    p.add_argument("--loss-out", help="optional per-epoch loss CSV")
    p.set_defaults(func=cmd_train_cnn)

    p = sub.add_parser("extract-features", help="run the CNN feature head over images")
    p.add_argument("--labels", required=True, help="label CSV")
    p.add_argument("--manifest", required=True, help="image manifest CSV")
    p.add_argument("--model", required=True, help="trained CNN container")
    p.add_argument("--out", required=True, help="output feature JSON-lines")
    p.set_defaults(func=cmd_extract_features)

    p = sub.add_parser("train-lstm", help="train the sequence model on feature windows")
    p.add_argument("--labels", required=True, help="label CSV")
    p.add_argument("--features", required=True, help="feature JSON-lines")
    p.add_argument("--mode", choices=("shared", "separate"), default="shared")
    p.add_argument("--model-out", required=True, help="output model container")
    p.add_argument("--loss-out", help="optional per-epoch loss CSV")
    p.set_defaults(func=cmd_train_lstm)

    p = sub.add_parser("predict", help="predict per-image labels over corridors")
    p.add_argument("--labels", required=True, help="label CSV (geometry and ordering)")
    p.add_argument("--features", required=True, help="feature JSON-lines")
    p.add_argument("--model", required=True, help="sequence model, or CNN for frame-baseline labels")
    p.add_argument("--out", required=True, help="output predictions CSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--predictions", required=True, help="predictions CSV")
    p.add_argument("--truth", required=True, help="ground-truth label CSV")
    p.add_argument("--out", required=True, help="output metrics JSON")
    p.add_argument(
        "--baseline", help="frame predictions CSV (predict on a CNN); adds isolated-error correction"
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export-map", help="render predictions as a GeoJSON map")
    p.add_argument("--predictions", required=True, help="predictions CSV")
    p.add_argument("--out", required=True, help="output GeoJSON")
    p.set_defaults(func=cmd_export_map)

    return parser


def _write_history(path: str, history: list[float]) -> None:
    data.write_table(
        path, ("epoch", "train_loss"), ((epoch, f"{loss:.6f}") for epoch, loss in enumerate(history))
    )


def _terminate(signum: int, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    # BLAS reads these when numpy loads. A caller that loaded numpy first
    # keeps its pool, which may run threads, so its commands do not fork.
    workers = 1 if "numpy" in sys.modules else _usable_cpus()
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    parser = build_parser()
    args = parser.parse_args(argv)
    args.workers = workers
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    # SIGTERM unwinds as SystemExit, through the `finally` that ends and
    # reaps a command's workers
    in_main_thread = threading.current_thread() is threading.main_thread()
    if in_main_thread:
        previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return _run(args)
    finally:
        if in_main_thread:
            signal.signal(signal.SIGTERM, previous or signal.SIG_DFL)


def _run(args) -> int:
    try:
        config = load_config(args.config, {"seed": args.seed})
        _log_run(args.command, config)
        return args.func(args, config)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename or exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except data.SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ValueError as exc:
        message = str(exc)
        code = EXIT_USAGE if message.startswith("config:") else EXIT_VALIDATION
        print(f"error: {message}", file=sys.stderr)
        return code
    except Exception as exc:  # out of memory for the config's sizes, else unexpected
        oom = isinstance(exc, MemoryError) or getattr(exc, "errno", None) == errno.ENOMEM
        sizes = "; the config's feature_dim, hidden, mid_dim, window and batch_size size the arrays"
        detail = f"{str(exc) or 'out of memory'}{sizes}" if oom else exc
        print(f"error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_VALIDATION if oom else 1


if __name__ == "__main__":
    sys.exit(main())
