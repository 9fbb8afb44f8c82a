"""Pipeline benchmark for the safetymap CLI.

    python3 perfbench/run.py --workload corridor-train --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout: the stages execute as
`python -m safetymap.cli` with `src` on PYTHONPATH, one child process at a
time, in a scratch directory under `.perfbench_work/` that is removed at
the end.

Untraced (`--trace 0`): generate the seeded inputs and run the untimed
prerequisite stages several times (median = setup_s), then repeat the
workload's timed stages until `--seconds` have passed (at least once) and
report medians over those repetitions.

Traced (`--trace 1`): set up once, then run each timed stage in one
in-process child (tracer.py), untraced and then under the span recorder,
and report the per-layer metrics with the tracing overhead.

Every stage output is checked and its sha256 compared across repetitions
(the CLI promises byte-identical reruns); a stage that exits non-zero, fails
a check or changes its digest counts as failed. A human-readable report
goes to stdout; its last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
# Set-up repeats at least SETUP_MIN_REPS times and for SETUP_MIN_S seconds,
# so that a sub-second set-up still gets a steady median.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 3.0
IMPORT_REPS = 3
STAGE_TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Stages run with a one-thread BLAS pool. On a 2-vCPU shared host the
# default pool (one thread per CPU) spins a second core on the LSTM's small
# matmuls, gains nothing there, and makes wall time swing with CPU steal on
# both cores (train-lstm on a 2000-point corridor: 20.6-24.2 s with 2
# threads, 21.1-21.9 s with 1).
STAGE_THREADS = "1"

END_TO_END_UNITS = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics reported by the traced pass; a layer the workload does
# not run reads 0. Units: s = seconds, count, GFLOP and MB are computed.
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    **{f"cli.{s}.s": "s" for s in (
        "train-lstm", "predict", "evaluate", "export-map", "sample", "url-gen", "train-cnn",
        "extract-features")},
    "trace.overhead_s": "s",
    "trace.overhead_frac": "1",
    "trace.spans": "count",
    "trace.span_cost_s": "s",
    "lstm.bptt_train.self_s": "s",
    "lstm.bptt_train.window_steps": "count",
    "lstm.bptt_train.gflop": "GFLOP",
    "lstm.predict_corridor.self_s": "s",
    "lstm.predict_corridor.window_steps": "count",
    "lstm.predict_corridor.images_per_step": "1",
    "lstm.seq_save.s": "s",
    "lstm.seq_load.s": "s",
    "nn.adam_step.s": "s",
    "nn.adam_step.calls": "count",
    "nn.dropout_mask.s": "s",
    "nn.bce_loss.s": "s",
    "nn.bce_grad_from_logits.s": "s",
    "nn.sigmoid.s": "s",
    "nn.sigmoid.calls": "count",
    "nn.relu.s": "s",
    **{f"nn.{f}.{k}": u for f in (
        "conv2d_forward", "conv2d_backward", "maxpool2d_forward", "maxpool2d_backward",
        "dense_forward", "dense_backward") for k, u in (("s", "s"), ("calls", "count"))},
    "nn.conv2d.gflop": "GFLOP",
    "cnn.cnn_train.self_s": "s",
    "cnn.extract_features.self_s": "s",
    "cnn.cnn_save.s": "s",
    "cnn.cnn_load.s": "s",
    "data.attach_features.s": "s",
    "data.attach_features.mb_per_s": "MB/s",
    "data.write_features.s": "s",
    "data.write_features.mb_per_s": "MB/s",
    "data.feature_mb_read": "MB",
    "data.feature_mb_written": "MB",
    "data.load_pixels.s": "s",
    "data.load_labels.s": "s",
    "data.build_sequences.s": "s",
    "geo.sample_points.s": "s",
    "geo.sample_points.segment_scans": "count",
    "geo.heading_at.s": "s",
    "geo.heading_at.calls": "count",
    "geo.streetview_request_url.s": "s",
    "geo.export_prediction_geojson.s": "s",
    "metrics.class_metrics.s": "s",
    "metrics.metrics_report.s": "s",
}

# Counts derived from input and model shapes rather than measured.
COMPUTED = {
    "lstm.bptt_train.window_steps", "lstm.bptt_train.gflop", "lstm.predict_corridor.window_steps",
    "lstm.predict_corridor.images_per_step", "nn.conv2d.gflop", "data.feature_mb_read",
    "data.feature_mb_written", "geo.sample_points.segment_scans",
}


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def environment() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():  # a plain source tree has no commit to report
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": deps.get("blas"),
        "threads_inherited": {v: os.environ.get(v) for v in THREAD_VARS},
        "threads_stages": {v: STAGE_THREADS for v in THREAD_VARS},
        "loadavg_start": loadavg(),
        "git_commit": commit,
    }


def median(values):
    return statistics.median(values) if values else None


def distribution(durations: list[float]) -> dict | None:
    """Median and the highest percentile with at least 10 calls beyond it."""
    n = len(durations)
    if n < 1000:
        return None
    ordered = sorted(durations)
    pct = max(p for p in (90.0, 99.0, 99.9, 99.99) if n * (1 - p / 100) >= 10)
    return {
        "calls": n,
        "p50_us": ordered[n // 2] * 1e6,
        "tail_pct": pct,
        "tail_us": ordered[min(n - 1, int(n * pct / 100))] * 1e6,
    }


class Bench:
    def __init__(self, workload: wl.Workload, seed: int, work: Path):
        self.w, self.seed, self.work = workload, seed, work
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        self.env.update({v: STAGE_THREADS for v in THREAD_VARS})
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    # --- child processes ---

    def run_child(self, argv: list[str]) -> tuple[float, int, float]:
        """Wall seconds, exit code and this child's own peak RSS in MB."""
        with open(self.work / "stages.log", "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def stage_argv(self, stage: wl.Stage) -> list[str]:
        return ["--config", stage.config, "--seed", str(self.seed), stage.name, *stage.argv]

    def record_digests(self, stage: wl.Stage, label: str = "") -> None:
        """Compare each output with its first digest; a change fails the stage."""
        changed = []
        for out in stage.outputs:
            digest = sha256(self.work / out)
            if self.digests.setdefault(out, digest) != digest:
                changed.append(out)
        if changed:
            self.failures.append(f"{label}{stage.name}: {', '.join(changed)} differ from the first run")

    def run_stage(self, stage: wl.Stage) -> tuple[float, float]:
        self.attempted += 1
        wall, rc, rss = self.run_child([sys.executable, "-m", "safetymap.cli", *self.stage_argv(stage)])
        if rc != 0:
            self.failures.append(f"{stage.name} exited {rc} (see {self.work / 'stages.log'})")
            raise StageFailed(stage.name)
        self.record_digests(stage)
        return wall, rss

    # --- phases ---

    def setup(self) -> float:
        start = time.perf_counter()
        for name, content in self.w.configs.items():
            (self.work / name).write_text(content, encoding="utf-8")
        if self.w.generate:
            self.w.generate(str(self.work), self.seed)
        for stage in self.w.setup_stages:
            self.run_stage(stage)
        return time.perf_counter() - start

    def import_time(self) -> float:
        cmd = [sys.executable, "-c", "import numpy, safetymap.cli"]
        return median([self.run_child(cmd)[0] for _ in range(IMPORT_REPS)])

    def rep(self) -> dict:
        walls, rss = {}, {}
        for stage in self.w.stages:
            walls[stage.name], rss[stage.name] = self.run_stage(stage)
        return {"walls": walls, "rss": rss}

    def traced_pass(self) -> dict:
        """Run the timed stages in-process, untraced then traced (tracer.py)."""
        spec = self.work / "trace_spec.json"
        spans_path = self.work / "spans.json"
        stages = [[s.name, self.stage_argv(s), s.outputs] for s in self.w.stages]
        spec.write_text(json.dumps({"stages": stages}), encoding="utf-8")
        tracer = Path(__file__).resolve().parent / "tracer.py"
        _, rc, _ = self.run_child([sys.executable, str(tracer), str(spec), str(spans_path)])
        if rc != 0:
            self.attempted += 1
            self.failures.append(f"traced pass exited {rc} (see {self.work / 'stages.log'})")
            raise StageFailed("traced pass")
        doc = json.loads(spans_path.read_text(encoding="utf-8"))
        for result in doc["stages"]:
            for label, code, digests in zip(("untraced", "traced"), result["exit_codes"],
                                            result["digests"] + [None]):
                self.attempted += 1
                if code != 0:
                    self.failures.append(f"{label} in-process {result['stage']} exited {code}")
                    raise StageFailed(result["stage"])
                changed = [o for o, d in digests.items() if self.digests.setdefault(o, d) != d]
                if changed:
                    self.failures.append(
                        f"{label} in-process {result['stage']}: {', '.join(changed)} differ from the first run")
        return doc

    # --- output checks ---

    def check_outputs(self) -> dict:
        """Check every stage output; returns avg_f, final_loss and the reloaded
        models where they exist."""
        sys.path.insert(0, str(SRC))
        from safetymap import cnn, lstm  # the program's own loaders

        work = str(self.work)
        found: dict = {}
        checks = {
            "train-lstm": lambda: found.update(lstm=lstm.seq_load(work + "/model.bin")),
            "train-cnn": lambda: found.update(cnn=cnn.cnn_load(work + "/cnn.bin")),
            "predict": lambda: wl.check_predictions(work),
            "evaluate": lambda: found.update(avg_f=wl.read_avg_f(work)),
            "export-map": lambda: wl.check_map(work),
            "sample": lambda: wl.check_samples(work),
            "url-gen": lambda: wl.check_urls(work),
            "extract-features": lambda: wl.check_extracted(work, found["cnn"].config.feature_dim),
            "loss": lambda: found.update(final_loss=wl.read_final_loss(work, wl.LOSS_FILE)),
        }
        for name in [s.name for s in self.w.setup_stages + self.w.stages] + ["loss"]:
            try:
                checks.get(name, lambda: None)()
            except (wl.CheckError, ValueError, KeyError, OSError) as exc:
                self.failures.append(f"{name} output check: {exc}")
        return found


class StageFailed(Exception):
    pass


def stage_rates(work: Path, walls: dict) -> dict:
    """Throughput of each timed stage, from one repetition's wall times."""
    w = str(work)
    rates = {}
    if "train-lstm" in walls:
        rates["train_windows_per_s"] = wl.corridor_shape(w)[1] * wl.EPOCHS / walls["train-lstm"]
    if "predict" in walls:
        rates["predict_images_per_s"] = wl.corridor_shape(w)[0] / walls["predict"]
    if "sample" in walls:
        rates["sample_points_per_s"] = sum(n for n, _ in wl.network_edges(w)) / walls["sample"]
    if "train-cnn" in walls:
        rates["cnn_train_images_per_s"] = wl.N_IMAGES * wl.EPOCHS / walls["train-cnn"]
    if "extract-features" in walls:
        rates["extract_images_per_s"] = wl.N_IMAGES / walls["extract-features"]
    return rates


def computed_counts(workload: wl.Workload, work: Path, found: dict) -> dict:
    """Exact work counts from input and model shapes."""
    stages = {s.name for s in workload.stages}
    w = str(work)
    counts = {k: 0 for k in COMPUTED}
    reads = len(stages & {"train-lstm", "predict"})
    if reads:
        counts["data.feature_mb_read"] = reads * os.path.getsize(work / "features.jsonl") / 1e6
    if "train-lstm" in stages and "lstm" in found:
        model = found["lstm"]
        steps = wl.corridor_shape(w)[1] * wl.EPOCHS * wl.n_groups(model) * wl.WINDOW
        counts["lstm.bptt_train.window_steps"] = steps
        counts["lstm.bptt_train.gflop"] = steps * wl.lstm_step_flops(model)[1] / 1e9
    if "predict" in stages and "lstm" in found:
        images, _, per_stack = wl.corridor_shape(w)
        counts["lstm.predict_corridor.window_steps"] = per_stack * wl.n_groups(found["lstm"])
        counts["lstm.predict_corridor.images_per_step"] = images / per_stack
    if "train-cnn" in stages and "cnn" in found:
        # a backward pass costs two forward GEMMs (kernel and input gradients)
        images = wl.N_IMAGES * (3 * wl.EPOCHS + 1)
        counts["nn.conv2d.gflop"] = images * wl.conv_forward_flops(found["cnn"].config) / 1e9
        counts["data.feature_mb_written"] = os.path.getsize(work / "features.jsonl") / 1e6
    if "sample" in stages:
        counts["geo.sample_points.segment_scans"] = sum(p * s for p, s in wl.network_edges(w))
    return counts


def per_layer(doc: dict, import_s: float, counts: dict) -> tuple[dict, dict]:
    """Per-layer metrics and call-time distributions from the recorded spans."""
    names = doc["names"]
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for idx, start, end, _parent, _run, own in doc["spans"]:
        name = names[idx]
        incl[name] = incl.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + own
        durations.setdefault(name, []).append(end - start)
    out = {k: 0.0 for k in PER_LAYER_UNITS}
    out.update(counts)
    out["cli.import_s"] = import_s
    for key in PER_LAYER_UNITS:
        name, _, kind = key.rpartition(".")
        if kind == "s":
            out[key] = incl.get(name, 0.0)
        elif kind == "self_s":
            out[key] = self_s.get(name, 0.0)
        elif kind == "calls":
            out[key] = len(durations.get(name, ()))
    untraced = sum(r["seconds"][0] for r in doc["stages"])
    traced = sum(r["seconds"][1] for r in doc["stages"])
    out["trace.overhead_s"] = traced - untraced
    out["trace.overhead_frac"] = (traced - untraced) / untraced
    # the measured difference is within stage noise; spans x calibrated cost bounds it
    out["trace.spans"] = len(doc["spans"])
    out["trace.span_cost_s"] = len(doc["spans"]) * doc["span_cost_s"]
    for direction, key in (("read", "attach_features"), ("written", "write_features")):
        secs = incl.get(f"data.{key}", 0.0)
        out[f"data.{key}.mb_per_s"] = counts[f"data.feature_mb_{direction}"] / secs if secs else 0.0
    dists = {name: d for name, ds in durations.items() if (d := distribution(ds))}
    return out, dists


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "safetymap" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'safetymap'}; run from a source checkout",
              file=sys.stderr)
        return 2

    workload = wl.WORKLOADS[args.workload]
    work = WORK_ROOT / f"{workload.name}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(workload: wl.Workload, args, work: Path) -> int:
    bench = Bench(workload, args.seed, work)
    env = environment()
    setups, reps, doc = [], [], None
    try:
        while not setups or (args.trace == 0 and (
                len(setups) < SETUP_MIN_REPS or sum(setups) < SETUP_MIN_S)):
            setups.append(bench.setup())
        import_s = bench.import_time()  # also warms the import caches
        start = time.perf_counter()
        if args.trace:
            doc = bench.traced_pass()
        else:
            while not reps or time.perf_counter() - start < args.seconds:
                reps.append(bench.rep())
    except StageFailed as exc:
        print(f"error: stage {exc} failed: {'; '.join(bench.failures)}", file=sys.stderr)
        return 1
    measured_s = time.perf_counter() - start
    found = bench.check_outputs()
    env["loadavg_end"] = loadavg()
    counts = computed_counts(workload, work, found)
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "repetitions": len(reps), "setup_repetitions": len(setups), "measured_s": measured_s,
        "environment": env, "computed": counts, "digests": bench.digests,
    }
    report = {"setup_s": median(setups), "cli.import_s": import_s, "avg_f": found.get("avg_f"),
              "final_loss": found.get("final_loss")}
    if reps:
        rates = [stage_rates(work, r["walls"]) for r in reps]
        report.update({
            "pipeline_s": median([sum(r["walls"].values()) for r in reps]),
            # the largest stage peak of each repetition; its median resists
            # the occasional allocator outlier a maximum over repetitions keeps
            "peak_rss_mb": median([max(r["rss"].values()) for r in reps]),
            **{k: median([r[k] for r in rates]) for k in rates[0]},
            "stage_s": {s.name: median([r["walls"][s.name] for r in reps]) for s in workload.stages},
            "stage_peak_rss_mb": {s.name: median([r["rss"][s.name] for r in reps]) for s in workload.stages},
        })
        record["repetitions_detail"] = reps
    if doc is not None:
        record["per_layer"], record["distributions"] = per_layer(doc, import_s, counts)
    report["stage_fail_frac"] = len(bench.failures) / bench.attempted
    record["report"], record["failures"] = report, bench.failures
    print_report(record)
    records = WORK_ROOT / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    values = record["per_layer"] if args.trace else report
    if any(values.get(k) is None for k in units):
        print("error: a metric could not be measured", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


REPORT_UNITS = {
    **END_TO_END_UNITS, "final_loss": "1", "train_windows_per_s": "windows/s", "predict_images_per_s": "images/s",
    "sample_points_per_s": "points/s", "cnn_train_images_per_s": "images/s",
    "extract_images_per_s": "images/s", "avg_f": "1", "stage_fail_frac": "1", "cli.import_s": "s",
}


def print_report(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"repetitions {record['repetitions']} over {record['measured_s']:.1f} s  "
          f"setups {record['setup_repetitions']}")
    print(f"env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={(env['blas'] or {}).get('openblas configuration') or (env['blas'] or {}).get('name')} "
          f"blas_threads={STAGE_THREADS} (inherited {env['threads_inherited']}) commit={env['git_commit']}")
    print(f"env: loadavg start [{env['loadavg_start']}] end [{env['loadavg_end']}]")
    print("end-to-end (untraced; medians over repetitions):")
    for key, value in record["report"].items():
        if isinstance(value, dict):
            print(f"  {key}: " + ", ".join(f"{k}={v:.4f}" for k, v in value.items()))
        elif value is not None:
            print(f"  {key:<24} {value:.6g} {REPORT_UNITS[key]}")
    print("computed counts (from shapes, exact):")
    for key, value in sorted(record["computed"].items()):
        if value:
            print(f"  {key:<40} {value:.6g} {PER_LAYER_UNITS[key]}  computed")
    if "per_layer" in record:
        print("per-layer (traced in-process pass):")
        for key, value in record["per_layer"].items():
            if value and key not in COMPUTED:
                print(f"  {key:<40} {value:.6g} {PER_LAYER_UNITS[key]}")
        for name, d in sorted(record["distributions"].items()):
            print(f"  {name}: {d['calls']} calls, p50 {d['p50_us']:.2f} us, "
                  f"p{d['tail_pct']:g} {d['tail_us']:.2f} us")
    print("output digests (sha256, equal across repetitions unless listed below):")
    for name, digest in sorted(record["digests"].items()):
        print(f"  {name:<24} {digest}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")


if __name__ == "__main__":
    sys.exit(main())
