"""Traced in-process pass: run CLI stages through `safetymap.cli.main(argv)`
with span-recording wrappers around the package's public layer functions.

Usage: python perfbench/tracer.py SPEC_JSON SPANS_JSON

SPEC_JSON holds {"stages": [[stage_name, argv, output_files], ...]}. Each
stage runs twice in this process, untraced and then traced, so the
difference of the two is the tracing overhead. Spans are kept in memory and
written to SPANS_JSON at the end as {"names": [...], "spans": [[name_idx,
start, end, parent_id, run_id, self_s], ...], "stages": [{"stage",
"exit_codes", "seconds", "digests"} per stage, untraced then traced]}; a
span's id is its index in "spans", in order of opening, and its run id is
the index of its stage. "span_cost_s" is the calibrated cost of one span.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time

# Functions wrapped at their module attributes. The package calls them
# through the module (`nn.adam_step`, `lstm.bptt_train`), so every call is
# seen. Per-vertex helpers such as geo.haversine_m are left unwrapped:
# their cost shows in the caller's self time.
WRAPPED = {
    "lstm": ("bptt_train", "predict_corridor", "seq_save", "seq_load"),
    "cnn": ("cnn_train", "extract_features", "cnn_save", "cnn_load"),
    "nn": (
        "adam_step", "dropout_mask", "bce_loss", "bce_grad_from_logits", "sigmoid", "relu",
        "conv2d_forward", "conv2d_backward", "maxpool2d_forward", "maxpool2d_backward",
        "dense_forward", "dense_backward",
    ),
    "data": ("attach_features", "write_features", "load_pixels", "load_labels", "build_sequences"),
    "geo": ("sample_points", "heading_at", "streetview_request_url", "export_prediction_geojson"),
    "metrics": ("class_metrics", "metrics_report"),
}


class SpanRecorder:
    """Records (name, start, end, parent, run, self time) for nested calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []  # ids of open spans
        self._child_s: list[float] = []  # time covered by children of each open span
        self.run_id = 0

    def span(self, name: str, fn):
        idx = self._name_idx.setdefault(name, len(self._name_idx))
        if idx == len(self.names):
            self.names.append(name)
        spans, stack, child_s = self.spans, self._stack, self._child_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            record = [idx, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, 0.0]
            spans.append(record)
            stack.append(sid)
            child_s.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                covered = child_s.pop()
                if child_s:
                    child_s[-1] += end - start
                record[1], record[2], record[5] = start, end, end - start - covered

        return wrapper


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(spec_path: str, spans_path: str) -> int:
    from safetymap import cli

    with open(spec_path, encoding="utf-8") as fh:
        stages = json.load(fh)["stages"]
    rec = SpanRecorder()
    originals = {}
    for module_name, functions in WRAPPED.items():
        module = importlib.import_module(f"safetymap.{module_name}")
        for fn_name in functions:
            fn = getattr(module, fn_name)
            originals[(module, fn_name)] = (fn, rec.span(f"{module_name}.{fn_name}", fn))

    def install(traced: bool) -> None:
        for (module, fn_name), (plain, wrapped) in originals.items():
            setattr(module, fn_name, wrapped if traced else plain)

    # Each stage runs untraced, then traced; the difference is the overhead.
    results = []
    for run_id, (stage, argv, outputs) in enumerate(stages):
        result = {"stage": stage, "exit_codes": [], "seconds": [], "digests": []}
        results.append(result)
        for traced in (False, True):
            install(traced)
            rec.run_id = run_id
            main_fn = rec.span(f"cli.{stage}", cli.main) if traced else cli.main
            start = time.perf_counter()
            code = main_fn(argv)
            result["seconds"].append(time.perf_counter() - start)
            result["exit_codes"].append(code)
            if code != 0:
                break
            result["digests"].append({out: sha256(out) for out in outputs})
        if code != 0:
            break
    install(False)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"names": rec.names, "spans": rec.spans, "stages": results,
                   "span_cost_s": span_cost_s()}, fh)
    return 0


def span_cost_s(calls: int = 100_000) -> float:
    """Median extra seconds one recorded span adds to a call, over 5 trials."""
    def noop():
        return None

    wrapped = SpanRecorder().span("noop", noop)
    costs = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        mid = time.perf_counter()
        for _ in range(calls):
            noop()
        costs.append(((mid - start) - (time.perf_counter() - mid)) / calls)
    return sorted(costs)[2]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
