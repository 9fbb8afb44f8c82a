"""Evaluation: per-class precision/recall/F, count-weighted average F, and
the isolated-error-correction diagnostic for sequence models."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import CLASS_NAMES


@dataclass(frozen=True)
class ClassMetrics:
    name: str
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp > 0 else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn > 0 else 0.0

    @property
    def f(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


def class_metrics(predictions: np.ndarray, truth: np.ndarray) -> tuple[ClassMetrics, ClassMetrics, ClassMetrics]:
    """Tally confusion counts independently per class from (n, 3) boolean arrays."""
    predictions = np.asarray(predictions, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if predictions.shape != truth.shape:
        raise ValueError(
            f"length mismatch: predictions {predictions.shape} vs truth {truth.shape}"
        )
    if predictions.ndim != 2 or predictions.shape[1] != 3:
        raise ValueError(f"expected (n, 3) label arrays, got {predictions.shape}")
    out = []
    for k, name in enumerate(CLASS_NAMES):
        p, t = predictions[:, k], truth[:, k]
        out.append(
            ClassMetrics(
                name=name,
                tp=int(np.sum(p & t)),
                fp=int(np.sum(p & ~t)),
                fn=int(np.sum(~p & t)),
                tn=int(np.sum(~p & ~t)),
            )
        )
    return tuple(out)  # type: ignore[return-value]


def weighted_avg_f(f_scores: Sequence[float], counts: Sequence[int]) -> float:
    """Average the three per-class F-scores weighted by ground-truth positive counts."""
    if len(f_scores) != 3 or len(counts) != 3:
        raise ValueError("expected three F-scores and three counts")
    total = sum(counts)
    if total <= 0:
        raise ValueError("all class counts are zero")
    return sum(f * w for f, w in zip(f_scores, counts)) / total


def isolated_error_correction_rate(
    baseline: np.ndarray,
    sequence_model: np.ndarray,
    truth: np.ndarray,
    run_lengths: Sequence[int],
) -> tuple[float | None, float | None, float | None]:
    """Fraction of the baseline's isolated errors the sequence model fixes, per class.

    The records fall into consecutive runs of run_lengths records each. An
    isolated error is a baseline misclassification whose both neighbors
    (within the same run) are baseline-correct; run boundary positions are
    excluded. Classes with no isolated errors report None rather than 0.
    """
    baseline = np.asarray(baseline, dtype=bool)
    sequence_model = np.asarray(sequence_model, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if not (baseline.shape == sequence_model.shape == truth.shape):
        raise ValueError(
            f"length mismatch: baseline {baseline.shape}, "
            f"sequence {sequence_model.shape}, truth {truth.shape}"
        )
    n = baseline.shape[0]
    if sum(run_lengths) != n:
        raise ValueError(f"run lengths sum {sum(run_lengths)} != {n} records")
    rates = []
    for k in range(3):
        base_ok = baseline[:, k] == truth[:, k]
        seq_ok = sequence_model[:, k] == truth[:, k]
        isolated = 0
        corrected = 0
        start = 0
        for length in run_lengths:
            for t in range(start + 1, start + length - 1):
                if not base_ok[t] and base_ok[t - 1] and base_ok[t + 1]:
                    isolated += 1
                    corrected += int(seq_ok[t])
            start += length
        rates.append(corrected / isolated if isolated else None)
    return tuple(rates)  # type: ignore[return-value]


def metrics_report(metrics: Sequence[ClassMetrics], counts: Sequence[int]) -> dict:
    """Machine-readable report: per-class counts and scores plus the weighted F."""
    doc: dict = {}
    for m in metrics:
        doc[m.name] = {
            "precision": round(m.precision, 6),
            "recall": round(m.recall, 6),
            "f": round(m.f, 6),
            "tp": m.tp,
            "fp": m.fp,
            "fn": m.fn,
            "tn": m.tn,
        }
    doc["avg_f"] = round(weighted_avg_f([m.f for m in metrics], counts), 6)
    return doc


def format_table(metrics: Sequence[ClassMetrics], counts: Sequence[int]) -> str:
    """Human-readable table: Class, Precision, Recall, F, and the average F."""
    lines = [f"{'Class':<6} {'Precision':>9} {'Recall':>9} {'F':>9}"]
    for m in metrics:
        lines.append(f"{m.name.upper():<6} {m.precision:>9.2f} {m.recall:>9.2f} {m.f:>9.2f}")
    lines.append(f"{'Avg. F':<6} {weighted_avg_f([m.f for m in metrics], counts):>29.2f}")
    return "\n".join(lines)


def warn_if_degenerate(metrics: Sequence[ClassMetrics]) -> None:
    """Emit a warning for any class where a zero denominator forced a 0 score."""
    for m in metrics:
        if m.tp + m.fp == 0 or m.tp + m.fn == 0:
            warnings.warn(
                f"class {m.name}: zero denominator, precision/recall reported as 0",
                stacklevel=2,
            )
