"""Evaluation: per-class precision/recall/F, count-weighted average F, and
the isolated-error-correction diagnostic for sequence models."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

from . import CLASS_NAMES

# n rows of three labels, each read as bool: tuples, lists or an (n, 3) array
LabelRows = Sequence[Sequence[bool]]


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


def class_metrics(
    predictions: LabelRows, truth: LabelRows
) -> tuple[ClassMetrics, ClassMetrics, ClassMetrics]:
    """Tally confusion counts independently per class from two row-aligned
    label tables of one length (cli._align_to_truth checks it)."""
    tallies = [[0, 0, 0, 0] for _ in CLASS_NAMES]  # tp, fp, fn, tn
    for predicted, true in zip(predictions, truth):
        for k, tally in enumerate(tallies):
            tally[2 * (not predicted[k]) + (not true[k])] += 1
    out = tuple(ClassMetrics(name, *tally) for name, tally in zip(CLASS_NAMES, tallies))
    return out  # type: ignore[return-value]


def weighted_avg_f(f_scores: Sequence[float], counts: Sequence[int]) -> float:
    """Average the three per-class F-scores weighted by ground-truth positive counts."""
    total = sum(counts)
    if total <= 0:
        raise ValueError("all class counts are zero")
    return sum(f * w for f, w in zip(f_scores, counts)) / total


def isolated_error_correction_rate(
    baseline: LabelRows,
    sequence_model: LabelRows,
    truth: LabelRows,
    run_lengths: Sequence[int],
) -> tuple[float | None, float | None, float | None]:
    """Fraction of the baseline's isolated errors the sequence model fixes, per class.

    The three label tables of n rows are row-aligned, and the records fall
    into consecutive runs of run_lengths records each, summing to n. An
    isolated error is a baseline misclassification whose both neighbors
    (within the same run) are baseline-correct; run boundary positions are
    excluded. Classes with no isolated errors report None rather than 0.
    """
    rates = []
    for k in range(len(CLASS_NAMES)):
        base_ok = [bool(b[k]) == bool(t[k]) for b, t in zip(baseline, truth)]
        seq_ok = [bool(s[k]) == bool(t[k]) for s, t in zip(sequence_model, truth)]
        isolated = 0
        corrected = 0
        start = 0
        for length in run_lengths:
            for t in range(start + 1, start + length - 1):
                if not base_ok[t] and base_ok[t - 1] and base_ok[t + 1]:
                    isolated += 1
                    corrected += seq_ok[t]
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
