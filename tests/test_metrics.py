"""Tests for precision/recall/F, the weighted average F, and the
isolated-error-correction diagnostic."""

from __future__ import annotations

import numpy as np
import pytest

from safetymap.metrics import (
    class_metrics,
    format_table,
    isolated_error_correction_rate,
    metrics_report,
    warn_if_degenerate,
    weighted_avg_f,
)


def labels_from_counts(tp, fp, fn, tn):
    """Build aligned (prediction, truth) columns realizing the confusion counts."""
    pred = [True] * tp + [True] * fp + [False] * fn + [False] * tn
    truth = [True] * tp + [False] * fp + [True] * fn + [False] * tn
    return np.array(pred), np.array(truth)


def stack3(col_pred, col_truth):
    pred = np.zeros((len(col_pred), 3), dtype=bool)
    truth = np.zeros((len(col_truth), 3), dtype=bool)
    pred[:, 0] = col_pred
    truth[:, 0] = col_truth
    return pred, truth


class TestClassMetrics:
    def test_precision_recall_f_arithmetic(self):
        pred_col, truth_col = labels_from_counts(tp=8, fp=2, fn=2, tn=0)
        pred, truth = stack3(pred_col, truth_col)
        rs, _, _ = class_metrics(pred, truth)
        assert rs.precision == pytest.approx(0.8)
        assert rs.recall == pytest.approx(0.8)
        assert rs.f == pytest.approx(0.8)

    def test_zero_denominator_rule(self):
        pred = np.zeros((5, 3), dtype=bool)
        truth = np.zeros((5, 3), dtype=bool)
        truth[:2, 0] = True
        rs, mcb, cb = class_metrics(pred, truth)
        assert (rs.precision, rs.recall, rs.f) == (0.0, 0.0, 0.0)
        with pytest.warns(UserWarning, match="zero denominator"):
            warn_if_degenerate([rs, mcb, cb])

    def test_perfect_predictions(self):
        rng = np.random.default_rng(0)
        truth = rng.random((20, 3)) < 0.5
        for m in class_metrics(truth, truth):
            if m.tp + m.fn > 0:
                assert (m.precision, m.recall, m.f) == (1.0, 1.0, 1.0)

    def test_counts_partition(self):
        rng = np.random.default_rng(1)
        pred = rng.random((42, 3)) < 0.5
        truth = rng.random((42, 3)) < 0.4
        for m in class_metrics(pred, truth):
            assert m.tp + m.fp + m.fn + m.tn == 42

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        pred = rng.random((30, 3)) < 0.5
        truth = rng.random((30, 3)) < 0.5
        perm = rng.permutation(30)
        assert class_metrics(pred, truth) == class_metrics(pred[perm], truth[perm])


class TestWeightedAvgF:
    def test_published_oxford_fixture(self):
        # separate-mode row on the first test corridor: F 0.96/0.88/0.84,
        # positives 857/279/354
        avg = weighted_avg_f((0.96, 0.88, 0.84), (857, 279, 354))
        assert avg == pytest.approx(0.9165100671140939, abs=1e-12)
        assert round(avg, 2) == 0.92

    def test_published_tuscaloosa_fixture(self):
        avg = weighted_avg_f((0.92, 0.77, 0.76), (879, 403, 784))
        assert avg == pytest.approx(0.8300242013552759, abs=1e-12)
        assert round(avg, 2) == 0.83

    def test_equal_counts_unweighted_mean(self):
        avg = weighted_avg_f((0.9, 0.6, 0.3), (100, 100, 100))
        assert avg == pytest.approx(0.6)

    def test_count_scaling_invariance(self):
        f = (0.91, 0.72, 0.55)
        assert weighted_avg_f(f, (10, 20, 30)) == pytest.approx(
            weighted_avg_f(f, (100, 200, 300))
        )

    def test_bounded_by_extremes(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            f = tuple(rng.random(3))
            counts = tuple(int(c) for c in rng.integers(1, 1000, 3))
            avg = weighted_avg_f(f, counts)
            assert min(f) - 1e-12 <= avg <= max(f) + 1e-12

    def test_published_row_counts(self):
        # the 950-image test table's positives: 857 rs, 279 mcb, 354 cb
        assert weighted_avg_f((0.96, 0.88, 0.84), (857, 279, 354)) == pytest.approx(
            0.9165, abs=5e-5
        )

    def test_all_zero_counts_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            weighted_avg_f((0.5, 0.5, 0.5), (0, 0, 0))


def enumeration_oracle(baseline, seq, truth, run_lengths):
    """Independent hand enumeration of isolated errors and corrections."""
    rates = []
    for k in range(3):
        isolated = []
        start = 0
        for length in run_lengths:
            for t in range(start, start + length):
                if t in (start, start + length - 1):
                    continue
                wrong = baseline[t][k] != truth[t][k]
                left_ok = baseline[t - 1][k] == truth[t - 1][k]
                right_ok = baseline[t + 1][k] == truth[t + 1][k]
                if wrong and left_ok and right_ok:
                    isolated.append(t)
            start += length
        if not isolated:
            rates.append(None)
        else:
            fixed = sum(1 for t in isolated if seq[t][k] == truth[t][k])
            rates.append(fixed / len(isolated))
    return tuple(rates)


class TestIsolatedErrorCorrection:
    def test_single_isolated_error_corrected(self):
        truth = np.zeros((3, 3), dtype=bool)
        baseline = truth.copy()
        baseline[1, 0] = True  # wrong in the middle, correct neighbors
        seq = truth.copy()
        rates = isolated_error_correction_rate(baseline, seq, truth, run_lengths=[3])
        assert rates[0] == 1.0
        assert rates[1] is None and rates[2] is None

    def test_no_isolated_errors_is_none(self):
        truth = np.zeros((5, 3), dtype=bool)
        rates = isolated_error_correction_rate(truth, truth, truth, run_lengths=[5])
        assert rates == (None, None, None)

    def test_adjacent_errors_not_isolated(self):
        truth = np.zeros((5, 3), dtype=bool)
        baseline = truth.copy()
        baseline[1, 0] = baseline[2, 0] = True  # two-wide error
        rates = isolated_error_correction_rate(baseline, truth, truth, run_lengths=[5])
        assert rates[0] is None

    def test_run_boundaries_excluded(self):
        truth = np.zeros((6, 3), dtype=bool)
        baseline = truth.copy()
        baseline[3, 0] = True  # first element of the second run
        rates = isolated_error_correction_rate(baseline, truth, truth, run_lengths=[3, 3])
        assert rates[0] is None

    def test_matches_enumeration_oracle_on_noisy_fixture(self):
        rng = np.random.default_rng(4)
        n = 100
        truth = rng.random((n, 3)) < 0.5
        baseline = truth.copy()
        flips = rng.choice(n, size=5, replace=False)  # ~5% injected noise
        for t in flips:
            baseline[t, rng.integers(3)] ^= True
        seq = baseline.copy()
        fix = rng.random((n, 3)) < 0.5
        seq[fix] = truth[fix]
        run_lengths = [40, 35, 25]
        got = isolated_error_correction_rate(baseline, seq, truth, run_lengths)
        want = enumeration_oracle(baseline.tolist(), seq.tolist(), truth.tolist(), run_lengths)
        assert got == want


class TestReports:
    def _metrics(self):
        pred_col, truth_col = labels_from_counts(tp=8, fp=2, fn=2, tn=3)
        pred, truth = stack3(pred_col, truth_col)
        pred[:, 1] = truth_col  # make mcb perfect
        truth[:, 1] = truth_col
        return class_metrics(pred, truth)

    def test_report_schema(self):
        metrics = self._metrics()
        doc = metrics_report(metrics, (10, 10, 10))
        for name in ("rs", "mcb", "cb"):
            assert set(doc[name]) == {"precision", "recall", "f", "tp", "fp", "fn", "tn"}
        assert "avg_f" in doc
        assert doc["avg_f"] == pytest.approx(
            weighted_avg_f([m.f for m in metrics], (10, 10, 10)), abs=1e-6
        )

    def test_table_layout(self):
        metrics = self._metrics()
        table = format_table(metrics, (10, 10, 10))
        lines = table.splitlines()
        assert lines[0].split() == ["Class", "Precision", "Recall", "F"]
        assert lines[1].startswith("RS")
        assert lines[-1].startswith("Avg. F")
