"""Tests for the packed LSTM kernel, the sequence stack, BPTT training, and
corridor prediction."""

from __future__ import annotations

import copy
import itertools
import json
import logging
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import WORKERS, assert_no_child_left, grad_check, sequence_model
from hypothesis import given
from hypothesis import strategies as st

from safetymap.config import PipelineConfig
from safetymap.data import build_sequences, synth_corridor
from safetymap.geo import LatLon
from safetymap.data import ImageRecord
from safetymap import fork, lstm
from safetymap.lstm import (
    bptt_train,
    init_sequence_model,
    packed_forward,
    packed_loss_and_grads,
    predict_corridor,
    seq_load,
    seq_save,
)
from safetymap.nn import dropout_mask, glorot_uniform, relu, sigmoid


def cell_oracle(params, x, h_prev, c_prev):
    """Straight-line scalar transcription of the gate equations.

    Written independently of the vectorized implementation: plain Python
    loops and math.exp/math.tanh only.
    """

    def logistic(v):
        return 1.0 / (1.0 + math.exp(-v))

    hidden = len(h_prev)

    def gate(wk, uk, bk, squash):
        vals = []
        for r in range(hidden):
            acc = float(params[bk][r])
            for c in range(hidden):
                acc += float(params[wk][r][c]) * h_prev[c]
            for c in range(len(x)):
                acc += float(params[uk][r][c]) * x[c]
            vals.append(squash(acc))
        return vals

    f = gate("W_f", "U_f", "b_f", logistic)
    i = gate("W_i", "U_i", "b_i", logistic)
    o = gate("W_o", "U_o", "b_o", logistic)
    u = gate("W_u", "U_u", "b_u", math.tanh)
    c = [f[r] * c_prev[r] + i[r] * u[r] for r in range(hidden)]
    h = [o[r] * math.tanh(c[r]) for r in range(hidden)]
    return h, c


def reference_forward(params, xs):
    """The hidden states (steps, hidden) of one group's per-gate W_g/U_g/b_g
    cell run over xs (steps, input_dim) from a zero state, one gate at a time."""
    h = c = np.zeros(params["W_f"].shape[0])
    hs = []
    for x in xs:
        z = {g: params[f"W_{g}"] @ h + params[f"U_{g}"] @ x + params[f"b_{g}"] for g in "fiou"}
        c = sigmoid(z["f"]) * c + sigmoid(z["i"]) * np.tanh(z["u"])
        h = sigmoid(z["o"]) * np.tanh(c)
        hs.append(h)
    return np.array(hs)


def oracle_deviation(groups, xs, fw):
    """Check every step t >= 1 of a cached packed_forward over windows xs
    (G, B, T, d) of the per-gate groups against cell_oracle, started from
    the kernel's own state at t - 1. Returns the worst deviation of h and c
    and the largest |c| among the prior states checked."""
    worst = 0.0
    for k, group in enumerate(groups):
        for b in range(xs.shape[1]):
            for t in range(1, xs.shape[2]):
                prev = fw.H[t - 1, k, b], fw.C[t - 1, k, b]
                h_ref, c_ref = cell_oracle(group, list(xs[k, b, t]), *map(list, prev))
                worst = max(
                    worst,
                    float(np.max(np.abs(fw.H[t, k, b] - h_ref))),
                    float(np.max(np.abs(fw.C[t, k, b] - c_ref))),
                )
    return worst, float(np.max(np.abs(fw.C[:-1])))


def random_params(rng, hidden, input_dim):
    return {
        **{f"W_{g}": rng.normal(size=(hidden, hidden)) for g in "fiou"},
        **{f"U_{g}": rng.normal(size=(hidden, input_dim)) for g in "fiou"},
        **{f"b_{g}": rng.normal(size=hidden) for g in "fiou"},
    }


def pack_gates(groups):
    """Per-gate W_g/U_g/b_g dicts, one per group, as the packed wp, up and bp
    the kernel takes: the gates f, i, o, u stacked along the rows."""
    return {
        packed: np.stack([np.concatenate([group[f"{key}_{g}"] for g in "fiou"]) for group in groups])
        for key, packed in (("W", "wp"), ("U", "up"), ("b", "bp"))
    }


def kernel(params, xs):
    """The cached packed_forward over windows xs (G, B, T, d)."""
    return packed_forward(params, lstm._project(params, xs))


def gate_params(params, k):
    """Group k of packed sequence-model params as the per-gate W_g/U_g/b_g
    dict that cell_oracle and reference_forward take, plus the head: views
    of the row blocks of wp, up and bp (gates f, i, o, u) and of the head
    tensors."""
    hidden = params["wp"].shape[2]
    group = {}
    for j, g in enumerate("fiou"):
        rows = slice(j * hidden, (j + 1) * hidden)
        for key, packed in (("W", "wp"), ("U", "up"), ("b", "bp")):
            group[f"{key}_{g}"] = params[packed][k, rows]
    for key in ("mid.w", "mid.b", "out.w", "out.b"):
        group[key] = params[key][k]
    return group


def window_probs(model, xs):
    """Per-step class probabilities (steps, 3) of one window xs (steps, d):
    corridor prediction over a run that is exactly that window."""
    records, _ = feature_records(len(xs), np.random.default_rng(0), dim=xs.shape[1])
    return predict_corridor(model, records, xs, window=len(xs), threshold=0.5)[0]


def zero_params(hidden, input_dim):
    """One group's packed kernel parameters, all zero."""
    rows = 4 * hidden
    return {"wp": np.zeros((1, rows, hidden)), "up": np.zeros((1, rows, input_dim)), "bp": np.zeros((1, rows))}


class TestCellStep:
    """Single steps of the packed kernel, read from its BPTT cache: Z holds
    the squashed gates f, i, o, u, C the cells and H the hidden states."""

    def test_zero_params_zero_state(self):
        fw = kernel(zero_params(4, 3), np.zeros((1, 1, 1, 3)))
        f, i, o, u = fw.Z[0]
        assert np.all(f == 0.5) and np.all(i == 0.5) and np.all(o == 0.5)
        assert np.all(u == 0.0)
        assert np.all(fw.C == 0.0) and np.all(fw.H == 0.0)

    def test_zero_params_carried_cell(self):
        # two saturated steps (every gate 1, candidate 1) build c = 2; a
        # third with zero pre-activations halves it: c = 1, h = tanh(1) / 2
        ux = np.zeros((1, 1, 3, 4))
        ux[0, 0, :2] = 40.0
        fw = packed_forward(zero_params(1, 1), ux)
        assert fw.C[:, 0, 0, 0].tolist() == [1.0, 2.0, 1.0]
        assert fw.H[2, 0, 0, 0] == pytest.approx(0.3807970779778824, abs=1e-12)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(1)
        groups = [random_params(rng, 4, 3) for _ in range(2)]
        xs = rng.normal(size=(2, 2, 26, 3))
        worst, _ = oracle_deviation(groups, xs, kernel(pack_gates(groups), xs))
        assert worst <= 1e-12

    def test_hidden_bounded(self):
        rng = np.random.default_rng(3)
        group = random_params(rng, 6, 2)
        group["b_f"] += 4.0  # forget little, so the cells grow
        fw = kernel(pack_gates([group]), rng.normal(size=(1, 3, 50, 2)) * 3)
        assert np.max(np.abs(fw.C)) > 5.0
        assert np.all(np.abs(fw.H) <= 1.0)

    def test_forget_gate_clamp(self):
        rng = np.random.default_rng(4)
        group = random_params(rng, 5, 3)
        group["b_f"] = np.full(5, -100.0)
        fw = kernel(pack_gates([group]), rng.normal(size=(1, 2, 6, 3)))
        _, i, _, u = fw.Z.transpose(1, 0, 2, 3, 4)
        assert np.max(np.abs(fw.C - i * u)) < 1e-6


class TestLstmForward:
    def test_single_step(self):
        rng = np.random.default_rng(5)
        group = random_params(rng, 4, 3)
        xs = rng.normal(size=(1, 1, 1, 3))
        fw = kernel(pack_gates([group]), xs)
        h_ref, c_ref = cell_oracle(group, list(xs[0, 0, 0]), [0.0] * 4, [0.0] * 4)
        assert np.max(np.abs(fw.H[0, 0, 0] - h_ref)) <= 1e-12
        assert np.max(np.abs(fw.C[0, 0, 0] - c_ref)) <= 1e-12

    def test_zero_params_all_zero(self):
        fw = kernel(zero_params(4, 3), np.random.default_rng(6).normal(size=(1, 2, 7, 3)))
        assert np.all(fw.H == 0.0)

    def test_packed_path_matches_cell_path(self):
        rng = np.random.default_rng(9)
        model = sequence_model("separate", input_dim=4, hidden=5, seed=9)
        params = [random_params(rng, 5, 4) for _ in range(3)]
        for k, group in enumerate(params):
            view = gate_params(model.params, k)
            for key, value in group.items():
                view[key][:] = value
        xs = rng.normal(size=(3, 2, 8, 4))  # a different pair of windows per group
        H = kernel(model.params, xs).H
        for k, group in enumerate(params):
            for b in range(2):
                assert np.allclose(H[:, k, b], reference_forward(group, xs[k, b]), atol=1e-14)


class TestSequenceForward:
    def test_zero_model_all_half(self):
        model = sequence_model("shared", input_dim=4, hidden=5, mid_dim=6, seed=0)
        for value in model.params.values():
            value[...] = 0.0
        probs = window_probs(model, np.random.default_rng(0).normal(size=(7, 4)))
        assert np.all(probs == 0.5)

    def test_separate_zero_models_all_half(self):
        model = sequence_model("separate", input_dim=4, hidden=5, mid_dim=6, seed=0)
        for value in model.params.values():
            value[...] = 0.0
        probs = window_probs(model, np.random.default_rng(1).normal(size=(7, 4)))
        assert probs.shape == (7, 3)
        assert np.all(probs == 0.5)

    def test_inference_deterministic(self):
        model = sequence_model("shared", input_dim=4, hidden=5, seed=2)
        xs = np.random.default_rng(3).normal(size=(6, 4))
        assert np.array_equal(window_probs(model, xs), window_probs(model, xs))


def per_gate_init(mode, input_dim, hidden, mid_dim, seed):
    """Each group's parameters drawn one gate matrix at a time, in the
    order init_sequence_model documents: per group k its own stream
    SeedSequence([seed, k]); per gate f, i, o, u a Glorot W then U; then
    mid.w and out.w. Biases are zero, but the forget gate's are 1."""
    out_dim = 3 if mode == "shared" else 1
    groups = []
    for k in range(1 if mode == "shared" else 3):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        group = {}
        for g in "fiou":
            group[f"W_{g}"] = glorot_uniform(rng, (hidden, hidden), hidden, hidden)
            group[f"U_{g}"] = glorot_uniform(rng, (hidden, input_dim), input_dim, hidden)
            group[f"b_{g}"] = np.ones(hidden) if g == "f" else np.zeros(hidden)
        group["mid.w"] = glorot_uniform(rng, (mid_dim, hidden), hidden, mid_dim)
        group["mid.b"] = np.zeros(mid_dim)
        group["out.w"] = glorot_uniform(rng, (out_dim, mid_dim), mid_dim, out_dim)
        group["out.b"] = np.zeros(out_dim)
        groups.append(group)
    return groups


class TestInit:
    @pytest.mark.parametrize("mode", ["shared", "separate"])
    @pytest.mark.parametrize("input_dim, hidden, mid_dim", [(16, 100, 50), (250, 12, 7), (3, 4, 5)])
    def test_matches_per_gate_draws(self, mode, input_dim, hidden, mid_dim):
        model = init_sequence_model(mode, input_dim, hidden, mid_dim, 0.2, 42)
        expected = per_gate_init(mode, input_dim, hidden, mid_dim, seed=42)
        assert len(model.params["wp"]) == len(expected)
        for k, group in enumerate(expected):
            got = gate_params(model.params, k)
            assert got.keys() == group.keys()
            for key, value in group.items():
                assert np.array_equal(got[key], value), (k, key)


def summed_loss(xs, labels, masks=None):
    """The packed kernel as grad_check wants it: one scalar, the sum of the
    groups' losses, whose gradient on group k's slices is group k's own."""

    def loss_and_grads(params):
        losses, grads = packed_loss_and_grads(params, xs, labels, masks)
        return float(losses.sum()), grads

    return loss_and_grads


class TestGradients:
    def test_full_stack_gradient_check(self):
        rng = np.random.default_rng(10)
        model = sequence_model("shared", input_dim=3, hidden=4, mid_dim=5, seed=11)
        xs = rng.normal(size=(1, 1, 5, 3))
        labels = (rng.random((1, 1, 5, 3)) < 0.5).astype(np.float64)
        assert grad_check(summed_loss(xs, labels), model.params) < 1e-4

    def test_single_output_stack_gradient_check(self):
        # separate mode: three 1-output stacks, two windows each, fixed dropout masks
        rng = np.random.default_rng(12)
        model = sequence_model("separate", input_dim=3, hidden=4, mid_dim=5, seed=13)
        xs = rng.normal(size=(3, 2, 5, 3))
        labels = (rng.random((3, 2, 5, 1)) < 0.5).astype(np.float64)
        masks = dropout_mask(rng, (3, 2, 5, 4), 0.2)
        assert grad_check(summed_loss(xs, labels, masks), model.params) < 1e-4


def corridor_sequences(n_points, seed, window=50, stride=10):
    """A synthetic corridor's records and features, and the start indices of
    its training windows."""
    records, features = synth_corridor(PipelineConfig(n_points=n_points), seed)
    return records, features, build_sequences(records, window, stride)


class TestBpttTrain:
    def test_corridor_training_loss(self):
        records, features, starts = corridor_sequences(2000, seed=0)
        model = sequence_model("shared", input_dim=16, hidden=32, seed=1)
        history = bptt_train(
            model, records, features, starts, 50, lr=1e-3, epochs=30, seed=2, workers=WORKERS
        )
        assert history[-1] < 0.15

    def test_zero_epochs_unchanged(self):
        records, features, starts = corridor_sequences(200, seed=3, window=20)
        model = sequence_model("shared", input_dim=16, hidden=8, seed=4)
        before = copy.deepcopy(model.params)
        history = bptt_train(model, records, features, starts, 20, lr=1e-3, epochs=0, seed=0)
        assert history == []
        for key, value in before.items():
            assert np.array_equal(model.params[key], value)

    def test_seed_reproducibility(self):
        records, features, starts = corridor_sequences(200, seed=5, window=20)

        def run(seed):
            model = sequence_model("shared", input_dim=16, hidden=8, seed=6)
            return bptt_train(model, records, features, starts, 20, lr=1e-3, epochs=2, seed=seed)

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_separate_class_isolated_from_other_labels(self):
        from dataclasses import replace

        records, features, _ = corridor_sequences(300, seed=11, window=20)
        rng = np.random.default_rng(12)
        permuted = []
        for r in records:
            rs, mcb, cb = r.labels
            # scramble the rs and cb labels, keep mcb
            permuted.append(replace(r, labels=(bool(rng.random() < 0.5), mcb, bool(rng.random() < 0.5))))
        starts = build_sequences(records, 20, 10)
        assert np.array_equal(build_sequences(permuted, 20, 10), starts)
        cfg = dict(lr=1e-3, epochs=2, seed=13)
        model_a = sequence_model("separate", input_dim=16, hidden=8, seed=14)
        model_b = sequence_model("separate", input_dim=16, hidden=8, seed=14)
        bptt_train(model_a, records, features, starts, 20, **cfg)
        bptt_train(model_b, permuted, features, starts, 20, **cfg)
        mcb = 1  # separate mode's groups follow CLASS_NAMES
        for key, value in model_a.params.items():
            assert np.array_equal(value[mcb], model_b.params[key][mcb]), key

    def test_separate_lockstep_matches_each_stack_alone(self):
        records, features, starts = corridor_sequences(150, seed=15, window=20, stride=5)
        seed = 16
        model = sequence_model("separate", input_dim=16, hidden=8, seed=17)
        initial = {key: value.copy() for key, value in model.params.items()}
        bptt_train(model, records, features, starts, 20, lr=1e-3, epochs=2, seed=seed)
        windows, targets = lstm._windows("separate", records, features, 20)
        for k in range(3):
            alone = {key: value[k : k + 1].copy() for key, value in initial.items()}
            rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
            lstm._fit(
                alone, windows, targets[k : k + 1], starts, [rng], model.dropout_rate,
                lr=1e-3, epochs=2,
            )
            for key, value in alone.items():
                assert np.array_equal(value[0], model.params[key][k]), (k, key)


class TestWorkers:
    """bptt_train's `workers`: contiguous parts of the groups, part 0 trained
    here and each other part in a forked child, and the handoff of this
    process's last group to a worker that is done."""

    STEPS = 24  # 12 windows, 2 epochs

    def train(self, mode="separate", **kw):
        records, features, starts = corridor_sequences(150, seed=21, window=20, stride=5)
        model = sequence_model(mode, input_dim=16, hidden=8, dropout_rate=0.2, seed=22)
        history = bptt_train(
            model, records, features, starts[:12], 20, lr=1e-3, epochs=2, seed=23, **kw
        )
        return model, history

    def test_split_changes_no_bit(self):
        model, history = self.train(workers=1)
        for workers in (2, 3, 5):
            split, split_history = self.train(workers=workers)
            assert_no_child_left()
            assert split_history == history, workers
            for key, value in model.params.items():
                assert np.array_equal(split.params[key], value), (workers, key)

    @pytest.mark.parametrize("mode, workers", [("shared", 4), ("separate", 1)])
    def test_one_part_forks_nothing(self, monkeypatch, mode, workers):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        self.train(mode, workers=workers)

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_exception_reaches_caller(self, monkeypatch, where):
        parent, fit = os.getpid(), lstm._fit

        def failing_fit(*args, **kw):
            if (os.getpid() == parent) == (where == "parent"):
                raise ValueError(f"fit failed in the {where}")
            return fit(*args, **kw)

        monkeypatch.setattr(lstm, "_fit", failing_fit)
        with pytest.raises(ValueError, match=f"^fit failed in the {where}$"):
            self.train(workers=2)
        assert_no_child_left()

    @staticmethod
    def idle_at(monkeypatch, step):
        """Report the worker idle at the given step's boundary alone: at
        workers=2 this process asks once a step while it steps groups 0 and 1."""
        calls = itertools.count()
        monkeypatch.setattr(fork.Worker, "ready", lambda worker: next(calls) == step)

    @pytest.mark.parametrize(
        "step", [0, 5, 11, 12, 23],
        ids=["first-step", "mid-epoch", "last-of-epoch-1", "epoch-boundary", "last-step"],
    )
    def test_handoff_changes_no_bit(self, monkeypatch, caplog, step):
        # a worker that has not answered yet is waited for, so any step works
        model, history = self.train(workers=1)
        self.idle_at(monkeypatch, step)
        with caplog.at_level(logging.INFO, logger="safetymap.lstm"):
            moved, moved_history = self.train(workers=2)
        assert_no_child_left()
        moved_line = f"separate model: group 1 moved to 1 worker at step {step} of {self.STEPS}"
        assert moved_line in caplog.messages
        assert moved_history == history
        for key, value in model.params.items():
            assert np.array_equal(moved.params[key], value), key

    @pytest.mark.parametrize(
        "mode, workers, checks",
        [("separate", 2, STEPS), ("separate", 1, 0), ("separate", 3, 0), ("shared", 2, 0)],
    )
    def test_idle_check_once_a_step_while_two_groups_are_here(
        self, monkeypatch, mode, workers, checks
    ):
        calls = itertools.count()
        monkeypatch.setattr(fork.Worker, "ready", lambda worker: next(calls) < 0)
        self.train(mode, workers=workers)
        assert next(calls) == checks

    @pytest.mark.parametrize("failure", ["exception", "warning"])
    def test_resumed_group_failure_reaches_caller(self, monkeypatch, failure):
        parent, fit = os.getpid(), lstm._fit

        def resumed_fit(*args, state=None, **kw):
            if os.getpid() != parent and state.t > 0:  # the group handed over
                if failure == "exception":
                    raise ValueError("resumed fit failed")
                warnings.warn("from a resumed group", RuntimeWarning)
            return fit(*args, state=state, **kw)

        monkeypatch.setattr(lstm, "_fit", resumed_fit)
        self.idle_at(monkeypatch, 7)
        if failure == "exception":
            with pytest.raises(ValueError, match="^resumed fit failed$"):
                self.train(workers=2)
        else:
            with pytest.warns(RuntimeWarning, match="^from a resumed group$"):
                self.train(workers=2)
        assert_no_child_left()

    def test_child_warning_reaches_caller(self, monkeypatch):
        parent, fit = os.getpid(), lstm._fit

        def warning_fit(*args, **kw):
            if os.getpid() != parent:
                warnings.warn("from a worker", RuntimeWarning)
            return fit(*args, **kw)

        monkeypatch.setattr(lstm, "_fit", warning_fit)
        with pytest.warns(RuntimeWarning, match="^from a worker$"):
            self.train(workers=3)
        assert_no_child_left()


def reference_window_probs(model, xs):
    """Per-step class probabilities of one window from the per-gate
    reference_forward and a straight transcription of the head, group by group."""
    out = np.empty((xs.shape[0], 3))
    for k in range(len(model.params["wp"])):
        group = gate_params(model.params, k)
        hs = reference_forward(group, xs)
        a_mid = relu(hs @ group["mid.w"].T + group["mid.b"])
        p = sigmoid(a_mid @ group["out.w"].T + group["out.b"])
        if model.mode == "shared":
            return p
        out[:, k] = p[:, 0]
    return out


def reference_corridor_probs(model, feats, window):
    """Overlapping-window mean over one gapless run's features, one window at a time."""
    n = len(feats)
    if n < window:
        return reference_window_probs(model, feats)
    sums = np.zeros((n, 3))
    counts = np.zeros((n, 1))
    for s in range(n - window + 1):
        sums[s : s + window] += reference_window_probs(model, feats[s : s + window])
        counts[s : s + window] += 1.0
    return sums / counts


def feature_records(n, rng, edge="e1", start=0, dim=4):
    """A gapless run of n records on one edge and their (n, dim) features."""
    records = [
        ImageRecord(
            image_id=f"{edge}-{start + i}",
            edge_id=edge,
            seq_index=start + i,
            location=LatLon(33.0, -87.0 + 1e-4 * (start + i)),
            labels=(False, False, False),
        )
        for i in range(n)
    ]
    return records, rng.normal(size=(n, dim))


def join_runs(runs):
    """The records and features of several (records, features) runs, in order."""
    return [r for records, _ in runs for r in records], np.concatenate([f for _, f in runs])


class TestPredictCorridor:
    def test_single_window_is_identity(self):
        rng = np.random.default_rng(15)
        records, feats = feature_records(6, rng)
        model = sequence_model("shared", input_dim=4, hidden=5, seed=16)
        probs, labels = predict_corridor(model, records, feats, window=6, threshold=0.5)
        direct = reference_window_probs(model, feats)
        assert np.max(np.abs(probs - direct)) <= 1e-12
        assert np.array_equal(labels, probs > 0.5)

    def test_window_plus_one_averages(self):
        rng = np.random.default_rng(17)
        records, feats = feature_records(7, rng)
        model = sequence_model("shared", input_dim=4, hidden=5, seed=18)
        w0 = window_probs(model, feats[:6])
        w1 = window_probs(model, feats[1:])
        expected = np.zeros((7, 3))
        expected[0] = w0[0]
        expected[6] = w1[5]
        expected[1:6] = (w0[1:] + w1[:5]) / 2.0
        probs, _ = predict_corridor(model, records, feats, window=6, threshold=0.5)
        assert np.allclose(probs, expected, atol=1e-12)

    def test_short_run_truncated_fallback(self):
        rng = np.random.default_rng(19)
        records, feats = feature_records(4, rng)
        model = sequence_model("shared", input_dim=4, hidden=5, seed=20)
        probs, _ = predict_corridor(model, records, feats, window=10, threshold=0.5)
        direct = window_probs(model, feats)
        assert np.allclose(probs, direct, atol=1e-14)

    def test_constant_model_aggregation_exact(self):
        rng = np.random.default_rng(21)
        records, feats = feature_records(12, rng)
        model = sequence_model("shared", input_dim=4, hidden=5, seed=22)
        for value in model.params.values():
            value[...] = 0.0
        probs, labels = predict_corridor(model, records, feats, window=5, threshold=0.5)
        assert np.all(probs == 0.5)
        assert not labels.any()  # exactly at threshold means absent

    def test_multiple_runs_and_modes(self):
        # runs of 48, 8 and 5 images at window 6: 43 windows (two separate-mode
        # chunks), 3 windows, and one truncated pass
        rng = np.random.default_rng(23)
        records, feats = join_runs(
            [
                feature_records(48, rng, edge="e0"),
                feature_records(8, rng),
                feature_records(5, rng, edge="e2"),
            ]
        )
        for mode in ("shared", "separate"):
            model = sequence_model(mode, input_dim=4, hidden=5, seed=24)
            probs, labels = predict_corridor(model, records, feats, window=6, threshold=0.5)
            assert probs.shape == (61, 3)
            assert np.all((probs >= 0.0) & (probs <= 1.0))
            expected = np.concatenate(
                [
                    reference_corridor_probs(model, feats[a:b], window=6)
                    for a, b in ((0, 48), (48, 56), (56, 61))
                ]
            )
            assert np.max(np.abs(probs - expected)) <= 1e-12

    @given(
        st.lists(
            st.tuples(st.integers(1, 12) | st.integers(45, 60), st.booleans()),
            min_size=1,
            max_size=3,
        ),
        st.integers(1, 8),
        st.sampled_from(["shared", "separate"]),
    )
    def test_matches_reference_on_random_run_layouts(self, runs, window, mode):
        # each run starts a new edge or follows a gap on the current one; runs
        # of 45-60 images give separate mode (42 windows a chunk) two chunks
        rng = np.random.default_rng(len(runs) * 100 + window)
        parts, edge, seq = [], 0, 0
        for length, new_edge in runs:
            edge, seq = (edge + 1, 0) if new_edge else (edge, seq + 1)
            parts.append(feature_records(length, rng, edge=f"e{edge}", start=seq, dim=3))
            seq += length
        records, feats = join_runs(parts)
        model = sequence_model(mode, input_dim=3, hidden=4, mid_dim=5, seed=window)
        probs, labels = predict_corridor(model, records, feats, window, threshold=0.5)
        bounds = np.cumsum([0] + [length for length, _ in runs])
        expected = np.concatenate(
            [reference_corridor_probs(model, feats[a:b], window) for a, b in zip(bounds, bounds[1:])]
        )
        assert np.max(np.abs(probs - expected)) <= 1e-12
        assert np.array_equal(labels, probs > 0.5)

    @pytest.mark.parametrize("n_windows", [127, 128, 129, 257])
    def test_shared_mode_chunk_boundaries(self, n_windows):
        # shared mode steps 128 windows a chunk: one short of a chunk, one
        # full chunk, one window over, and two chunks plus one
        rng = np.random.default_rng(n_windows)
        records, feats = feature_records(n_windows + 2, rng, dim=3)
        model = sequence_model("shared", input_dim=3, hidden=4, mid_dim=5, seed=n_windows)
        probs, labels = predict_corridor(model, records, feats, window=3, threshold=0.5)
        expected = reference_corridor_probs(model, feats, window=3)
        assert np.max(np.abs(probs - expected)) <= 1e-12
        assert np.array_equal(labels, probs > 0.5)

    @pytest.mark.parametrize("mode, window", [("shared", 6), ("separate", 6), ("separate", 50)])
    def test_each_chunk_projects_its_rows_once(self, monkeypatch, mode, window):
        # the kernel steps a view of the chunk's projection, and no feature
        # row is projected more than ceil((chunk + T - 1) / chunk) times
        projected, stepped = [], []
        project, forward = lstm._project, lstm.packed_forward

        def spy_project(params, xs):
            projected.append((xs, project(params, xs)))
            return projected[-1][1]

        def spy_forward(params, ux, cache=True):
            stepped.append(ux)
            return forward(params, ux, cache)

        monkeypatch.setattr(lstm, "_project", spy_project)
        monkeypatch.setattr(lstm, "packed_forward", spy_forward)
        rng = np.random.default_rng(29)
        records, feats = feature_records(300, rng)
        model = sequence_model(mode, input_dim=4, hidden=5, seed=30)
        predict_corridor(model, records, feats, window, threshold=0.5)
        assert len(projected) == len(stepped) > 1
        chunk = 128 // len(model.params["wp"])
        times = np.zeros(len(feats), dtype=int)
        for (xs, ux), view in zip(projected, stepped):
            assert np.shares_memory(view, ux)
            assert len(view[0]) <= chunk
            rows = xs[0]
            times[np.flatnonzero(np.isin(feats[:, 0], rows[:, 0]))] += 1
        assert times.min() >= 1
        assert times.max() <= math.ceil((chunk + window - 1) / chunk)


def whole_chunk_corridor_probs(model, feats, window):
    """predict_corridor's probabilities for one run of images, from the same
    chunks of windows with the head over each whole chunk at once: the oracle
    for its head slices."""
    params = model.params
    groups = len(params["wp"])
    size = 128 // groups
    n = len(feats)
    w = min(window, n)
    sums = np.zeros((n, 3))
    for lo in range(0, n - w + 1, size):
        rows = feats[lo : lo + size + w - 1]
        ux = lstm._project(params, np.broadcast_to(rows, (groups,) + rows.shape))
        hs = packed_forward(params, lstm._window_view(ux, w, axis=1), cache=False).H
        probs = lstm._head_forward(params, hs.transpose(1, 2, 0, 3), None)[2]
        lstm._add_windows(sums[lo : lo + len(rows)], np.concatenate(probs, axis=-1))
    pos = np.arange(n)
    counts = np.minimum(np.minimum(pos + 1, n - pos), min(w, n - w + 1))
    return sums / counts[:, None]


class TestPredictHeadSlices:
    """predict_corridor runs the window head over slices of at most
    HEAD_SLICE windows of a chunk."""

    @pytest.mark.parametrize("mode", ["shared", "separate"])
    @pytest.mark.parametrize("n_windows", [1, 15, 16, 17, 127, 128, 129])
    def test_same_bits_as_whole_chunk_head(self, mode, n_windows):
        # runs of this many windows: slice counts either side of HEAD_SLICE,
        # and shared mode's 128-window chunk either side of full; separate
        # mode's chunks are 42 windows, three slices with a short last one
        assert lstm.HEAD_SLICE == 16
        window = 5
        rng = np.random.default_rng(n_windows)
        records, feats = feature_records(n_windows + window - 1, rng, dim=3)
        model = sequence_model(mode, input_dim=3, hidden=6, mid_dim=5, seed=n_windows)
        probs, _ = predict_corridor(model, records, feats, window, threshold=0.5)
        assert probs.tobytes() == whole_chunk_corridor_probs(model, feats, window).tobytes()

    @pytest.mark.parametrize("mode", ["shared", "separate"])
    def test_memory_peak_below_1_6_chunk_hidden_states(self, mode):
        # a chunk's (T, G, B, H) hidden states are its one large array: the
        # head's activations for a whole chunk, two more arrays half their
        # size, took the peak to 2.23-2.26 of them
        window, hidden = 50, 100
        rng = np.random.default_rng(11)
        records, feats = feature_records(400, rng, dim=16)
        model = sequence_model(mode, input_dim=16, hidden=hidden, mid_dim=50, seed=12)
        groups = len(model.params["wp"])
        hidden_bytes = window * groups * (128 // groups) * hidden * 8
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            predict_corridor(model, records, feats, window, threshold=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 1.6 * hidden_bytes


class TestPredictWorkers:
    """predict_corridor's `workers`: contiguous parts of the chunk list, part
    0 run here and each other part in a forked child."""

    # runs of 20 (shorter than the window), 400, 130 and 45 images at window
    # 50: 6 shared-mode chunks of up to 128 windows, 13 separate-mode ones of 42
    RUNS = (20, 400, 130, 45)
    WINDOW = 50

    def corridor(self):
        rng = np.random.default_rng(41)
        return join_runs(
            [feature_records(n, rng, edge=f"e{k}", dim=3) for k, n in enumerate(self.RUNS)]
        )

    def predict(self, mode, workers):
        records, feats = self.corridor()
        model = sequence_model(mode, input_dim=3, hidden=4, mid_dim=5, seed=42)
        return predict_corridor(model, records, feats, self.WINDOW, 0.5, workers=workers)

    @pytest.mark.parametrize("mode", ["shared", "separate"])
    def test_split_changes_no_bit(self, mode):
        # at 2 and 3 workers separate mode cuts the 400-image run inside the
        # 49 images its two leading chunks reach back over; at 20 workers, more
        # than the chunks, every part is one chunk, shorter than that reach
        probs, labels = self.predict(mode, workers=1)
        for workers in (2, 3, 5, 20):
            split, split_labels = self.predict(mode, workers=workers)
            assert_no_child_left()
            assert np.array_equal(split, probs), (mode, workers)
            assert np.array_equal(split_labels, labels), (mode, workers)

    @pytest.mark.parametrize("mode, leading", [("shared", [1]), ("separate", [2])])
    def test_only_boundary_chunks_cross_the_pipe(self, monkeypatch, mode, leading):
        # a worker returns its own images' sums and the window probabilities
        # of the chunks that reach back into the part before it, no more
        split, results = fork.split, []

        def recording_split(fn, parts):
            results.extend(split(fn, parts))
            return results

        monkeypatch.setattr(fork, "split", recording_split)
        self.predict(mode, workers=2)
        assert [len(chunks) for chunks, _ in results] == [0] + leading
        assert sum(len(sums) for _, sums in results) == sum(self.RUNS)

    def test_one_part_forks_nothing(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        self.predict("separate", workers=1)


class TestSerialization:
    @pytest.mark.parametrize("mode", ["shared", "separate"])
    def test_round_trip(self, tmp_path, mode):
        model = sequence_model(mode, input_dim=4, hidden=5, mid_dim=6, seed=27)
        path = tmp_path / "seq.bin"
        seq_save(model, str(path), seed=27)
        loaded = seq_load(str(path))
        assert loaded.mode == mode
        assert loaded.params.keys() == model.params.keys()
        for key, value in model.params.items():
            assert np.array_equal(loaded.params[key], value), key
        xs = np.random.default_rng(28).normal(size=(7, 4))
        assert np.array_equal(window_probs(model, xs), window_probs(loaded, xs))

    def test_round_trip_keeps_training_window(self, tmp_path):
        records, features, starts = corridor_sequences(60, seed=31, window=7)
        model = sequence_model("shared", input_dim=16, hidden=4, mid_dim=5, seed=31)
        assert model.window is None
        bptt_train(model, records, features, starts[:2], 7, lr=1e-3, epochs=1, seed=0)
        assert model.window == 7
        path = tmp_path / "seq.bin"
        seq_save(model, str(path))
        assert seq_load(str(path)).window == 7

    def test_mode_header(self, tmp_path):
        model = sequence_model("separate", input_dim=4, hidden=5, seed=29)
        path = tmp_path / "seq.bin"
        seq_save(model, str(path))
        from safetymap.modelio import load_tensors

        _, meta = load_tensors(str(path))
        assert meta["mode"] == "separate"
        assert meta["kind"] == "sequence"

    def _resave(self, tmp_path, mode, edit):
        """Save a model, let edit(tensors, meta) alter what was written, and
        write the result back; returns the path. The meta goes in with
        json.dumps's defaults, so an edit may put NaN in it, as a writer
        other than save_tensors could."""
        from safetymap.modelio import load_tensors, save_tensors

        path = tmp_path / "seq.bin"
        seq_save(sequence_model(mode, input_dim=4, hidden=5, mid_dim=6, seed=30), str(path))
        tensors, meta = load_tensors(str(path))
        edit(tensors, meta)
        save_tensors(str(path), tensors)
        header, data = path.read_bytes().split(b"\n", 1)
        header = {**json.loads(header), "meta": meta}
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + data)
        return str(path)

    @pytest.mark.parametrize("mode", ["shared", "separate"])
    def test_missing_tensor_rejected(self, tmp_path, mode):
        groups = 1 if mode == "shared" else 3
        path = self._resave(tmp_path, mode, lambda t, m: t.pop("wp"))
        with pytest.raises(ValueError, match=rf"wp missing, meta implies \({groups}, 20, 5\)"):
            seq_load(path)

    def test_wrong_input_dim_rejected(self, tmp_path):
        path = self._resave(tmp_path, "shared", lambda t, m: m.update(input_dim=7))
        with pytest.raises(ValueError, match=r"up \(1, 20, 4\), meta implies \(1, 20, 7\)"):
            seq_load(path)

    def test_tensors_of_other_mode_rejected(self, tmp_path):
        path = self._resave(tmp_path, "shared", lambda t, m: m.update(mode="separate"))
        with pytest.raises(
            ValueError, match=r"out.b \(1, 3\), meta implies \(3, 1\).*wp \(1, 20, 5\), meta implies \(3, 20, 5\)"
        ):
            seq_load(path)

    def test_saved_tensors_are_the_packed_params(self, tmp_path):
        path = self._resave(tmp_path, "separate", lambda t, m: None)
        from safetymap.modelio import load_tensors

        tensors, _ = load_tensors(path)
        assert list(tensors) == ["wp", "up", "bp", "mid.w", "mid.b", "out.w", "out.b"]

    @pytest.mark.parametrize(
        "meta, message",
        [
            ({"mode": "both"}, "mode must be 'shared' or 'separate', got 'both'"),
            ({"dropout_rate": 1.0}, r"dropout rate must be in \[0, 1\), got 1.0"),
        ],
    )
    def test_invalid_meta_rejected(self, tmp_path, meta, message):
        path = self._resave(tmp_path, "shared", lambda t, m: m.update(meta))
        with pytest.raises(ValueError, match=message) as info:
            seq_load(path)
        assert str(info.value).startswith(f"{path}: invalid sequence-model meta: ")

    @pytest.mark.parametrize("value", [4.9, "4", True], ids=["float", "string", "bool"])
    @pytest.mark.parametrize("key", ["hidden", "input_dim", "mid_dim", "window"])
    def test_non_integer_meta_rejected(self, tmp_path, key, value):
        # int() would read 4.9 as 4 and True as 1
        path = self._resave(tmp_path, "shared", lambda t, m: m.update({key: value}))
        with pytest.raises(ValueError) as info:
            seq_load(path)
        message = f"{key} must be an integer, got {value!r}"
        assert str(info.value) == f"{path}: invalid sequence-model meta: {message}"

    @pytest.mark.parametrize(
        "value", ["0.2", True, None, math.nan], ids=["string", "bool", "null", "nan"]
    )
    def test_non_number_dropout_rate_rejected(self, tmp_path, value):
        # float() would read "0.2" as 0.2 and True as 1.0
        path = self._resave(tmp_path, "shared", lambda t, m: m.update({"dropout_rate": value}))
        with pytest.raises(ValueError) as info:
            seq_load(path)
        message = f"dropout_rate must be a finite number, got {value!r}"
        assert str(info.value) == f"{path}: invalid sequence-model meta: {message}"

    def test_incomplete_meta_rejected(self, tmp_path):
        path = self._resave(tmp_path, "shared", lambda t, m: m.pop("hidden"))
        with pytest.raises(ValueError, match="incomplete sequence-model meta"):
            seq_load(path)

    def test_meta_without_window_rejected(self, tmp_path):
        path = self._resave(tmp_path, "shared", lambda t, m: m.pop("window"))
        with pytest.raises(ValueError, match=r"incomplete .* meta: KeyError\('window'\)"):
            seq_load(path)
