"""Acceptance suite: every release criterion at its stated tolerance.

Each test registers a pass line with the terminal summary hook; run with
`pytest tests/test_acceptance.py -v` to see one line per criterion.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from conftest import (
    CORRIDOR_SEEDS,
    enumerate_windows,
    grad_check,
    mark_acceptance_started,
    record_acceptance,
    run_synth_pipeline,
    sequence_model,
    store_feat_w,
)

from safetymap.data import ImageRecord, build_sequences
from safetymap.geo import EARTH_RADIUS_M, LatLon, RoadEdge, haversine_m, sample_points
from safetymap.lstm import _project, packed_forward
from safetymap.metrics import weighted_avg_f
from safetymap.nn import (
    bce_grad_from_logits,
    bce_loss,
    conv2d_backward,
    conv2d_backward_input,
    conv2d_forward,
    dense_backward,
    dense_forward,
    maxpool2d_backward,
    maxpool2d_forward,
    sigmoid,
)
from test_lstm import oracle_deviation, pack_gates, random_params, summed_loss

pytestmark = pytest.mark.usefixtures("_acceptance_marker")


@pytest.fixture(autouse=True, scope="module")
def _acceptance_marker():
    mark_acceptance_started()


class TestCriterion1WeightedF:
    def test_eq2_on_published_rows(self):
        first = weighted_avg_f((0.96, 0.88, 0.84), (857, 279, 354))
        assert round(first, 4) == 0.9165
        assert round(first, 2) == 0.92
        second = weighted_avg_f((0.92, 0.77, 0.76), (879, 403, 784))
        assert round(second, 4) == 0.8300
        assert round(second, 2) == 0.83
        record_acceptance(1, f"{first:.4f} -> 0.92, {second:.4f} -> 0.83")


class TestCriterion2CellOracle:
    def test_thousand_random_triples(self):
        """The kernel that training and prediction run, over 20 random groups
        of one 51-step window each: every step after the first is checked
        against the oracle from the kernel's own prior (h, c). Half the
        groups forget less (forget bias raised by 4), so their cells grow."""
        rng = np.random.default_rng(2024)
        groups = [random_params(rng, 4, 3) for _ in range(20)]
        for group in groups[::2]:
            group["b_f"] += 4.0
        xs = rng.normal(size=(20, 1, 51, 3))
        params = pack_gates(groups)
        fw = packed_forward(params, _project(params, xs))
        worst, c_prev_max = oracle_deviation(groups, xs, fw)
        transitions = xs.shape[0] * xs.shape[1] * (xs.shape[2] - 1)
        assert transitions >= 1000
        assert worst <= 1e-12
        assert c_prev_max >= 8.0
        record_acceptance(
            2, f"{transitions} transitions, max abs deviation {worst:.2e}, max |c_prev| {c_prev_max:.1f}"
        )


class TestCriterion3Gradients:
    TOL = 1e-4

    def test_layers_cnn_and_lstm(self):
        rng = np.random.default_rng(31)
        worst = {}

        # dense and CNN checks run on a batch of 2 rows / images
        coeff = rng.normal(size=(2, 4))

        def dense_fn(params):
            y = dense_forward(params["x"], params["w"], params["b"])
            gb = np.empty_like(params["b"])
            gx, gw = dense_backward(params["x"], params["w"], coeff, gb)
            return float(np.sum(coeff * y)), {"x": gx, "w": gw, "b": gb}

        worst["dense"] = grad_check(
            dense_fn,
            {"x": rng.normal(size=(2, 5)), "w": rng.normal(size=(4, 5)), "b": rng.normal(size=4)},
        )

        conv_coeff = rng.normal(size=(3, 6, 6))

        def conv_fn(params):
            y = conv2d_forward(params["x"], params["k"], params["b"])
            gk, gb = conv2d_backward(params["x"], params["k"], conv_coeff)
            gx = conv2d_backward_input(params["k"], conv_coeff)
            return float(np.sum(conv_coeff * y)), {"x": gx, "k": gk, "b": gb}

        worst["conv2d"] = grad_check(
            conv_fn,
            {
                "x": rng.normal(size=(2, 8, 8)),
                "k": rng.normal(size=(3, 2, 3, 3)),
                "b": rng.normal(size=3),
            },
        )

        pool_coeff = rng.normal(size=(2, 3, 3))

        def pool_fn(params):
            y, idx = maxpool2d_forward(params["x"])
            return float(np.sum(pool_coeff * y)), {"x": maxpool2d_backward(idx, pool_coeff)}

        worst["maxpool2d"] = grad_check(pool_fn, {"x": rng.normal(size=(2, 6, 6))})

        # the fused sigmoid-BCE gradient in the logits, as training runs it
        bce_labels = (rng.random(10) < 0.5).astype(np.float64)

        def bce_fn(params):
            p = sigmoid(params["z"])
            return bce_loss(p, bce_labels), {"z": bce_grad_from_logits(p, bce_labels)}

        worst["bce"] = grad_check(bce_fn, {"z": rng.uniform(-3.0, 3.0, size=10)})

        from safetymap.cnn import CnnConfig, cnn_loss_and_grads, init_cnn

        cnn_model = init_cnn(
            CnnConfig(input_shape=(3, 8, 8), stage_channels=(2,), feature_dim=4), seed=32
        )
        # uint8 levels 13-254, drawn as the same 384 floats so that the
        # draws below do not move
        images = (rng.random((2, 8, 8, 3)) * 242.0 + 13.0).astype(np.uint8)
        cnn_labels = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])

        def cnn_fn(params):
            cnn_model.params = params
            grads = {key: np.empty_like(p) for key, p in params.items()}
            loss = cnn_loss_and_grads(cnn_model, images, cnn_labels, grads, store_feat_w(grads))
            return loss, grads

        worst["cnn"] = grad_check(cnn_fn, cnn_model.params)

        seq_model = sequence_model("shared", input_dim=3, hidden=4, mid_dim=5, seed=33)
        xs = rng.normal(size=(1, 1, 5, 3))
        seq_labels = (rng.random((1, 1, 5, 3)) < 0.5).astype(np.float64)
        worst["lstm"] = grad_check(summed_loss(xs, seq_labels), seq_model.params)

        # separate mode on the same window: the three class stacks in one
        # kernel call (G=3), stack k against label column k
        sep_model = sequence_model("separate", input_dim=3, hidden=4, mid_dim=5, seed=33)
        sep_xs = np.broadcast_to(xs, (3, 1, 5, 3))
        sep_labels = np.moveaxis(seq_labels[0], -1, 0)[..., None]
        worst["lstm-separate"] = grad_check(summed_loss(sep_xs, sep_labels), sep_model.params)

        for name, err in worst.items():
            assert err < self.TOL, f"{name} gradient error {err:.2e} >= {self.TOL}"
        summary = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
        record_acceptance(3, summary)


class TestCriterion4SpatialContext:
    def test_sequence_beats_frame_on_every_seed(self, corridor_experiments):
        assert len(corridor_experiments) == len(CORRIDOR_SEEDS)
        min_gap = min(r["shared_avg_f"] - r["frame_avg_f"] for r in corridor_experiments)
        for result in corridor_experiments:
            gap = result["shared_avg_f"] - result["frame_avg_f"]
            assert gap >= 0.03, f"seed {result['seed']}: Avg.F gap {gap:.4f} < 0.03"
            for name, rate in zip(("rs", "mcb", "cb"), result["correction_rates"]):
                assert rate is not None, f"seed {result['seed']}: no isolated errors for {name}"
                assert rate >= 0.5, (
                    f"seed {result['seed']}: {name} correction rate {rate:.3f} < 0.5"
                )
        min_rate = min(min(r["correction_rates"]) for r in corridor_experiments)
        record_acceptance(4, f"min gap {min_gap:+.4f}, min correction rate {min_rate:.3f}")


class TestCriterion5SeparateVsShared:
    def test_separate_at_least_shared(self, corridor_experiments):
        diffs = [r["separate_avg_f"] - r["shared_avg_f"] for r in corridor_experiments]
        for result, diff in zip(corridor_experiments, diffs):
            assert diff >= -0.01, (
                f"seed {result['seed']}: separate {result['separate_avg_f']:.4f} "
                f"< shared {result['shared_avg_f']:.4f} - 0.01"
            )
        strictly_greater = sum(d > 0 for d in diffs)
        assert strictly_greater * 2 > len(diffs), (
            f"separate strictly better in only {strictly_greater}/{len(diffs)} runs"
        )
        record_acceptance(
            5, f"min diff {min(diffs):+.4f}, strictly greater {strictly_greater}/{len(diffs)}"
        )


def gently_curving_edge(rng, edge_id="edge"):
    lat, lon = 33.0, -87.0
    angle = rng.uniform(0, 2 * math.pi)
    points = [LatLon(lat, lon)]
    for _ in range(int(rng.integers(2, 8))):
        step = rng.uniform(30.0, 150.0)
        angle += rng.uniform(-0.14, 0.14)
        lat += math.degrees(step * math.cos(angle) / EARTH_RADIUS_M)
        lon += math.degrees(step * math.sin(angle) / (EARTH_RADIUS_M * math.cos(math.radians(lat))))
        points.append(LatLon(lat, lon))
    return RoadEdge(id=edge_id, polyline=tuple(points))


class TestCriterion6Sampling:
    def test_count_law_and_spacing(self):
        rng = np.random.default_rng(66)
        worst_spacing = 0.0
        for i in range(100):
            edge = gently_curving_edge(rng, edge_id=f"edge-{i}")
            points = sample_points([edge], 20.0)
            assert len(points) == math.floor(edge.length_m / 20.0) + 1
            for a, b in zip(points, points[1:]):
                spacing = haversine_m(a.location, b.location)
                worst_spacing = max(worst_spacing, abs(spacing - 20.0))
                assert abs(spacing - 20.0) <= 0.2
        record_acceptance(6, f"100 polylines, worst spacing deviation {worst_spacing:.3f} m")


class TestCriterion7WindowLaw:
    def test_matches_enumeration_on_200_fixtures(self):
        rng = np.random.default_rng(77)
        total_windows = 0
        for _ in range(200):
            window = int(rng.integers(2, 8))
            stride = int(rng.integers(1, 5))
            records = []
            for edge in ("a", "b", "c")[: int(rng.integers(1, 4))]:
                seq = int(rng.integers(0, 3))
                for _ in range(int(rng.integers(1, 5))):
                    run_len = int(rng.integers(1, 18))
                    records.extend(
                        ImageRecord(
                            image_id=f"{edge}-{seq + i}",
                            edge_id=edge,
                            seq_index=seq + i,
                            location=LatLon(33.0, -87.0),
                            labels=(False, False, False),
                        )
                        for i in range(run_len)
                    )
                    seq += run_len + int(rng.integers(2, 6))
            starts = build_sequences(records, window, stride)
            assert starts.tolist() == enumerate_windows(records, window, stride)
            total_windows += len(starts)
        record_acceptance(7, f"200 fixtures, {total_windows} windows cross-checked")


ACCEPTANCE_PIPELINE_CONFIG = """
n_points = 400
feature_dim = 16
window = 50
hidden = 16
mid_dim = 16
lstm_epochs = 3
seed = 1234
"""


class TestCriterion8Determinism:
    def test_two_runs_byte_identical(self, tmp_path):
        config_path = tmp_path / "pipeline.cfg"
        config_path.write_text(ACCEPTANCE_PIPELINE_CONFIG)
        runs = []
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            outputs = run_synth_pipeline(tmp_path / run, str(config_path))
            runs.append({name: path.read_bytes() for name, path in outputs.items()})
        assert runs[0] == runs[1]
        metrics, geojson = runs[0]["metrics.json"], runs[0]["map.geojson"]
        assert "avg_f" in json.loads(metrics)
        record_acceptance(8, f"metrics {len(metrics)} bytes, map {len(geojson)} bytes")
