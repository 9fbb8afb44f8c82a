"""End-to-end tests for the command-line pipeline."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    WORKERS,
    make_pixel_corridor,
    process_env,
    run_cli_process,
    run_synth_pipeline,
    sequence_model,
    write_cnn_container,
    write_pixel_inputs,
    write_ppm,
)
from test_lstm import gate_params

from safetymap import cli, lstm
from safetymap.cli import EXIT_MISSING_FILE, EXIT_SCHEMA, EXIT_VALIDATION, build_parser, main
from safetymap.cnn import CnnConfig, cnn_load, cnn_save, frame_predict, init_cnn
from safetymap.config import PipelineConfig, load_config, parse_config_file, stage_seed
from safetymap.data import (
    PREDICTION_COLUMNS,
    ImageRecord,
    attach_features,
    load_labels,
    read_predictions,
    write_features,
    write_labels,
    write_predictions,
)
from safetymap.geo import LatLon, RoadEdge, heading_at
from safetymap.metrics import class_metrics, weighted_avg_f
from safetymap.modelio import load_tensors, save_tensors

TINY_CONFIG = """
# desk-scale settings for fast CLI tests
n_points = 150
feature_dim = 8
window = 20
hidden = 8
mid_dim = 8
lstm_epochs = 2
seed = 42
"""

FLOAT_KEYS = [f.name for f in fields(PipelineConfig) if f.type == "float"]


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)


def run_cli(*argv) -> int:
    return main(list(argv))


def set_first_value(path: Path, value: float) -> None:
    """Overwrite the first float64 of a model container's first tensor."""
    blob = path.read_bytes()
    at = blob.index(b"\n") + 1
    path.write_bytes(blob[:at] + np.array([value], dtype="<f8").tobytes() + blob[at + 8 :])


def write_network(tmp_path, coordinates=((-87.0, 33.0), (-87.0, 33.0018)), *more):
    """A road network of one edge per coordinate list, as tmp_path/net.geojson."""
    doc = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "geometry": {"type": "LineString", "coordinates": [list(c) for c in coords]},
                "properties": {"id": f"seg-{k}"},
            }
            for k, coords in enumerate((coordinates,) + more, start=1)
        ],
    }
    path = tmp_path / "net.geojson"
    path.write_text(json.dumps(doc))
    return str(path)


def assert_loss_table(path: Path, epochs: int) -> None:
    """A --loss-out table: its header, then one row per epoch, numbered from
    0, holding that epoch's finite mean training loss."""
    header, *rows = path.read_text().splitlines()
    assert header == "epoch,train_loss"
    cells = [row.split(",") for row in rows]
    assert [epoch for epoch, _ in cells] == [str(epoch) for epoch in range(epochs)]
    assert all(np.isfinite(float(loss)) for _, loss in cells)


class TestConfig:
    def test_defaults(self):
        config = PipelineConfig()
        assert config.interval_m == 20.0
        assert config.window == 50
        assert config.stride == 1
        assert config.hidden == 100
        assert config.dropout == 0.2
        assert config.threshold == 0.5

    def test_file_overrides_defaults(self, tiny_config):
        config = load_config(tiny_config)
        assert config.n_points == 150
        assert config.window == 20
        assert config.interval_m == 20.0  # untouched default

    def test_flags_override_file(self, tiny_config):
        config = load_config(tiny_config, {"seed": 7})
        assert config.seed == 7

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("no_such_knob = 3\n")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_file(str(path))

    def test_invalid_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("window = 0\n")
        with pytest.raises(ValueError, match="window"):
            load_config(str(path))

    def test_stage_seeds_differ_and_are_stable(self):
        assert stage_seed(42, "synth") == stage_seed(42, "synth")
        assert stage_seed(42, "synth") != stage_seed(42, "lstm-train")
        assert stage_seed(42, "synth") != stage_seed(43, "synth")


class TestHelp:
    def test_every_documented_flag_listed(self):
        parser = build_parser()
        help_text = parser.format_help()
        for command in (
            "sample",
            "synth",
            "train-cnn",
            "extract-features",
            "train-lstm",
            "predict",
            "evaluate",
            "export-map",
            "url-gen",
        ):
            assert command in help_text
        assert "exit codes" in help_text


class TestGeoCommands:
    def test_sample_then_url_gen(self, tmp_path):
        network = write_network(tmp_path)
        samples = tmp_path / "samples.csv"
        assert run_cli("sample", "--network", network, "--out", str(samples)) == 0
        lines = samples.read_text().strip().splitlines()
        # ~200 m edge at 20 m interval: floor(L/20)+1 points
        assert len(lines) >= 10
        assert lines[0] == "edge_id,seq_index,chainage_m,lat,lon,heading_deg"

        urls = tmp_path / "urls.txt"
        assert run_cli("url-gen", "--samples", str(samples), "--key", "K", "--out", str(urls)) == 0
        for line in urls.read_text().strip().splitlines():
            assert line.startswith("https://")
            assert "key=K" in line

    def test_heading_rounding_up_to_360_written_as_zero(self, tmp_path):
        # a hair west of due north: the bearing is 359.997 degrees
        coordinates = ((-87.0, 33.0), (-87.0000001, 33.0018))
        edge = RoadEdge(id="seg-1", polyline=tuple(LatLon(lat, lon) for lon, lat in coordinates))
        assert 359.995 <= heading_at(edge, 0.0) < 360.0
        network = write_network(tmp_path, coordinates)
        samples = tmp_path / "samples.csv"
        assert run_cli("sample", "--network", network, "--out", str(samples)) == 0
        headings = [line.split(",")[-1] for line in samples.read_text().strip().splitlines()[1:]]
        assert headings and set(headings) == {"0.00"}
        urls = tmp_path / "urls.txt"
        assert run_cli("url-gen", "--samples", str(samples), "--key", "K", "--out", str(urls)) == 0
        assert all("heading=0&" in line for line in urls.read_text().splitlines())

    @pytest.mark.parametrize(
        "rows, flags, code, message",
        [
            pytest.param(
                "seg-1,0,0.000,abc,-87.0,10.00",
                (),
                4,
                "{samples}: line 2: could not convert string to float: 'abc'",
                id="lat-text",
            ),
            pytest.param(
                "seg-1,0,0.000,33.0,-87.0",
                (),
                4,
                "{samples}: line 2: expected 6 fields, got 5",
                id="short",
            ),
            pytest.param(
                "seg-1,0,0.000,33.0,-87.0,10.00,x",
                (),
                4,
                "{samples}: line 2: expected 6 fields, got 7",
                id="long",
            ),
            # a heading is range-checked as the file is read, before any URL is written
            pytest.param(
                "seg-1,0,0.000,33.0,-87.0,10.00\nseg-1,1,20.000,33.0,-87.0,360.00",
                (),
                4,
                "{samples}: line 3: heading 360.0 outside [0, 360)",
                id="heading-360",
            ),
            pytest.param(
                "seg-1,0,0.000,33.0,-87.0,-0.01",
                (),
                4,
                "{samples}: line 2: heading -0.01 outside [0, 360)",
                id="heading-negative",
            ),
            pytest.param(
                "seg-1,0,0.000,33.0,-87.0,nan",
                (),
                4,
                "{samples}: line 2: heading nan outside [0, 360)",
                id="heading-nan",
            ),
            pytest.param(
                "seg-1,0,nan,33.0,-87.0,10.00",
                (),
                4,
                "{samples}: line 2: chainage_m nan outside [0, inf)",
                id="chainage-nan",
            ),
            pytest.param(
                "seg-1,0,-inf,33.0,-87.0,10.00",
                (),
                4,
                "{samples}: line 2: chainage_m -inf outside [0, inf)",
                id="chainage-minus-inf",
            ),
            pytest.param(
                "seg-1,0,inf,33.0,-87.0,10.00",
                (),
                4,
                "{samples}: line 2: chainage_m inf outside [0, inf)",
                id="chainage-inf",
            ),
            pytest.param(
                "seg-2,0,-5.000,33.0,-87.0,10.00",
                (),
                4,
                "{samples}: line 2: chainage_m -5.0 outside [0, inf)",
                id="chainage-negative",
            ),
            pytest.param(
                "seg-1,0,0.000,33.0,-87.0,10.00\nseg-2,0,0.000,33.0,-87.0,10.00\n\n"
                "seg-1,0,20.000,33.0002,-87.0,10.00",
                (),
                4,
                "{samples}: line 5: duplicate (edge_id, seq_index) ('seg-1', 0), "
                "first seen on line 2",
                id="duplicate-key",
            ),
            # the flags are refused before the samples are read, rows or none
            pytest.param(
                "seg-1,0,0.000,33.0,-87.0,10.00",
                ("--key", ""),
                5,
                "error: API key must be non-empty",
                id="empty-key",
            ),
            pytest.param(
                "", ("--key", ""), 5, "error: API key must be non-empty", id="empty-key-no-rows"
            ),
            pytest.param(
                "seg-1,0,0.000,33.0,-87.0,10.00",
                ("--size", "0"),
                5,
                "error: image size must be positive, got 0",
                id="size-0",
            ),
            pytest.param(
                "",
                ("--size", "0"),
                5,
                "error: image size must be positive, got 0",
                id="size-0-no-rows",
            ),
        ],
    )
    def test_url_gen_bad_row_exit_4(self, tmp_path, capsys, rows, flags, code, message):
        """A bad samples row exits 4 and a bad --key or --size exits 5; neither writes --out."""
        samples = tmp_path / "samples.csv"
        samples.write_text(f"edge_id,seq_index,chainage_m,lat,lon,heading_deg\n{rows}\n")
        out = tmp_path / "urls.txt"
        capsys.readouterr()
        argv = ("url-gen", "--samples", str(samples), "--key", "K", "--out", str(out), *flags)
        assert run_cli(*argv) == code
        assert message.format(samples=samples) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param('{"type": "FeatureCollection",', "not a JSON document", id="not-json"),
            pytest.param("[]", "expected a FeatureCollection object, got 'list'", id="list"),
            pytest.param('{"type": "Feature"}', "got 'Feature'", id="not-collection"),
            pytest.param(
                lambda geometry: geometry.update(type="Point"),
                "feature 0 is not a LineString",
                id="not-linestring",
            ),
            pytest.param(
                lambda geometry: geometry.pop("coordinates"),
                "feature 0: coordinates must be a list of [lon, lat] number pairs",
                id="no-coordinates",
            ),
            pytest.param(
                lambda geometry: geometry.update(coordinates=[["-87", "33"], ["-87", "33.1"]]),
                "feature 0: coordinates",
                id="strings",
            ),
            pytest.param(
                lambda geometry: geometry.update(coordinates=[[-87.0], [-87.0, 33.1]]),
                "feature 0: coordinates",
                id="one-number",
            ),
        ],
    )
    def test_malformed_network_exit_4(self, tmp_path, capsys, edit, message):
        network = Path(write_network(tmp_path))
        if callable(edit):
            doc = json.loads(network.read_text())
            edit(doc["features"][0]["geometry"])
            network.write_text(json.dumps(doc))
        else:
            network.write_text(edit)
        capsys.readouterr()
        assert run_cli("sample", "--network", str(network), "--out", str(tmp_path / "s.csv")) == 4
        err = capsys.readouterr().err
        assert f"{network}: " in err
        assert message in err

    def test_zero_length_edge_exit_5(self, tmp_path, capsys):
        network = write_network(
            tmp_path, ((-87.0, 33.0), (-87.0, 33.0018)), ((-86.0, 33.0), (-86.0, 33.0))
        )
        samples = tmp_path / "samples.csv"
        capsys.readouterr()
        assert run_cli("sample", "--network", network, "--out", str(samples)) == 5
        assert "edge 'seg-2' has zero length" in capsys.readouterr().err

    @pytest.mark.parametrize("ids", [("seg-1", "seg-1"), (1, "1")], ids=["same", "number-and-text"])
    def test_repeated_edge_id_exit_4(self, tmp_path, capsys, ids):
        # the loader keys edges by str(id), so the number 1 and the text "1" collide
        edges = ((-87.0, 33.0), (-87.0, 33.0018)), ((-86.0, 33.0), (-86.0, 33.0018))
        network = Path(write_network(tmp_path, *edges))
        doc = json.loads(network.read_text())
        for feature, edge_id in zip(doc["features"], ids):
            feature["properties"]["id"] = edge_id
        network.write_text(json.dumps(doc))
        samples = tmp_path / "samples.csv"
        capsys.readouterr()
        assert run_cli("sample", "--network", str(network), "--out", str(samples)) == 4
        message = f"error: {network}: feature 1 repeats the id {str(ids[1])!r} of feature 0\n"
        assert capsys.readouterr().err == message
        assert not samples.exists()

    def test_antimeridian_edge_samples_the_short_way(self, tmp_path):
        # 92.7 m due east across the antimeridian: five points 20 m apart, not
        # five spread round the globe
        network = write_network(tmp_path, ((179.9995, 33.5), (-179.9995, 33.5)))
        samples, urls = tmp_path / "samples.csv", tmp_path / "urls.txt"
        assert run_cli("sample", "--network", network, "--out", str(samples)) == 0
        rows = [line.split(",") for line in samples.read_text().splitlines()[1:]]
        lons = [float(row[4]) for row in rows]
        assert lons == [179.9995, 179.999716, 179.999931, -179.999853, -179.999637]
        assert run_cli("url-gen", "--samples", str(samples), "--key", "K", "--out", str(urls)) == 0

    def test_missing_network_exits_3(self, tmp_path):
        assert run_cli("sample", "--network", str(tmp_path / "nope.geojson"), "--out", "x") == 3


class TestPredictionsBoundary:
    """evaluate and export-map both read predictions through one checked reader."""

    ROW = {
        "image_id": "img-1", "edge_id": "e", "seq_index": "1", "lat": "33.000100",
        "lon": "-87.000000", "p_rs": "0.900000", "p_mcb": "0.100000", "p_cb": "0.600000",
        "rs": "1", "mcb": "0", "cb": "1",
    }

    def _write(self, tmp_path, **edits):
        rows = [dict(self.ROW, image_id="img-0", seq_index="0"), dict(self.ROW, **edits)]
        predictions = tmp_path / "predictions.csv"
        predictions.write_text(
            ",".join(self.ROW) + "\n" + "".join(",".join(r.values()) + "\n" for r in rows)
        )
        truth = [
            ImageRecord(f"img-{i}", "e", i, LatLon(33.0 + 1e-4 * i, -87.0), (True, False, True))
            for i in range(2)
        ]
        labels = tmp_path / "labels.csv"
        write_labels(str(labels), truth)
        return str(predictions), str(labels)

    def _run(self, tmp_path, command, predictions, labels):
        out = str(tmp_path / "out")
        if command == "export-map":
            return run_cli("export-map", "--predictions", predictions, "--out", out)
        return run_cli("evaluate", "--predictions", predictions, "--truth", labels, "--out", out)

    def _run_valid(self, tmp_path, command, predictions, labels):
        """_run on rows evaluate accepts: neither ROW's truth nor its
        predictions hold mcb, so evaluate warns of its zero denominators."""
        if command == "export-map":
            return self._run(tmp_path, command, predictions, labels)
        with pytest.warns(UserWarning, match="class mcb: zero denominator"):
            return self._run(tmp_path, command, predictions, labels)

    @pytest.mark.parametrize("command", ["export-map", "evaluate"])
    def test_valid_rows_accepted(self, tmp_path, command):
        assert self._run_valid(tmp_path, command, *self._write(tmp_path)) == 0

    @pytest.mark.parametrize("command", ["export-map", "evaluate"])
    @pytest.mark.parametrize(
        "edits, message",
        [
            pytest.param({"lat": "133.5"}, "line 3: latitude 133.5 outside [-90, 90]", id="lat"),
            pytest.param({"lon": "inf"}, "line 3: longitude inf outside [-180, 180]", id="lon"),
            pytest.param({"p_rs": "nan"}, "line 3: p_rs nan outside [0, 1]", id="p-nan"),
            pytest.param({"p_cb": "1.5"}, "line 3: p_cb 1.5 outside [0, 1]", id="p-above-1"),
            pytest.param(
                {"p_mcb": "high"}, "line 3: could not convert string to float: 'high'", id="p-text"
            ),
            pytest.param(
                {"seq_index": "1.0"},
                "line 3: invalid literal for int() with base 10: '1.0'",
                id="seq-index-float",
            ),
            pytest.param({"rs": "yes"}, "line 3: label rs='yes' not in {0,1}", id="label"),
            pytest.param(
                {"seq_index": "-1"}, "line 3: seq_index -1 is negative", id="seq-index-negative"
            ),
            pytest.param({"extra": "x"}, "line 3: expected 11 fields, got 12", id="extra-field"),
        ],
    )
    def test_bad_row_exit_4(self, tmp_path, capsys, command, edits, message):
        predictions, labels = self._write(tmp_path, **edits)
        capsys.readouterr()
        assert self._run(tmp_path, command, predictions, labels) == 4
        err = capsys.readouterr().err
        assert message in err
        assert f"{predictions}: {message}" in err
        assert not (tmp_path / "out").exists()

    def test_export_map_keeps_label_of_half_probability(self, tmp_path):
        # p_rs in (0.5, 0.5000005) is written as 0.500000 with its label 1
        predictions, labels = self._write(tmp_path, p_rs="0.500000", rs="1")
        assert self._run(tmp_path, "export-map", predictions, labels) == 0
        props = json.loads((tmp_path / "out").read_text())["features"][1]["properties"]
        assert (props["p_rs"], props["rs"]) == (0.5, True)

    def test_export_map_agrees_with_evaluate_at_another_threshold(self, tmp_path):
        predictions, labels = self._write(tmp_path, p_rs="0.400000", rs="1", mcb="1")
        cfg = tmp_path / "high.cfg"
        cfg.write_text("threshold = 0.95\n")
        geojson, report = tmp_path / "map.geojson", tmp_path / "metrics.json"
        base = ["--config", str(cfg)]
        assert run_cli(*base, "export-map", "--predictions", predictions, "--out", str(geojson)) == 0
        with pytest.warns(UserWarning, match="class mcb: zero denominator"):  # no mcb in truth
            code = run_cli(*base, "evaluate", "--predictions", predictions, "--truth", labels,
                           "--out", str(report))
        assert code == 0
        props = [f["properties"] for f in json.loads(geojson.read_text())["features"]]
        assert [(p["rs"], p["mcb"], p["cb"]) for p in props] == [
            (True, False, True), (True, True, True)
        ]
        metrics = json.loads(report.read_text())
        for name in ("rs", "mcb", "cb"):
            drawn = sum(p[name] for p in props)
            assert drawn == metrics[name]["tp"] + metrics[name]["fp"]

    @pytest.mark.parametrize("command", ["export-map", "evaluate"])
    def test_padded_header_accepted(self, tmp_path, command):
        """Header cells are compared stripped, in predictions as in labels."""
        predictions, labels = self._write(tmp_path)
        text = Path(predictions).read_text()
        Path(predictions).write_text(text.replace(",lat,", ", lat ,", 1))
        assert self._run_valid(tmp_path, command, predictions, labels) == 0


class TestSynthPipeline:
    def _run_pipeline(self, tmp_path, tiny_config, mode="shared"):
        # the 150-point corridor holds 7 mcb images and the two-epoch model
        # predicts none, so mcb precision has a zero denominator
        with pytest.warns(UserWarning, match="class mcb: zero denominator"):
            p = run_synth_pipeline(tmp_path, tiny_config, mode)
        names = ("labels.csv", "features.jsonl", "predictions.csv", "metrics.json", "map.geojson")
        return tuple(p[name] for name in names)

    def test_smoke_produces_metrics(self, tmp_path, tiny_config, capsys):
        *_, report, geojson = self._run_pipeline(tmp_path, tiny_config)
        doc = json.loads(report.read_text())
        assert "avg_f" in doc
        for name in ("rs", "mcb", "cb"):
            assert set(doc[name]) >= {"precision", "recall", "f", "tp", "fp", "fn", "tn"}
        table = capsys.readouterr().out
        assert "Avg. F" in table
        map_doc = json.loads(geojson.read_text())
        assert map_doc["type"] == "FeatureCollection"
        assert len(map_doc["features"]) == 150

    @pytest.mark.parametrize("epochs", [2, 0])
    @pytest.mark.parametrize("mode", ["shared", "separate"])
    def test_loss_out_one_row_per_epoch(self, tmp_path, mode, epochs):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(TINY_CONFIG.replace("lstm_epochs = 2", f"lstm_epochs = {epochs}"))
        labels, features = tmp_path / "labels.csv", tmp_path / "features.jsonl"
        losses = tmp_path / "losses.csv"
        base = ["--config", str(cfg)]
        assert run_cli(*base, "synth", "--out", str(labels), "--features-out", str(features)) == 0
        code = run_cli(
            *base, "train-lstm", "--labels", str(labels), "--features", str(features),
            "--mode", mode, "--model-out", str(tmp_path / "model.bin"), "--loss-out", str(losses),
        )
        assert code == 0
        assert_loss_table(losses, epochs)

    def test_deterministic_outputs(self, tmp_path, tiny_config):
        runs = []
        for run in ("run-a", "run-b"):
            (tmp_path / run).mkdir()
            with pytest.warns(UserWarning, match="class mcb: zero denominator"):
                outputs = run_synth_pipeline(tmp_path / run, tiny_config)
            runs.append({name: path.read_bytes() for name, path in outputs.items()})
        assert runs[0] == runs[1]

    def test_inputs_not_mutated(self, tmp_path, tiny_config):
        labels, features, *_ = self._run_pipeline(tmp_path, tiny_config)
        before_labels = labels.read_bytes()
        before_features = features.read_bytes()
        model = tmp_path / "model2.bin"
        assert (
            run_cli(
                "--config",
                tiny_config,
                "train-lstm",
                "--labels",
                str(labels),
                "--features",
                str(features),
                "--model-out",
                str(model),
            )
            == 0
        )
        assert labels.read_bytes() == before_labels
        assert features.read_bytes() == before_features

    def test_evaluate_length_mismatch_exit_5(self, tmp_path, tiny_config, capsys):
        labels, features, predictions, *_ = self._run_pipeline(tmp_path, tiny_config)
        truncated = tmp_path / "short.csv"
        lines = predictions.read_text().splitlines()
        truncated.write_text("\n".join(lines[:-10]) + "\n")
        code = run_cli(
            "evaluate",
            "--predictions",
            str(truncated),
            "--truth",
            str(labels),
            "--out",
            str(tmp_path / "m.json"),
        )
        assert code == 5
        err = capsys.readouterr().err
        assert "140" in err and "150" in err

    def test_evaluate_weights_f_by_truth_counts(self, tmp_path):
        # a 983-image table with 868/324/352 positives, every image predicted positive
        records = [
            ImageRecord(f"img-{i}", "e1", i, LatLon(33.0, -87.0), (i < 868, i < 324, i < 352))
            for i in range(983)
        ]
        truth, predictions = tmp_path / "truth.csv", tmp_path / "predictions.csv"
        write_labels(str(truth), records)
        write_predictions(str(predictions), records, np.ones((983, 3)), np.ones((983, 3), bool))
        report = tmp_path / "metrics.json"
        assert run_cli(
            "evaluate", "--predictions", str(predictions), "--truth", str(truth),
            "--out", str(report),
        ) == 0
        counts = (868, 324, 352)
        f = [2 * (n / 983) / (n / 983 + 1) for n in counts]
        want = sum(fk * n for fk, n in zip(f, counts)) / sum(counts)
        assert json.loads(report.read_text())["avg_f"] == round(want, 6)

    def test_evaluate_baseline_mismatches_exit_5(self, tmp_path, tiny_config, capsys):
        labels, _, predictions, *_ = self._run_pipeline(tmp_path, tiny_config)
        lines = predictions.read_text().splitlines()
        short = tmp_path / "short.csv"
        short.write_text("\n".join(lines[:-1]) + "\n")
        rekeyed = tmp_path / "rekeyed.csv"
        rekeyed.write_text("\n".join(lines[:-1] + [lines[-1].replace(",149,", ",150,")]) + "\n")
        capsys.readouterr()
        for baseline, message in (
            (short, "149 baseline rows vs 150"),
            (rekeyed, "baseline/truth key mismatch at (corridor, 150)"),
        ):
            # the baseline is refused before scoring, so the predictions' missing
            # mcb class raises no warning (the UserWarning filter would fail it)
            code = run_cli(
                "evaluate",
                "--predictions",
                str(predictions),
                "--truth",
                str(labels),
                "--baseline",
                str(baseline),
                "--out",
                str(tmp_path / "m.json"),
            )
            assert code == 5
            assert message in capsys.readouterr().err

    def _run_on_bad_feature(self, tmp_path, tiny_config, capsys, command, value):
        """Run command on the pipeline's feature file with the first value of
        line 3 set to value; returns the exit code and stderr, after checking
        that the command wrote no output."""
        labels, features, *_ = self._run_pipeline(tmp_path, tiny_config)
        lines = features.read_text().splitlines()
        entry = json.loads(lines[2])
        entry["features"][0] = value
        lines[2] = json.dumps(entry)  # writes NaN as the bare token JSON-lines readers accept
        features.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        if command == "train-lstm":
            target = ["--model-out", str(out)]
        else:
            target = ["--model", str(tmp_path / "model.bin"), "--out", str(out)]
        capsys.readouterr()
        code = run_cli(
            "--config", tiny_config, command, "--labels", str(labels), "--features", str(features), *target
        )
        assert not out.exists()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train-lstm", "predict"])
    def test_non_finite_feature_exit_4(self, tmp_path, tiny_config, capsys, command):
        code, err = self._run_on_bad_feature(tmp_path, tiny_config, capsys, command, float("nan"))
        assert code == 4
        assert "line 3: non-finite feature value" in err

    @pytest.mark.parametrize("value", ["1.5", True], ids=["numeric-text", "bool"])
    @pytest.mark.parametrize("command", ["train-lstm", "predict"])
    def test_non_number_feature_exit_4(self, tmp_path, tiny_config, capsys, command, value):
        # np.asarray would read "1.5" as 1.5 and true as 1.0
        code, err = self._run_on_bad_feature(tmp_path, tiny_config, capsys, command, value)
        assert code == 4
        assert f"line 3: feature values must be numbers, got {value!r}" in err

    def test_latitude_out_of_range_exit_4(self, tmp_path, tiny_config, capsys):
        labels, features, *_ = self._run_pipeline(tmp_path, tiny_config)
        lines = labels.read_text().splitlines()
        fields = lines[5].split(",")
        fields[3] = "133.5"
        lines[5] = ",".join(fields)
        labels.write_text("\n".join(lines) + "\n")
        out = tmp_path / "p.csv"
        capsys.readouterr()
        code = run_cli(
            "--config",
            tiny_config,
            "predict",
            "--labels",
            str(labels),
            "--features",
            str(features),
            "--model",
            str(tmp_path / "model.bin"),
            "--out",
            str(out),
        )
        assert code == 4
        assert "line 6: latitude 133.5 outside [-90, 90]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(
                lambda line: line.replace("syn-00001", "syn-00000"),
                "line 3: duplicate image_id 'syn-00000', first seen on line 2",
                id="duplicate-image-id",
            ),
            pytest.param(
                lambda line: line.replace("syn-00001", "syn-\udcff"),
                "not UTF-8",
                id="not-utf8",
            ),
            pytest.param(
                lambda line: line.replace("syn-00001", "x" * 140_000),
                "line 3: field larger than field limit (131072)",
                id="over-long-field",
            ),
        ],
    )
    def test_bad_labels_exit_4(self, tmp_path, tiny_config, capsys, edit, message):
        labels, features, predictions, *_ = self._run_pipeline(tmp_path, tiny_config)
        lines = labels.read_text().splitlines()
        lines[2] = edit(lines[2])
        labels.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
        out = tmp_path / "out"
        capsys.readouterr()
        for argv in (
            ["evaluate", "--predictions", str(predictions), "--truth", str(labels), "--out"],
            ["train-lstm", "--labels", str(labels), "--features", str(features), "--model-out"],
        ):
            assert run_cli("--config", tiny_config, *argv, str(out)) == 4
            assert f"{labels}: {message}" in capsys.readouterr().err
            assert not out.exists()

    def test_predict_at_other_window_exit_5(self, tmp_path, tiny_config, capsys):
        labels, features, *_ = self._run_pipeline(tmp_path, tiny_config)
        other = tmp_path / "window10.cfg"
        other.write_text(TINY_CONFIG.replace("window = 20", "window = 10"))
        out = tmp_path / "p.csv"
        model = str(tmp_path / "model.bin")
        capsys.readouterr()
        code = run_cli(
            "--config", str(other), "predict", "--labels", str(labels),
            "--features", str(features), "--model", model, "--out", str(out),
        )
        assert code == 5
        assert f"{model} was trained with window 20, config window is 10" in capsys.readouterr().err
        assert not out.exists()

    def test_predict_checks_model_before_features(self, tmp_path, tiny_config, capsys):
        # a model of another window, with a feature file that would fail its
        # parse (exit 4): the model is refused first
        labels, features, *_ = self._run_pipeline(tmp_path, tiny_config)
        other = tmp_path / "window10.cfg"
        other.write_text(TINY_CONFIG.replace("window = 20", "window = 10"))
        broken = tmp_path / "broken.jsonl"
        broken.write_bytes(features.read_bytes() + b"{not json\n")
        out = tmp_path / "p.csv"
        model = str(tmp_path / "model.bin")
        capsys.readouterr()
        code = run_cli(
            "--config", str(other), "predict", "--labels", str(labels),
            "--features", str(broken), "--model", model, "--out", str(out),
        )
        assert code == 5
        message = f"{model} was trained with window 20, config window is 10"
        assert f"error: {message}\n" == capsys.readouterr().err
        assert not out.exists()

    def test_predict_with_model_of_other_width_exit_5(self, tmp_path, tiny_config, capsys):
        labels, features, *_ = self._run_pipeline(tmp_path, tiny_config)
        wide = tmp_path / "wide.cfg"
        wide.write_text(TINY_CONFIG.replace("feature_dim = 8", "feature_dim = 16"))
        wide_labels, wide_features = tmp_path / "wide_labels.csv", tmp_path / "wide.jsonl"
        model = tmp_path / "wide_model.bin"
        base = ["--config", str(wide)]
        assert run_cli(
            *base, "synth", "--out", str(wide_labels), "--features-out", str(wide_features)
        ) == 0
        assert run_cli(
            *base, "train-lstm", "--labels", str(wide_labels), "--features", str(wide_features),
            "--model-out", str(model),
        ) == 0
        out = tmp_path / "p.csv"
        capsys.readouterr()
        code = run_cli(
            "--config", tiny_config, "predict", "--labels", str(labels),
            "--features", str(features), "--model", str(model), "--out", str(out),
        )
        assert code == 5
        message = f"{model} was trained with input_dim 16, config feature_dim is 8"
        assert f"error: {message}\n" == capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "header, message",
        [
            pytest.param(
                b'{"format": "safetymap-model", "version": 1, "tensors": [], '
                b'"meta": {"kind": "frame"}}\n',
                "not a sequence model (kind='frame')", id="frame-kind",
            ),
            pytest.param(b'{"meta": {"kind": "cnn"\n', "invalid model header", id="bad-json"),
            pytest.param(b'["cnn"]\n', "not a safetymap-model container", id="not-header"),
        ],
    )
    def test_predict_on_other_container_gets_sequence_message(
        self, tmp_path, tiny_config, capsys, header, message
    ):
        # predict reads a CNN only where the header is a JSON object of kind cnn
        model = tmp_path / "model.bin"
        model.write_bytes(header)
        code = run_cli(
            "--config", tiny_config, "predict", "--labels", str(tmp_path / "missing.csv"),
            "--features", str(tmp_path / "missing.jsonl"), "--model", str(model),
            "--out", str(tmp_path / "p.csv"),
        )
        assert code == 5
        assert capsys.readouterr().err.startswith(f"error: {model}: {message}")

    def test_separate_mode(self, tmp_path, tiny_config):
        *_, report, _ = self._run_pipeline(tmp_path, tiny_config, mode="separate")
        doc = json.loads(report.read_text())
        assert 0.0 <= doc["avg_f"] <= 1.0

    def test_verbose_separate_training_logs_its_split(self, tmp_path, tiny_config):
        labels, features = tmp_path / "labels.csv", tmp_path / "features.jsonl"
        base = ["--config", tiny_config]
        assert run_cli(*base, "synth", "--out", str(labels), "--features-out", str(features)) == 0
        run = run_cli_process(
            *base, "-v", "train-lstm", "--labels", str(labels), "--features", str(features),
            "--mode", "separate", "--model-out", str(tmp_path / "model.bin"),
        )
        assert run.code == 0, run.stderr
        assert not run.children_left
        split = {
            1: "groups [0, 1, 2] here, none in 0 workers",
            2: "groups [0, 1] here, [2] in 1 worker",
            3: "groups [0] here, [1], [2] in 2 workers",
        }[min(WORKERS, 3)]
        assert f"INFO safetymap.lstm: separate model: {split}\n" in run.stderr

    def test_per_gate_layout_rejected(self, tmp_path, tiny_config, capsys):
        # the container layout before the packed one: one W/U/b tensor per
        # gate and the head, per group, named shared/W_f ... shared/out.b
        labels, features, *_ = self._run_pipeline(tmp_path, tiny_config)
        model = tmp_path / "model.bin"
        tensors, meta = load_tensors(str(model))
        per_gate = {f"shared/{key}": value for key, value in gate_params(tensors, 0).items()}
        save_tensors(str(model), per_gate, meta)
        out = tmp_path / "p.csv"
        capsys.readouterr()
        code = run_cli(
            "--config", tiny_config, "predict", "--labels", str(labels),
            "--features", str(features), "--model", str(model), "--out", str(out),
        )
        assert code == 5
        err = capsys.readouterr().err
        assert f"{model}: tensors do not match the meta" in err
        assert "shared/W_f (8, 8), meta implies none" in err and "wp missing" in err
        assert not out.exists()

    def test_non_finite_model_exit_5(self, tmp_path, tiny_config, capsys):
        labels, features, *_ = self._run_pipeline(tmp_path, tiny_config)
        model = tmp_path / "model.bin"
        set_first_value(model, np.nan)  # wp[0, 0, 0]
        out = tmp_path / "p.csv"
        capsys.readouterr()
        code = run_cli(
            "--config", tiny_config, "predict", "--labels", str(labels),
            "--features", str(features), "--model", str(model), "--out", str(out),
        )
        assert code == 5
        assert f"error: {model}: tensor 'wp' holds 1 non-finite values\n" == capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _diverging_run(tmp_path, mode):
        """A train-lstm argv whose learning rate overflows the weights, and
        its model and loss paths."""
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(TINY_CONFIG + "lstm_lr = 1e300\n")
        labels, features = tmp_path / "labels.csv", tmp_path / "features.jsonl"
        base = ["--config", str(cfg)]
        assert run_cli(*base, "synth", "--out", str(labels), "--features-out", str(features)) == 0
        model, losses = tmp_path / "model.bin", tmp_path / "losses.csv"
        argv = [
            *base, "train-lstm", "--labels", str(labels), "--features", str(features),
            "--mode", mode, "--model-out", str(model), "--loss-out", str(losses),
        ]
        return argv, model, losses

    def test_diverging_training_exit_5(self, tmp_path, capsys):
        argv, model, losses = self._diverging_run(tmp_path, "shared")
        capsys.readouterr()
        with pytest.warns(RuntimeWarning) as warned:
            code = run_cli(*argv)
        assert any("overflow" in str(w.message) for w in warned)
        assert code == 5
        assert f"error: {model}: tensor 'wp' holds " in capsys.readouterr().err
        assert not model.exists() and not losses.exists()

    def test_diverging_separate_training_exit_5_leaves_no_worker(self, tmp_path):
        # in a fresh interpreter train-lstm forks: with more than one CPU,
        # the last class stack diverges in a worker
        argv, model, losses = self._diverging_run(tmp_path, "separate")
        run = run_cli_process(*argv)
        assert run.code == 5
        assert "RuntimeWarning: overflow" in run.stderr
        assert f"error: {model}: tensor 'wp' holds " in run.stderr
        assert not model.exists() and not losses.exists()
        assert not run.children_left

    def test_in_process_separate_training_forks_nothing(self, tmp_path, tiny_config, monkeypatch):
        # this process loaded numpy before main, so its BLAS pool may run threads
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        labels, features = tmp_path / "labels.csv", tmp_path / "features.jsonl"
        base = ["--config", tiny_config]
        assert run_cli(*base, "synth", "--out", str(labels), "--features-out", str(features)) == 0
        assert run_cli(
            *base, "train-lstm", "--labels", str(labels), "--features", str(features),
            "--mode", "separate", "--model-out", str(tmp_path / "model.bin"),
        ) == 0

    def test_in_process_predict_forks_nothing(self, tmp_path, tiny_config, monkeypatch):
        # this process loaded numpy before main, so its BLAS pool may run threads
        labels, features, *_ = self._run_pipeline(tmp_path, tiny_config, mode="separate")
        model = tmp_path / "model.bin"

        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert run_cli(
            "--config", tiny_config, "predict", "--labels", str(labels), "--features",
            str(features), "--model", str(model), "--out", str(tmp_path / "p.csv"),
        ) == 0

    def test_verbose_predict_logs_both_splits(self, tmp_path, tiny_config):
        labels, features, *_ = self._run_pipeline(tmp_path, tiny_config, mode="separate")
        model = tmp_path / "model.bin"
        size = features.stat().st_size
        # 150 images at window 20: 131 windows in 4 separate-mode chunks of 42
        for cpus, parse, chunks in (
            (1, f"bytes 0-{size} here, none in 0 workers", "4 chunks: 4 here, none in 0 workers"),
            (2, r"bytes 0-(\d+) here, \1-" f"{size} in 1 worker", "4 chunks: 2 here, 2 in 1 worker"),
        ):
            run = run_cli_process(
                "--config", tiny_config, "-v", "predict", "--labels", str(labels),
                "--features", str(features), "--model", str(model),
                "--out", str(tmp_path / "p.csv"), cpus=cpus,
            )
            assert run.code == 0, run.stderr
            assert re.search(f"^INFO safetymap.data: {re.escape(str(features))}: {parse}$",
                             run.stderr, re.MULTILINE), run.stderr
            assert f"INFO safetymap.lstm: {chunks}\n" in run.stderr

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(b"no_such_knob = 3\n", ":1: unknown config key 'no_such_knob'", id="unknown-key"),
            pytest.param(b"# comment\nwindow 5\n", ":2: expected 'key = value', got 'window 5'", id="no-equals"),
            pytest.param(b"window = 1.5\n", ":1: window: invalid literal for int()", id="float-for-int"),
            pytest.param(b"window = 5\n\nwindow = 6\n", ":3: window repeated, first set on line 1", id="repeated"),
            pytest.param(b"window = 5\nseed = \xff\n", ": not UTF-8: ", id="not-utf8"),
        ],
    )
    def test_bad_config_file_exit_2(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(text)
        capsys.readouterr()
        code = run_cli(
            "--config", str(cfg), "synth", "--out", "l.csv", "--features-out", "f.jsonl"
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: config: {cfg}{message}")

    def test_bad_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("window = 0\n")
        code = run_cli(
            "--config", str(cfg), "synth", "--out", "l.csv", "--features-out", "f.jsonl"
        )
        assert code == 2


# Runs cli.main(argv) with a command's work split over two processes,
# printing each forked worker's pid as it starts.
_REPORTING_FORK_PROCESS = """
import os, sys
from safetymap import cli
fork = os.fork
def reporting_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid
os.fork = reporting_fork
cli._usable_cpus = lambda: 2
sys.exit(cli.main(sys.argv[1:]))
"""


def running(pid: int) -> bool:
    """Whether pid is a live process and not a zombie, from Linux's /proc."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="a worker dies with its parent through prctl"
)
@pytest.mark.parametrize("command", ["train-lstm", "train-cnn", "predict"])
@pytest.mark.parametrize(
    "signum, code", [(signal.SIGTERM, 128 + signal.SIGTERM), (signal.SIGKILL, -signal.SIGKILL)]
)
def test_killed_training_leaves_no_worker(tmp_path, command, signum, code):
    # SIGTERM unwinds the command, which kills and reaps its workers; on
    # SIGKILL the kernel kills the workers with their parent
    out = tmp_path / "out"
    forks = 2  # train-lstm and predict fork to read their features, then to run
    if command == "train-lstm":  # separate mode, whose class stacks split
        cfg = tmp_path / "long.cfg"
        cfg.write_text(TINY_CONFIG.replace("lstm_epochs = 2", "lstm_epochs = 100000"))
        labels, features = tmp_path / "labels.csv", tmp_path / "features.jsonl"
        assert run_cli(
            "--config", str(cfg), "synth", "--out", str(labels), "--features-out", str(features)
        ) == 0
        inputs = ["--features", str(features), "--mode", "separate", "--model-out", str(out)]
    elif command == "predict":  # separate mode on 40 000 images, about 1 s a process
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CONFIG)
        labels, features = tmp_path / "labels.csv", tmp_path / "features.jsonl"
        model = tmp_path / "model.bin"
        assert run_cli(
            "--config", str(cfg), "synth", "--out", str(labels), "--features-out", str(features)
        ) == 0
        assert run_cli(
            "--config", str(cfg), "train-lstm", "--labels", str(labels), "--features",
            str(features), "--mode", "separate", "--model-out", str(model),
        ) == 0
        cfg.write_text(TINY_CONFIG.replace("n_points = 150", "n_points = 40000"))
        assert run_cli(
            "--config", str(cfg), "synth", "--out", str(labels), "--features-out", str(features)
        ) == 0
        inputs = ["--features", str(features), "--model", str(model), "--out", str(out)]
    else:
        labels, manifest, cfg = write_pixel_inputs(
            tmp_path, config="feature_dim = 8\ncnn_epochs = 100000\nbatch_size = 4\n"
        )
        inputs = ["--manifest", str(manifest), "--model-out", str(out)]
        forks = 1
    stderr = tmp_path / "stderr"
    with open(stderr, "w") as err:  # a file, not a pipe a surviving worker would hold open
        proc = subprocess.Popen(
            [sys.executable, "-c", _REPORTING_FORK_PROCESS, "--config", str(cfg), command,
             "--labels", str(labels), *inputs],
            env=process_env(), stdout=subprocess.PIPE, stderr=err, text=True,
        )
    workers = []
    try:
        for _ in range(forks):  # the last one works until the signal
            workers.append(int(proc.stdout.readline()))
        time.sleep(0.3)  # both processes are at work
        proc.send_signal(signum)
        assert proc.wait(timeout=60) == code, stderr.read_text()
        deadline = time.monotonic() + 10
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, workers))
        assert not out.exists()
    finally:
        for worker in filter(running, workers):
            os.kill(worker, signal.SIGKILL)
        proc.kill()
        proc.wait()
        proc.stdout.close()


# Loads a corridor and a sequence model and prints the sha256 of the
# predict_corridor probabilities, in a process that never calls cli.main.
_PREDICT_PROCESS = """
import hashlib, sys
from safetymap import data, lstm
model = lstm.seq_load(sys.argv[3])
records = data.load_labels(sys.argv[1])
features = data.attach_features(records, sys.argv[2], model.input_dim)
probs, _ = lstm.predict_corridor(model, records, features, model.window, 0.5)
print(hashlib.sha256(probs.tobytes()).hexdigest())
"""


class TestBlasThreads:
    """The CLI pins BLAS to one thread, so each command writes the same bytes
    whatever thread count its environment asks for. Without the pin, a BLAS
    split of the dense layer's GEMM and of the LSTM's `up` gradient changes
    their last bits with the count. Counts above 2 are not tested."""

    @staticmethod
    def outputs_at_one_and_two_threads(tmp_path, *argv, out_flag="--out"):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out-{threads}"
            run = run_cli_process(*argv, out_flag, str(out), threads=threads)
            assert run.code == 0, run.stderr
            assert not run.children_left
            outputs.append(out.read_bytes())
        return outputs

    @staticmethod
    def wide_corridor(tmp_path, n_points):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(
            f"n_points = {n_points}\nfeature_dim = 250\nwindow = 50\nlstm_epochs = 1\nseed = 5\n"
        )
        labels, features = tmp_path / "labels.csv", tmp_path / "features.jsonl"
        base = ["--config", str(cfg)]
        assert run_cli(*base, "synth", "--out", str(labels), "--features-out", str(features)) == 0
        return base, ["--labels", str(labels), "--features", str(features)]

    def test_predict_independent_of_blas_thread_count(self, tmp_path):
        # in-process, where nothing pins BLAS: a separate-mode model at paper
        # width, whose projection and recurrence GEMMs a BLAS may split
        # differently per thread count
        _, (_, labels, _, features) = self.wide_corridor(tmp_path, n_points=300)
        model = sequence_model("separate", input_dim=250, seed=6)
        model.window = 50
        lstm.seq_save(model, str(tmp_path / "model.bin"))
        digests = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", _PREDICT_PROCESS, labels, features, str(tmp_path / "model.bin")],
                env=process_env(threads), capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout)
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("mode", ["shared", "separate"])
    def test_train_lstm_independent_of_blas_thread_count(self, tmp_path, mode):
        base, inputs = self.wide_corridor(tmp_path, n_points=120)
        first, second = self.outputs_at_one_and_two_threads(
            tmp_path, *base, "train-lstm", *inputs, "--mode", mode, out_flag="--model-out",
        )
        assert first == second

    def test_pixel_commands_independent_of_blas_thread_count(self, tmp_path):
        # 64 x 64 images give a (32, 4096)·(4096, 250) dense GEMM
        labels, manifest, cfg = write_pixel_inputs(
            tmp_path, n=32, size=64, config="feature_dim = 250\ncnn_epochs = 1\nbatch_size = 32\n"
        )
        base, inputs = ["--config", str(cfg)], ["--labels", str(labels), "--manifest", str(manifest)]
        first, second = self.outputs_at_one_and_two_threads(
            tmp_path, *base, "train-cnn", *inputs, out_flag="--model-out",
        )
        assert first == second
        model = tmp_path / "cnn.bin"
        model.write_bytes(first)
        first, second = self.outputs_at_one_and_two_threads(
            tmp_path, *base, "extract-features", *inputs, "--model", str(model),
        )
        assert first == second


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    """Inputs for every command but synth, each made in this process: a road
    network and its samples, a synthetic corridor with a trained sequence
    model and its predictions, and pixel images with a trained CNN."""
    d = tmp_path_factory.mktemp("commands")
    paths = {name: str(d / name) for name in (
        "samples.csv", "labels.csv", "features.jsonl", "model.bin",
        "predictions.csv", "cnn.bin", "tiny.cfg",
    )}
    paths["network.geojson"] = write_network(d)
    Path(paths["tiny.cfg"]).write_text(TINY_CONFIG)
    base = ["--config", paths["tiny.cfg"]]
    steps = [
        ["sample", "--network", paths["network.geojson"], "--out", paths["samples.csv"]],
        [*base, "synth", "--out", paths["labels.csv"], "--features-out", paths["features.jsonl"]],
        [*base, "train-lstm", "--labels", paths["labels.csv"], "--features", paths["features.jsonl"],
         "--model-out", paths["model.bin"]],
        [*base, "predict", "--labels", paths["labels.csv"], "--features", paths["features.jsonl"],
         "--model", paths["model.bin"], "--out", paths["predictions.csv"]],
    ]
    (d / "pixels").mkdir()
    pixel_labels, manifest, cnn_cfg = write_pixel_inputs(d / "pixels")
    paths.update(pixels=str(pixel_labels), manifest=str(manifest), cnn_cfg=str(cnn_cfg))
    steps.append(["--config", paths["cnn_cfg"], "train-cnn", "--labels", paths["pixels"],
                  "--manifest", paths["manifest"], "--model-out", paths["cnn.bin"]])
    for argv in steps:
        assert run_cli(*argv) == 0, argv
    return paths


def command_argv(command: str, p: dict[str, str], out: str) -> list[str]:
    """A valid argv for each command, writing its output to out."""
    tiny, cnn = ["--config", p["tiny.cfg"]], ["--config", p["cnn_cfg"]]
    return {
        "sample": ["sample", "--network", p["network.geojson"], "--out", out],
        "url-gen": ["url-gen", "--samples", p["samples.csv"], "--key", "K", "--out", out],
        "export-map": ["export-map", "--predictions", p["predictions.csv"], "--out", out],
        "train-lstm": [*tiny, "train-lstm", "--labels", p["labels.csv"],
                       "--features", p["features.jsonl"], "--model-out", out],
        "predict": [*tiny, "predict", "--labels", p["labels.csv"], "--features",
                    p["features.jsonl"], "--model", p["model.bin"], "--out", out],
        # the CNN's class head over the corridor's features, as wide as its own
        "predict on a cnn": [*tiny, "predict", "--labels", p["labels.csv"], "--features",
                             p["features.jsonl"], "--model", p["cnn.bin"], "--out", out],
        "evaluate": [*tiny, "evaluate", "--predictions", p["predictions.csv"],
                     "--truth", p["labels.csv"], "--out", out],
        "train-cnn": [*cnn, "train-cnn", "--labels", p["pixels"], "--manifest", p["manifest"],
                      "--model-out", out],
        "extract-features": [*cnn, "extract-features", "--labels", p["pixels"],
                             "--manifest", p["manifest"], "--model", p["cnn.bin"], "--out", out],
    }[command]


# modules a command must not load
NOT_LOADED = {
    "sample": {"numpy"},
    "url-gen": {"numpy"},
    "export-map": {"numpy"},
    "train-lstm": {"safetymap.cnn"},
    "predict": {"safetymap.cnn"},
    "predict on a cnn": {"safetymap.lstm"},
    "evaluate": {"numpy", "safetymap.cnn"},
    "train-cnn": {"safetymap.lstm", "safetymap.metrics"},
    "extract-features": {"safetymap.lstm", "safetymap.metrics"},
}


class TestCommandModules:
    """Each command, run alone in a fresh interpreter, loads only the modules it runs."""

    @pytest.mark.parametrize("command", NOT_LOADED)
    def test_command_loads_only_what_it_runs(self, tmp_path, command_inputs, command):
        out = tmp_path / "out"
        run = run_cli_process(*command_argv(command, command_inputs, str(out)))
        assert run.code == 0, run.stderr
        assert out.stat().st_size > 0
        assert not run.modules & NOT_LOADED[command]

    @pytest.mark.parametrize(
        "argv, code",
        [
            pytest.param(["--help"], 0, id="help"),
            pytest.param(["sample", "--out", "x"], 2, id="usage-error"),
            pytest.param(["--seed", "-1", "sample", "--network", "n", "--out", "x"], 2,
                         id="config-error"),
        ],
    )
    def test_parser_loads_no_numpy(self, argv, code):
        run = run_cli_process(*argv)
        assert run.code == code, run.stderr
        assert "numpy" not in run.modules

    def test_modelio_import_loads_no_numpy(self):
        # predict reads a container's kind through modelio before it loads a model
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, safetymap.modelio; print('numpy' in sys.modules)"],
            env=process_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.stdout == "False\n", proc.stderr

    def test_light_command_errors_load_no_numpy(self, tmp_path, command_inputs):
        p = command_inputs
        predictions = tmp_path / "predictions.csv"
        lines = Path(p["predictions.csv"]).read_text().splitlines()
        fields = lines[1].split(",")
        fields[PREDICTION_COLUMNS.index("p_rs")] = "1.5"
        predictions.write_text("\n".join([lines[0], ",".join(fields), *lines[2:]]) + "\n")
        out = str(tmp_path / "out")
        for argv, code in [
            (["url-gen", "--samples", p["samples.csv"], "--key", "K", "--size", "0",
              "--out", out], EXIT_VALIDATION),
            (["export-map", "--predictions", str(predictions), "--out", out], EXIT_SCHEMA),
            (["sample", "--network", str(tmp_path / "missing.geojson"), "--out", out],
             EXIT_MISSING_FILE),
        ]:
            run = run_cli_process(*argv)
            assert run.code == code, (argv, run.stderr)
            assert run.stderr.startswith("error: ")
            assert "numpy" not in run.modules


class TestConfigValues:
    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_exit_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n")
        out = tmp_path / "labels.csv"
        code = run_cli(
            "--config", str(cfg), "synth", "--out", str(out), "--features-out", str(tmp_path / "f.jsonl")
        )
        assert code == 2
        assert f"config: {key} must be finite, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "labels.csv"
        code = run_cli(
            "--seed", "-1", "synth", "--out", str(out), "--features-out", str(tmp_path / "f.jsonl")
        )
        assert code == 2
        assert "config: seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestFeatureFileBoundary:
    """train-lstm on a malformed feature file exits 4, naming the file."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(
                lambda lines: [lines[0].replace(b"syn-00000", b"syn-\xff")] + lines[1:],
                "not UTF-8: 'utf-8' codec can't decode byte 0xff",
                id="not-utf8",
            ),
            pytest.param(
                lambda lines: [b"[1,2]"] + lines[1:],
                "line 1: expected an object with image_id and features",
                id="array-line",
            ),
            pytest.param(
                lambda lines: [lines[0].replace(b'"syn-00000"', b'["syn-00000"]')] + lines[1:],
                "line 1: image_id must be a string, got ['syn-00000']",
                id="list-image-id",
            ),
            pytest.param(
                lambda lines: lines[:2] + [lines[0]] + lines[2:],
                "line 3: duplicate image_id 'syn-00000', first seen on line 1",
                id="duplicate-image-id",
            ),
            pytest.param(
                lambda lines: lines[1:],
                "no features for 1 record(s): ['syn-00000']",
                id="missing-record",
            ),
        ],
    )
    def test_bad_features_exit_4(self, tmp_path, tiny_config, capsys, edit, message):
        labels = tmp_path / "labels.csv"
        features = tmp_path / "features.jsonl"
        assert run_cli(
            "--config", tiny_config, "synth", "--out", str(labels), "--features-out", str(features)
        ) == 0
        features.write_bytes(b"\n".join(edit(features.read_bytes().splitlines())) + b"\n")
        out = tmp_path / "model.bin"
        capsys.readouterr()
        code = run_cli(
            "--config", tiny_config, "train-lstm", "--labels", str(labels),
            "--features", str(features), "--model-out", str(out),
        )
        assert code == 4
        assert f"error: {features}: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestConfigSizes:
    """A size key that the input contradicts exits 4, and one whose arrays
    cannot be allocated exits 5 naming the size keys, never 1. Each command
    runs under a 2 GiB address-space limit, so no case can take the host's
    memory."""

    LIMIT = 2 << 30
    OUT_OF_MEMORY = "; the config's feature_dim, hidden, mid_dim, window and batch_size size the"

    @pytest.mark.parametrize(
        "setting, piped, code, message",
        [
            pytest.param("feature_dim = 17", False, 4,
                         "f.jsonl: line 1: feature dimension 16 != expected 17", id="dim-17"),
            # a regular file's first line is read before the array is sized
            pytest.param("feature_dim = 100000000", False, 4,
                         "f.jsonl: line 1: feature dimension 16 != expected 100000000", id="dim-1e8"),
            # a pipe cannot be read twice, so its array is sized first
            pytest.param("feature_dim = 100000000", True, 5, "error: OSError: [Errno 12] ",
                         id="dim-1e8-piped"),
            pytest.param("hidden = 1000000", False, 5,
                         "error: MemoryError: Unable to allocate 29.1 TiB", id="hidden-1e6"),
        ],
    )
    def test_train_lstm(self, tmp_path, setting, piped, code, message):
        # a 200-record corridor whose feature file is 16 wide
        labels, features, cfg = tmp_path / "labels.csv", tmp_path / "f.jsonl", tmp_path / "c.cfg"
        cfg.write_text("n_points = 200\nlstm_epochs = 1\n")
        assert run_cli(
            "--config", str(cfg), "synth", "--out", str(labels), "--features-out", str(features)
        ) == 0
        cfg.write_text(cfg.read_text() + setting + "\n")
        model = tmp_path / "model.bin"
        run = run_cli_process(
            "--config", str(cfg), "train-lstm", "--labels", str(labels),
            "--features", "/dev/stdin" if piped else str(features), "--model-out", str(model),
            stdin=features.read_text() if piped else None, address_space=self.LIMIT,
        )
        assert run.code == code, run.stderr
        assert message in run.stderr
        assert (self.OUT_OF_MEMORY in run.stderr) == (code == 5)
        assert not model.exists()

    def test_train_lstm_without_a_window_exit_5_before_its_model(self, tmp_path):
        # no window of 765884 fits 16 records, so the model that hidden =
        # 5089 makes large (about 830 MB of weights) is never built
        labels, features, cfg = tmp_path / "labels.csv", tmp_path / "f.jsonl", tmp_path / "c.cfg"
        cfg.write_text("n_points = 16\n")
        assert run_cli(
            "--config", str(cfg), "synth", "--out", str(labels), "--features-out", str(features)
        ) == 0
        cfg.write_text("n_points = 16\nwindow = 765884\nhidden = 5089\n")
        model = tmp_path / "model.bin"
        run = run_cli_process(
            "--config", str(cfg), "train-lstm", "--labels", str(labels), "--features",
            str(features), "--model-out", str(model), address_space=self.LIMIT,
        )
        assert run.code == 5, run.stderr
        assert run.stderr.endswith("error: empty training set\n")
        assert run.peak_kb is None or run.peak_kb < 100 << 10, run.peak_kb
        assert not model.exists()

    def test_bare_memory_error_names_its_cause(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(args, config):
            raise MemoryError()

        monkeypatch.setattr(cli, "cmd_sample", out_of_memory)
        capsys.readouterr()
        code = run_cli("sample", "--network", str(tmp_path / "net.geojson"), "--out", "out.csv")
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith(f"error: MemoryError: out of memory{self.OUT_OF_MEMORY}")
        assert ": ;" not in err

    def test_pixel_commands_at_huge_batch_size(self, tmp_path):
        # batch_size sizes nothing beyond the image count: both runs train
        # and extract one batch of the 16 images
        outputs = {}
        for batch_size in (16, 213067559):
            run_dir = tmp_path / str(batch_size)
            run_dir.mkdir()
            config = f"feature_dim = 8\ncnn_epochs = 1\nbatch_size = {batch_size}\n"
            labels, manifest, cfg = write_pixel_inputs(run_dir, n=16, size=4, config=config)
            model, features = run_dir / "cnn.bin", run_dir / "features.jsonl"
            for command, flags in (
                ("train-cnn", ["--model-out", str(model)]),
                ("extract-features", ["--model", str(model), "--out", str(features)]),
            ):
                run = run_cli_process(
                    "--config", str(cfg), command, "--labels", str(labels),
                    "--manifest", str(manifest), *flags, address_space=self.LIMIT,
                )
                assert run.code == 0, (command, run.stderr)
            outputs[batch_size] = model.read_bytes(), features.read_bytes()
        assert outputs[213067559] == outputs[16]

    def test_train_cnn_at_huge_feature_dim_exit_5(self, tmp_path):
        config = "feature_dim = 1000000000\ncnn_epochs = 1\nbatch_size = 4\n"
        labels, manifest, cfg = write_pixel_inputs(tmp_path, config=config)
        model = tmp_path / "cnn.bin"
        run = run_cli_process(
            "--config", str(cfg), "train-cnn", "--labels", str(labels),
            "--manifest", str(manifest), "--model-out", str(model), address_space=self.LIMIT,
        )
        assert run.code == 5, run.stderr
        assert "error: MemoryError: " in run.stderr
        assert self.OUT_OF_MEMORY in run.stderr
        assert not model.exists()


class TestPixelCommands:
    @staticmethod
    def feature_weight_copies(tmp_path, cpus: int, command: str) -> np.ndarray:
        """How many copies of a 4096 x 1024 feat.w the peaks of command's
        process and of its worker grow by from feature_dim 16 to 4096, on 16
        images of 32² at batch 8. VmHWM counts what tracemalloc cannot see
        (allocator pages, the heap's layout), so the two runs differ only in
        feature_dim. extract-features reads a model written here."""
        peaks = {}
        for dim in (16, 4096):
            run_dir = tmp_path / str(dim)
            run_dir.mkdir()
            config = f"feature_dim = {dim}\ncnn_epochs = 1\nbatch_size = 8\n"
            labels, manifest, cfg = write_pixel_inputs(run_dir, n=16, size=32, config=config)
            model = run_dir / "cnn.bin"
            if command == "train-cnn":
                flags = ["--model-out", str(model)]
            else:
                arch = CnnConfig(feature_dim=dim, input_shape=(3, 32, 32))
                cnn_save(init_cnn(arch, seed=0), str(model))
                flags = ["--model", str(model), "--out", str(run_dir / "f.jsonl")]
            run = run_cli_process(
                "--config", str(cfg), command, "--labels", str(labels),
                "--manifest", str(manifest), *flags, cpus=cpus,
            )
            assert run.code == 0, run.stderr
            if run.peak_kb is None:
                pytest.skip("no /proc/self/status to read VmHWM from")
            assert (run.workers_peak_kb > 0) == (cpus > 1)
            peaks[dim] = np.array([run.peak_kb, run.workers_peak_kb]) * 1024
        feat_w = (4096, CnnConfig(feature_dim=4096, input_shape=(3, 32, 32)).flat_dim())
        return (peaks[4096] - peaks[16]) / (8 * feat_w[0] * feat_w[1])

    @pytest.mark.parametrize(
        "cpus, copies",
        [pytest.param(1, 3.5, id="one-cpu"), pytest.param(2, 2.1, id="two-cpus")],
    )
    def test_train_cnn_peaks_below_feature_weight_copies(self, tmp_path, cpus, copies):
        # One process holds feat.w and Adam's two moments, three copies, and
        # one row block of its gradient; a whole gradient would make four.
        # With two, feat.w is shared: the command's process maps all of it
        # and the moments of its rows 0-1536 (1.75 copies), the worker rows
        # 1536-4096 and their moments (1.875 copies), so neither reaches 2.1
        # copies. An even split of the rows (2 copies in the command's
        # process), or a copy of feat.w as the model is saved, would cross
        # that bound.
        command, worker = self.feature_weight_copies(tmp_path, cpus, command="train-cnn")
        assert command < copies, command
        assert worker < copies, worker

    @pytest.mark.parametrize("cpus", [pytest.param(1, id="one-cpu"), pytest.param(2, id="two-cpus")])
    def test_extract_features_peaks_below_feature_weight_copies(self, tmp_path, cpus):
        # The model's tensors are read straight into their arrays, so each
        # process maps one copy of feat.w, the worker the pages it inherited;
        # reading each tensor through a bytes object and a copy made two.
        command, worker = self.feature_weight_copies(tmp_path, cpus, command="extract-features")
        assert command < 1.5, command
        assert worker < 1.5, worker

    @pytest.mark.parametrize("cpus", [pytest.param(1, id="one-cpu"), pytest.param(2, id="two-cpus")])
    def test_pixel_command_peaks_do_not_grow_with_the_image_count(
        self, tmp_path, monkeypatch, cpus
    ):
        # Each process reads the images of its part of a batch when that
        # batch runs, so neither the command process nor its worker holds
        # the image set. Compare, as above, two runs that differ only in the
        # image count: n and 4n images, whose difference is 4.1 MB of uint8
        # pixels; a process holding them all would grow by the whole of it.
        # glibc's mmap threshold is held at its initial 128 KB: raised by
        # the first freed multi-MB conv buffer, as it is by default, it lets
        # the heap's layout move a peak by up to about 1.5 MB between two
        # such runs (a quarter of the added bytes is 1 MB).
        monkeypatch.setenv("MALLOC_MMAP_THRESHOLD_", str(128 << 10))
        n, size = 28, 128
        added = 3 * n * size * size * 3
        config = "feature_dim = 8\ncnn_epochs = 1\nbatch_size = 8\n"
        peaks = {}
        for count in (n, 4 * n):
            run_dir = tmp_path / str(count)
            run_dir.mkdir()
            labels, manifest, cfg = write_pixel_inputs(run_dir, n=count, size=size, config=config)
            model = run_dir / "cnn.bin"
            for command, flags in (
                ("train-cnn", ["--model-out", str(model)]),
                ("extract-features", ["--model", str(model), "--out", str(run_dir / "f.jsonl")]),
            ):
                run = run_cli_process(
                    "--config", str(cfg), command, "--labels", str(labels),
                    "--manifest", str(manifest), *flags, cpus=cpus,
                )
                assert run.code == 0, (command, run.stderr)
                if run.peak_kb is None:
                    pytest.skip("no /proc/self/status to read VmHWM from")
                peaks[command, count] = np.array([run.peak_kb, run.workers_peak_kb]) * 1024
        for command in ("train-cnn", "extract-features"):
            growth = (peaks[command, 4 * n] - peaks[command, n]) / added
            assert (growth < 0.25).all(), (command, growth)

    def test_truncated_ppm_exit_4(self, tmp_path, capsys):
        labels, manifest, cfg = write_pixel_inputs(tmp_path)
        ppm = tmp_path / "px-0003.ppm"
        ppm.write_bytes(ppm.read_bytes()[:50])
        capsys.readouterr()
        code = run_cli(
            "--config", str(cfg), "train-cnn", "--labels", str(labels),
            "--manifest", str(manifest), "--model-out", str(tmp_path / "cnn.bin"),
        )
        assert code == 4
        assert f"{ppm}: pixel block truncated, 39 of 192 bytes" in capsys.readouterr().err

    def _train(self, tmp_path, labels, manifest, cfg):
        return run_cli(
            "--config", str(cfg), "train-cnn", "--labels", str(labels),
            "--manifest", str(manifest), "--model-out", str(tmp_path / "cnn.bin"),
        )

    @pytest.mark.parametrize(
        "size, message",
        [
            pytest.param(16, "is 16 x 16 pixels, expected 8 x 8", id="differs-from-first"),
            pytest.param(9, "is 9 x 9 pixels, expected 8 x 8", id="odd"),
        ],
    )
    def test_train_cnn_image_size_exit_5(self, tmp_path, capsys, size, message):
        labels, manifest, cfg = write_pixel_inputs(tmp_path)
        ppm = tmp_path / "px-0005.ppm"
        write_ppm(str(ppm), np.zeros((size, size, 3)))
        capsys.readouterr()
        assert self._train(tmp_path, labels, manifest, cfg) == 5
        assert f"{ppm}: image px-0005 {message}" in capsys.readouterr().err
        assert not (tmp_path / "cnn.bin").exists()

    def test_train_cnn_empty_labels_exit_5(self, tmp_path, capsys):
        labels, manifest, cfg = write_pixel_inputs(tmp_path)
        labels.write_text(labels.read_text().splitlines()[0] + "\n")  # the header alone
        capsys.readouterr()
        assert self._train(tmp_path, labels, manifest, cfg) == 5
        assert capsys.readouterr().err == f"error: {labels}: empty training set\n"
        assert not (tmp_path / "cnn.bin").exists()

    def test_train_cnn_unpoolable_size_exit_5(self, tmp_path, capsys):
        labels, manifest, cfg = write_pixel_inputs(tmp_path)
        for n in range(12):  # every image 10 x 10: the second 2x2 pool would see 5 x 5
            write_ppm(str(tmp_path / f"px-{n:04d}.ppm"), np.zeros((10, 10, 3)))
        capsys.readouterr()
        assert self._train(tmp_path, labels, manifest, cfg) == 5
        message = "image px-0000 is 10 x 10 pixels, not a multiple of 4"
        assert f"{tmp_path / 'px-0000.ppm'}: {message}" in capsys.readouterr().err

    def test_extract_features_image_size_exit_5(self, tmp_path, capsys):
        labels, manifest, cfg = write_pixel_inputs(tmp_path)
        assert self._train(tmp_path, labels, manifest, cfg) == 0
        ppm = tmp_path / "px-0007.ppm"
        write_ppm(str(ppm), np.zeros((8, 12, 3)))
        capsys.readouterr()
        code = run_cli(
            "--config", str(cfg), "extract-features", "--labels", str(labels),
            "--manifest", str(manifest), "--model", str(tmp_path / "cnn.bin"),
            "--out", str(tmp_path / "features.jsonl"),
        )
        assert code == 5
        assert f"{ppm}: image px-0007 is 12 x 8 pixels, expected 8 x 8" in capsys.readouterr().err
        assert not (tmp_path / "features.jsonl").exists()

    def test_extract_features_non_finite_model_exit_5(self, tmp_path, capsys):
        labels, manifest, cfg = write_pixel_inputs(tmp_path)
        assert self._train(tmp_path, labels, manifest, cfg) == 0
        model = tmp_path / "cnn.bin"
        set_first_value(model, np.inf)
        out = tmp_path / "features.jsonl"
        capsys.readouterr()
        code = run_cli(
            "--config", str(cfg), "extract-features", "--labels", str(labels),
            "--manifest", str(manifest), "--model", str(model), "--out", str(out),
        )
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: tensor ")
        assert err.endswith(" holds 1 non-finite values\n")
        assert not out.exists()

    def test_extract_features_huge_weights_exit_5(self, tmp_path, capsys):
        # finite weights whose features overflow to inf: the writer refuses
        # the vectors that train-lstm's reader would refuse
        labels, manifest, cfg = write_pixel_inputs(tmp_path)
        assert self._train(tmp_path, labels, manifest, cfg) == 0
        model = tmp_path / "cnn.bin"
        tensors, meta = load_tensors(str(model))
        for key in ("conv1.k", "feat.w"):
            tensors[key] = np.full_like(tensors[key], 1e307)
        save_tensors(str(model), tensors, meta)
        out = tmp_path / "features.jsonl"
        capsys.readouterr()
        # the overflow is this input's point; whether a BLAS product reports
        # it as a RuntimeWarning can depend on its thread count
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli(
                "--config", str(cfg), "extract-features", "--labels", str(labels),
                "--manifest", str(manifest), "--model", str(model), "--out", str(out),
            )
        assert code == 5
        assert capsys.readouterr().err.startswith(f"error: {out}: features of image px-")
        assert not out.exists()

    def test_in_process_pixel_commands_fork_nothing(self, tmp_path, monkeypatch):
        # this process loaded numpy before main, so its BLAS pool may run threads
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        labels, manifest, cfg = write_pixel_inputs(tmp_path)
        assert self._train(tmp_path, labels, manifest, cfg) == 0
        assert run_cli(
            "--config", str(cfg), "extract-features", "--labels", str(labels),
            "--manifest", str(manifest), "--model", str(tmp_path / "cnn.bin"),
            "--out", str(tmp_path / "features.jsonl"),
        ) == 0

    @pytest.mark.parametrize(
        "cpus, training, extraction",
        [
            pytest.param(1, "4 here, none in 0 workers", "3 here, none in 0 workers", id="one-cpu"),
            pytest.param(2, "2 here, 2 in 1 worker", "2 here, 1 in 1 worker", id="two-cpus"),
        ],
    )
    def test_verbose_pixel_commands_log_their_split(self, tmp_path, cpus, training, extraction):
        labels, manifest, cfg = write_pixel_inputs(tmp_path)  # 12 images, batches of 4
        model = tmp_path / "cnn.bin"
        for command, flags, split in (
            ("train-cnn", ["--model-out", str(model)], f"images per batch of 4: {training}"),
            ("extract-features", ["--model", str(model), "--out", str(tmp_path / "f.jsonl")],
             f"batches of 4: {extraction}"),
        ):
            run = run_cli_process(
                "--config", str(cfg), "-v", command, "--labels", str(labels),
                "--manifest", str(manifest), *flags, cpus=cpus,
            )
            assert run.code == 0, run.stderr
            assert f"INFO safetymap.cnn: {split}\n" in run.stderr

    def test_predict_on_cnn_of_other_width_exit_5(self, tmp_path, capsys):
        # the CNN's width is checked before the labels or features are read
        labels, manifest, cfg = write_pixel_inputs(tmp_path)
        assert self._train(tmp_path, labels, manifest, cfg) == 0
        wide = tmp_path / "wide.cfg"
        wide.write_text("feature_dim = 16\n")
        model, out = tmp_path / "cnn.bin", tmp_path / "frames.csv"
        capsys.readouterr()
        code = run_cli(
            "--config", str(wide), "predict", "--labels", str(tmp_path / "missing.csv"),
            "--features", str(tmp_path / "missing.jsonl"), "--model", str(model),
            "--out", str(out),
        )
        assert code == 5
        message = f"{model} was trained with input_dim 8, config feature_dim is 16"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


# Architectures the kernels cannot run, each declared with tensors of the
# shapes it implies: (input_shape, stage_channels, kernel_size)
UNRUNNABLE = {
    "6x6-at-two-stages": ((3, 6, 6), (2, 3), 3),
    "kernel-2": ((3, 8, 8), (2,), 2),
    "kernel-0": ((3, 8, 8), (2,), 0),
    "empty-stage": ((3, 8, 8), (0, 3), 3),
    "one-channel": ((1, 8, 8), (2,), 3),
    "zero-width": ((3, 8, 0), (2,), 3),
    "no-stage": ((3, 8, 8), (), 3),
}


class TestCnnArchitecture:
    """cnn_load refuses an architecture the kernels cannot run, so neither
    command that reads a CNN reaches the kernels with one."""

    @pytest.mark.parametrize("arch", UNRUNNABLE.values(), ids=UNRUNNABLE)
    def test_unrunnable_architecture_exit_5_at_the_loader(self, tmp_path, capsys, arch):
        input_shape, stages, kernel_size = arch
        # images of the declared extent where one exists, so that only the
        # architecture can be refused
        size = input_shape[1] or 8
        labels, manifest, cfg = write_pixel_inputs(tmp_path, size=size)
        model = tmp_path / "cnn.bin"
        write_cnn_container(model, input_shape, stages, kernel_size, feature_dim=8)
        with pytest.raises(ValueError, match=re.escape(f"{model}: incomplete or invalid cnn meta")):
            cnn_load(str(model))
        features = tmp_path / "features.jsonl"
        records = load_labels(str(labels))
        write_features(str(features), records, np.zeros((len(records), 8)))
        out = tmp_path / "out"
        for argv in (
            ["extract-features", "--manifest", str(manifest)],
            ["predict", "--features", str(features)],
        ):
            capsys.readouterr()
            code = run_cli(
                "--config", str(cfg), *argv, "--labels", str(labels), "--model", str(model),
                "--out", str(out),
            )
            assert code == 5, argv
            assert f"error: {model}: incomplete or invalid cnn meta" in capsys.readouterr().err
            assert not out.exists()


class TestPixelChain:
    """The paper's chain on pixels, each command in a fresh interpreter as a
    user runs it, its splits forked: train-cnn, extract-features, predict on
    the CNN (the frame baseline), train-lstm, predict, evaluate --baseline
    and export-map, on a pixel corridor of run-length labels."""

    IMAGES = 48
    CNN_EPOCHS = 10  # at cnn_lr 0.01, so that the frame baseline labels some images
    CONFIG = (
        f"feature_dim = 8\ncnn_epochs = {CNN_EPOCHS}\ncnn_lr = 0.01\nbatch_size = 4\n"
        "window = 4\nhidden = 8\nmid_dim = 8\nlstm_epochs = 4\nlstm_lr = 0.01\n"
    )
    OUTPUTS = (
        "cnn.bin", "losses.csv", "features.jsonl", "frames.csv", "model.bin", "predictions.csv",
        "metrics.json", "map.geojson",
    )

    def run_chain(self, work: Path, labels: Path, manifest: Path, cfg: Path) -> dict[str, bytes]:
        work.mkdir()
        out = {name: str(work / name) for name in self.OUTPUTS}
        images = ["--labels", str(labels), "--manifest", str(manifest)]
        corridor = ["--labels", str(labels), "--features", out["features.jsonl"]]
        for argv in (
            ["train-cnn", *images, "--model-out", out["cnn.bin"], "--loss-out", out["losses.csv"]],
            ["extract-features", *images, "--model", out["cnn.bin"], "--out", out["features.jsonl"]],
            ["predict", *corridor, "--model", out["cnn.bin"], "--out", out["frames.csv"]],
            ["train-lstm", *corridor, "--model-out", out["model.bin"]],
            ["predict", *corridor, "--model", out["model.bin"], "--out", out["predictions.csv"]],
            ["evaluate", "--predictions", out["predictions.csv"], "--truth", str(labels),
             "--baseline", out["frames.csv"], "--out", out["metrics.json"]],
            ["export-map", "--predictions", out["predictions.csv"], "--out", out["map.geojson"]],
        ):
            run = run_cli_process("--config", str(cfg), *argv)
            assert run.code == 0, (argv[0], run.stderr)
        return {name: Path(path).read_bytes() for name, path in out.items()}

    def test_chain_is_byte_identical_and_its_baseline_is_the_cnn(self, tmp_path):
        labels, manifest, cfg = write_pixel_inputs(
            tmp_path, n=self.IMAGES, size=16, config=self.CONFIG, make=make_pixel_corridor
        )
        first = self.run_chain(tmp_path / "a", labels, manifest, cfg)
        second = self.run_chain(tmp_path / "b", labels, manifest, cfg)
        assert [name for name in self.OUTPUTS if first[name] != second[name]] == []
        assert_loss_table(tmp_path / "a" / "losses.csv", self.CNN_EPOCHS)
        entries = [json.loads(line) for line in first["features.jsonl"].splitlines()]
        assert [len(e["features"]) for e in entries] == [8] * self.IMAGES

        # the frame predictions are the CNN's class head over its own features
        records = load_labels(str(labels))
        features = attach_features(records, str(tmp_path / "a" / "features.jsonl"), 8)
        probs = frame_predict(cnn_load(str(tmp_path / "a" / "cnn.bin")).params, features)
        rows = read_predictions(str(tmp_path / "a" / "frames.csv"))
        # the CSV rounds to 6 decimals; the 1e-12 covers parsing them back
        assert np.abs(np.array([row.probs for row in rows]) - probs).max() <= 5e-7 + 1e-12
        assert [list(row.labels) for row in rows] == (probs > 0.5).tolist()

        truth = [r.labels for r in records]
        counts = np.sum(truth, axis=0).tolist()
        per_class = class_metrics([row.labels for row in rows], truth)
        frame_f = weighted_avg_f([m.f for m in per_class], counts)
        lstm_f = json.loads(first["metrics.json"])["avg_f"]
        print(f"pixel chain: LSTM Avg.F {lstm_f:.4f}, frame {frame_f:.4f}, "
              f"gap {lstm_f - frame_f:+.4f}")
