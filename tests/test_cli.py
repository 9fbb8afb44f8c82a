"""End-to-end tests for the command-line pipeline."""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from conftest import make_pixel_records, run_cli_process, sequence_model, write_ppm
from test_lstm import gate_params

from safetymap import lstm
from safetymap.cli import EXIT_MISSING_FILE, EXIT_SCHEMA, EXIT_VALIDATION, build_parser, main
from safetymap.config import PipelineConfig, load_config, parse_config_file, stage_seed
from safetymap.data import PREDICTION_COLUMNS, ImageRecord, write_labels, write_predictions
from safetymap.geo import LatLon, RoadEdge, heading_at
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


def write_pixel_inputs(tmp_path):
    """Twelve 8 x 8 labelled PPM images, their manifest and a one-epoch CNN
    config, in tmp_path: returns the label, manifest and config paths."""
    rng = np.random.default_rng(0)
    records, pixels = make_pixel_records(12, rng, height=8, width=8)
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
    cfg.write_text("feature_dim = 8\ncnn_epochs = 1\nbatch_size = 4\nseed = 3\n")
    return labels, manifest, cfg


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

    def test_url_gen_rejects_heading_360(self, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_text(
            "edge_id,seq_index,chainage_m,lat,lon,heading_deg\nseg-1,0,0.000,33.0,-87.0,360.00\n"
        )
        out = str(tmp_path / "urls.txt")
        assert run_cli("url-gen", "--samples", str(samples), "--key", "K", "--out", out) == 5

    @pytest.mark.parametrize(
        "row, message",
        [
            pytest.param(
                "seg-1,0,0.000,abc,-87.0,10.00",
                "line 2: could not convert string to float: 'abc'",
                id="lat-text",
            ),
            pytest.param("seg-1,0,0.000,33.0,-87.0", "line 2: expected 6 fields, got 5", id="short"),
            pytest.param(
                "seg-1,0,0.000,33.0,-87.0,10.00,x", "line 2: expected 6 fields, got 7", id="long"
            ),
        ],
    )
    def test_url_gen_bad_row_exit_4(self, tmp_path, capsys, row, message):
        samples = tmp_path / "samples.csv"
        samples.write_text(f"edge_id,seq_index,chainage_m,lat,lon,heading_deg\n{row}\n")
        out = tmp_path / "urls.txt"
        capsys.readouterr()
        assert run_cli("url-gen", "--samples", str(samples), "--key", "K", "--out", str(out)) == 4
        assert f"{samples}: {message}" in capsys.readouterr().err
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
        labels = tmp_path / "labels.csv"
        features = tmp_path / "features.jsonl"
        model = tmp_path / "model.bin"
        predictions = tmp_path / "predictions.csv"
        report = tmp_path / "metrics.json"
        geojson = tmp_path / "map.geojson"
        base = ["--config", tiny_config]
        assert run_cli(*base, "synth", "--out", str(labels), "--features-out", str(features)) == 0
        assert (
            run_cli(
                *base,
                "train-lstm",
                "--labels",
                str(labels),
                "--features",
                str(features),
                "--mode",
                mode,
                "--model-out",
                str(model),
            )
            == 0
        )
        assert (
            run_cli(
                *base,
                "predict",
                "--labels",
                str(labels),
                "--features",
                str(features),
                "--model",
                str(model),
                "--out",
                str(predictions),
            )
            == 0
        )
        # the 150-point corridor holds 7 mcb images and the two-epoch model
        # predicts none, so mcb precision has a zero denominator
        with pytest.warns(UserWarning, match="class mcb: zero denominator"):
            assert (
                run_cli(
                    *base,
                    "evaluate",
                    "--predictions",
                    str(predictions),
                    "--truth",
                    str(labels),
                    "--out",
                    str(report),
                )
                == 0
            )
        assert (
            run_cli(
                *base, "export-map", "--predictions", str(predictions), "--out", str(geojson)
            )
            == 0
        )
        return labels, features, predictions, report, geojson

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

    def test_deterministic_outputs(self, tmp_path, tiny_config):
        run_a = tmp_path / "run-a"
        run_b = tmp_path / "run-b"
        run_a.mkdir()
        run_b.mkdir()
        a = self._run_pipeline(run_a, tiny_config)
        b = self._run_pipeline(run_b, tiny_config)
        for left, right in zip(a, b):
            assert left.read_bytes() == right.read_bytes()

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

    def test_separate_mode(self, tmp_path, tiny_config):
        *_, report, _ = self._run_pipeline(tmp_path, tiny_config, mode="separate")
        doc = json.loads(report.read_text())
        assert 0.0 <= doc["avg_f"] <= 1.0

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

    def test_diverging_training_exit_5(self, tmp_path, tiny_config, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(TINY_CONFIG + "lstm_lr = 1e300\n")
        labels, features = tmp_path / "labels.csv", tmp_path / "features.jsonl"
        base = ["--config", str(cfg)]
        assert run_cli(*base, "synth", "--out", str(labels), "--features-out", str(features)) == 0
        model, losses = tmp_path / "model.bin", tmp_path / "losses.csv"
        capsys.readouterr()
        with pytest.warns(RuntimeWarning) as warned:
            code = run_cli(
                *base, "train-lstm", "--labels", str(labels), "--features", str(features),
                "--model-out", str(model), "--loss-out", str(losses),
            )
        assert any("overflow" in str(w.message) for w in warned)
        assert code == 5
        assert f"error: {model}: tensor 'wp' holds " in capsys.readouterr().err
        assert not model.exists() and not losses.exists()

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


class TestBlasThreads:
    def test_predict_independent_of_blas_thread_count(self, tmp_path):
        # a separate-mode model at paper width, whose projection and
        # recurrence GEMMs a BLAS may split differently per thread count
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("n_points = 300\nfeature_dim = 250\nwindow = 50\nseed = 5\n")
        labels, features = tmp_path / "labels.csv", tmp_path / "features.jsonl"
        base = ["--config", str(cfg)]
        assert run_cli(*base, "synth", "--out", str(labels), "--features-out", str(features)) == 0
        model = sequence_model("separate", input_dim=250, seed=6)
        model.window = 50
        lstm.seq_save(model, str(tmp_path / "model.bin"))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"predictions-{threads}.csv"
            run = run_cli_process(
                *base, "predict", "--labels", str(labels), "--features", str(features),
                "--model", str(tmp_path / "model.bin"), "--out", str(out), threads=threads,
            )
            assert run.code == 0, run.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


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
    "evaluate": {"safetymap.cnn"},
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


class TestPixelCommands:
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

    def test_train_cnn_and_extract(self, tmp_path):
        labels, manifest, cfg = write_pixel_inputs(tmp_path)

        model = tmp_path / "cnn.bin"
        losses = tmp_path / "losses.csv"
        code = run_cli(
            "--config",
            str(cfg),
            "train-cnn",
            "--labels",
            str(labels),
            "--manifest",
            str(manifest),
            "--model-out",
            str(model),
            "--loss-out",
            str(losses),
        )
        assert code == 0
        assert losses.read_text().splitlines()[0] == "epoch,train_loss,val_loss"

        features = tmp_path / "features.jsonl"
        code = run_cli(
            "--config",
            str(cfg),
            "extract-features",
            "--labels",
            str(labels),
            "--manifest",
            str(manifest),
            "--model",
            str(model),
            "--out",
            str(features),
        )
        assert code == 0
        entries = [json.loads(line) for line in features.read_text().splitlines()]
        assert len(entries) == 12
        assert all(len(e["features"]) == 8 for e in entries)
