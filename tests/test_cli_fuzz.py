"""Byte-level fuzz of every CLI input: each input kind is mutated and fed to
every command that reads it, in process through `cli.main`. A command must
refuse what it cannot use with its documented exit code (2 usage or config,
3 missing file, 4 schema, 5 validation), never exit 1, and whatever it
writes on exit 0 must pass that output's own reader. Two inputs are also
drawn whole rather than as bytes: CNN architectures, and road networks;
and label tables are drawn whole and run through the sequence chain."""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import run_cli_process, write_cnn_container, write_ppm
from hypothesis import example, given, settings
from hypothesis import strategies as st

from safetymap import cnn, data, geo, lstm
from safetymap.cli import main
from safetymap.config import PipelineConfig
from safetymap.geo import EARTH_RADIUS_M, LatLon

CONFIG = """
n_points = 16
feature_dim = 3
window = 4
hidden = 2
mid_dim = 2
lstm_epochs = 1
cnn_epochs = 1
batch_size = 8
interval_m = 5000
seed = 1
"""
IMAGE_SIZE = 4  # two 2x2 pooling stages leave one pixel

# The input kinds: the file each is read from, and every command that reads it.
READERS = {
    "labels": ("labels.csv", ("train-cnn", "extract-features", "train-lstm", "predict", "evaluate")),
    "features": ("features.jsonl", ("train-lstm", "predict")),
    "sequence model": ("model.bin", ("predict",)),
    "predictions": ("predictions.csv", ("evaluate", "export-map")),
    "network": ("network.geojson", ("sample",)),
    "samples": ("samples.csv", ("url-gen",)),
    "config": ("pipeline.cfg", ("predict", "url-gen")),  # commands its values cannot slow down
    "manifest": ("manifest.csv", ("train-cnn", "extract-features")),
    "cnn model": ("cnn.bin", ("extract-features", "predict on a cnn")),
    "ppm": ("image.ppm", ("train-cnn", "extract-features")),
}

# Each command's arguments, which read the inputs by their file names and
# write OUT; FILES are the names that stand for paths. A name's first word
# is its command.
OUT = "out"
FILES = {name for name, _ in READERS.values()} | {OUT}
COMMANDS = {
    "train-cnn": ("--labels", "labels.csv", "--manifest", "manifest.csv", "--model-out", OUT),
    "extract-features": (
        "--labels", "labels.csv", "--manifest", "manifest.csv", "--model", "cnn.bin", "--out", OUT,
    ),
    "train-lstm": ("--labels", "labels.csv", "--features", "features.jsonl", "--model-out", OUT),
    "predict": (
        "--labels", "labels.csv", "--features", "features.jsonl", "--model", "model.bin",
        "--out", OUT,
    ),
    "predict on a cnn": (
        "--labels", "labels.csv", "--features", "features.jsonl", "--model", "cnn.bin",
        "--out", OUT,
    ),
    "evaluate": (
        "--predictions", "predictions.csv", "--truth", "labels.csv", "--baseline",
        "predictions.csv", "--out", OUT,
    ),
    "export-map": ("--predictions", "predictions.csv", "--out", OUT),
    "sample": ("--network", "network.geojson", "--out", OUT),
    "url-gen": ("--samples", "samples.csv", "--key", "K", "--out", OUT),
}


def strict_json(path: Path) -> object:
    """A JSON document that holds no NaN or Infinity token."""
    def refuse(token):
        raise ValueError(f"{path}: {token} is not JSON")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


def check_output(command: str, work: Path) -> None:
    """Read a command's output back with the reader of its kind."""
    out = str(work / OUT)
    if command == "train-cnn":
        cnn.cnn_load(out)
    elif command == "extract-features":
        model = cnn.cnn_load(str(work / "cnn.bin"))
        records = data.load_labels(str(work / "labels.csv"))
        data.attach_features(records, out, model.config.feature_dim)
    elif command == "train-lstm":
        lstm.seq_load(out)
    elif command.startswith("predict"):
        data.read_predictions(out)
    elif command in ("evaluate", "export-map"):
        strict_json(work / OUT)
    elif command == "sample":
        data.read_samples(out)
    else:  # url-gen
        lines = (work / OUT).read_text(encoding="utf-8").splitlines()
        assert all(line.startswith("https://maps.googleapis.com/") for line in lines)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    """One file of every input kind, each made by the command that writes it."""
    base = tmp_path_factory.mktemp("fuzz")

    def run(command: str, *argv: str, out: str) -> None:
        """Run a command of COMMANDS, its output written to base/out."""
        argv = [str(base / (out if arg == OUT else arg)) if arg in FILES else arg for arg in argv]
        assert main(["--config", str(base / "pipeline.cfg"), command, *argv]) == 0

    (base / "pipeline.cfg").write_text(CONFIG)
    run("synth", "--out", "labels.csv", "--features-out", OUT, out="features.jsonl")
    run("train-lstm", *COMMANDS["train-lstm"], out="model.bin")
    run("predict", *COMMANDS["predict"], out="predictions.csv")
    network = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "geometry": {"type": "LineString", "coordinates": [[-87.0, 33.0], [-87.1, 33.1]]},
                "properties": {"id": "seg-1"},
            }
        ],
    }
    (base / "network.geojson").write_text(json.dumps(network))
    run("sample", *COMMANDS["sample"], out="samples.csv")
    rng = np.random.default_rng(0)
    write_ppm(str(base / "image.ppm"), rng.random((IMAGE_SIZE, IMAGE_SIZE, 3)))
    image_ids = [r.image_id for r in data.load_labels(str(base / "labels.csv"))]
    (base / "manifest.csv").write_text(
        "image_id,path\n" + "".join(f"{image_id},image.ppm\n" for image_id in image_ids)
    )
    run("train-cnn", *COMMANDS["train-cnn"], out="cnn.bin")
    return base


# A mutation is a list of operations on the file's bytes, each at a position
# given as a fraction of the file's length (an int counts from its end). A
# token is inserted, or written over the bytes there, a number of times.
TOKENS = (b"nan", b"1e400", b"null", b"\xff", b"-1", b"0", b",", b"\n")
_at = st.floats(0.0, 1.0)
_op = st.one_of(
    st.tuples(st.just("flip"), _at, st.integers(0, 7)),
    st.tuples(st.just("truncate"), _at),
    st.tuples(st.just("duplicate"), _at, st.integers(1, 64)),
    st.tuples(st.just("delete"), _at, st.integers(1, 64)),
    st.tuples(st.sampled_from(("insert", "put")), _at, st.sampled_from(TOKENS), st.integers(1, 3)),
)


def mutate(blob: bytes, mutation: list[tuple]) -> bytes:
    for op, where, *arg in mutation:
        at = len(blob) + where if isinstance(where, int) else int(where * len(blob))
        at = min(max(at, 0), len(blob))
        if op == "flip" and at < len(blob):
            blob = blob[:at] + bytes([blob[at] ^ (1 << arg[0])]) + blob[at + 1 :]
        elif op == "truncate":
            blob = blob[:at]
        elif op == "duplicate":
            blob = blob[: at + arg[0]] + blob[at:]
        elif op == "delete":
            blob = blob[:at] + blob[at + arg[0] :]
        elif op == "insert":
            blob = blob[:at] + arg[0] * arg[1] + blob[at:]
        elif op == "put":
            blob = blob[:at] + arg[0] * arg[1] + blob[at + len(arg[0] * arg[1]) :]
    return blob


# Finite but huge CNN weights: every tensor from conv1.k on (conv1.k, conv1.b,
# feat.w, feat.b, cls.w, cls.b, the end of the file) set to 1e307. The
# features overflow to inf, which extract-features must refuse to write.
_HUGE_VALUES = 16 * 8 * 3 * 3 + 16 + 3 * 16 + 3 + 3 * 3 + 3
HUGE_WEIGHTS = [("put", -8 * _HUGE_VALUES, np.array(1e307, "<f8").tobytes(), _HUGE_VALUES)]


@settings(max_examples=200)
@given(kind=st.sampled_from(sorted(READERS)), mutation=st.lists(_op, min_size=1, max_size=3))
@example(kind="cnn model", mutation=HUGE_WEIGHTS)
def test_mutated_input_exits_with_a_documented_code(inputs, kind, mutation):
    name, commands = READERS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for path in inputs.iterdir():
            shutil.copyfile(path, work / path.name)
        (work / name).write_bytes(mutate((inputs / name).read_bytes(), mutation))
        for command in commands:
            argv = [str(work / arg) if arg in FILES else arg for arg in COMMANDS[command]]
            # a mutated input may overflow or leave a class degenerate; the
            # command's exit code and output are what is checked here
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                code = main(["--config", str(work / "pipeline.cfg"), command.split()[0], *argv])
            assert code in (0, 2, 3, 4, 5), (command, code)
            if code == 0:
                check_output(command, work)


SIZE_KEYS = ("feature_dim", "hidden", "mid_dim", "window", "batch_size")


@settings(max_examples=5)
@given(
    sizes=st.fixed_dictionaries({key: st.integers(1, 10**12) for key in SIZE_KEYS}),
    epochs=st.integers(0, 1),
)
def test_config_sizes_never_exit_1(inputs, sizes, epochs):
    # Each command runs in a fresh interpreter under a 2 GiB address-space
    # limit, so a size too large for memory exits 5 without taking the
    # host's; feature_dim also sizes train-cnn's shared feat.w. train-lstm
    # keeps the feature file's width, as any other exits 4 at its first line.
    base = dict(line.split(" = ") for line in CONFIG.strip().splitlines())
    base.update(lstm_epochs=epochs, cnn_epochs=epochs)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for path in inputs.iterdir():
            shutil.copyfile(path, work / path.name)
        for command, config in (
            ("train-lstm", {**base, **sizes, "feature_dim": base["feature_dim"]}),
            ("train-cnn", {**base, **sizes}),
        ):
            (work / "pipeline.cfg").write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
            argv = [str(work / arg) if arg in FILES else arg for arg in COMMANDS[command]]
            run = run_cli_process(
                "--config", str(work / "pipeline.cfg"), command, *argv, address_space=2 << 30
            )
            assert run.code != 1, (command, config, run.stderr)


def runnable(input_shape: tuple[int, int, int], stages: list[int], kernel_size: int) -> bool:
    """What the kernels run: an odd kernel, at least one stage of at least
    one channel, RGB input, and extents that every 2x2 pool halves."""
    c, h, w = input_shape
    cell = 2 ** len(stages)
    return (
        kernel_size % 2 == 1 and kernel_size >= 1 and stages != [] and min(stages) >= 1
        and c == 3 and h % cell == 0 and w % cell == 0
    )


@settings(max_examples=60)
@given(
    kernel_size=st.integers(-1, 6),
    stages=st.lists(st.integers(0, 3), max_size=3),
    input_shape=st.tuples(st.integers(1, 4), st.integers(1, 12), st.integers(1, 12)),
)
@example(kernel_size=3, stages=[2, 3], input_shape=(3, 6, 6))
@example(kernel_size=3, stages=[0, 3], input_shape=(3, 8, 8))
@example(kernel_size=3, stages=[2, 3], input_shape=(3, 8, 4))
def test_cnn_architecture_is_checked_by_its_loader(inputs, kernel_size, stages, input_shape):
    # The images have the declared extent, so that only the architecture
    # can refuse a draw; feature_dim is the config's and the feature file's.
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for path in inputs.iterdir():
            shutil.copyfile(path, work / path.name)
        write_ppm(str(work / "image.ppm"), np.zeros((*input_shape[1:], 3), np.uint8))
        model = work / "cnn.bin"
        write_cnn_container(model, input_shape, stages, kernel_size, feature_dim=3)
        for command in ("extract-features", "predict on a cnn"):
            argv = [str(work / arg) if arg in FILES else arg for arg in COMMANDS[command]]
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main(["--config", str(work / "pipeline.cfg"), command.split()[0], *argv])
            if runnable(input_shape, stages, kernel_size):
                assert code == 0, (command, stderr.getvalue())
                check_output(command, work)
            else:
                assert code == 5, (command, code, stderr.getvalue())
                assert f"error: {model}: incomplete or invalid cnn meta" in stderr.getvalue()


# Road networks built from their parts: ids from a small alphabet in which
# the number 1 and the text "1" are one id, start points anywhere (within
# 0.01 degrees of the antimeridian and at |lat| up to 89.9 included), and
# segments of 0-200 m. Each segment's direction is within 7.5 degrees of its
# edge's first, so a 20 m chord along the edge is at least cos(7.5 deg) =
# 0.991 of its arc, inside criterion 6's 1%.
EDGE_IDS = ("a", "b", "1", 1, 2, 1.5)
_start = st.tuples(
    st.floats(-89.9, 89.9),
    st.one_of(st.floats(-180.0, 180.0), st.floats(179.99, 180.0), st.floats(-180.0, -179.99)),
)
_edge = st.tuples(
    st.sampled_from(EDGE_IDS),
    _start,
    st.floats(0.0, 2 * math.pi),
    st.lists(st.tuples(st.floats(0.0, 200.0), st.floats(-0.13, 0.13)), min_size=1, max_size=4),
)


def network_doc(edges: list[tuple]) -> dict:
    """The GeoJSON collection of the drawn edges, each segment stepped on the
    local tangent plane from its start, its longitude wrapped into [-180, 180]."""
    features = []
    for edge_id, (lat, lon), heading, segments in edges:
        coordinates = [[lon, lat]]
        for length, turn in segments:
            angle = heading + turn
            lat += math.degrees(length * math.cos(angle) / EARTH_RADIUS_M)
            lon += math.degrees(
                length * math.sin(angle) / (EARTH_RADIUS_M * math.cos(math.radians(lat)))
            )
            lon = math.remainder(lon, 360.0)
            coordinates.append([lon, lat])
        features.append({
            "type": "Feature",
            "geometry": {"type": "LineString", "coordinates": coordinates},
            "properties": {"id": edge_id},
        })
    return {"type": "FeatureCollection", "features": features}


ANTIMERIDIAN = [("a", (33.5, 179.9995), math.pi / 2, [(92.7, 0.0)])]
ONE_AND_TEXT_ONE = [("1", (33.0, -87.0), 0.0, [(200.0, 0.0)]), (1, (33.0, -86.0), 0.0, [(200.0, 0.0)])]


@settings(max_examples=100)
@given(edges=st.lists(_edge, min_size=1, max_size=3))
@example(edges=ANTIMERIDIAN)
@example(edges=ONE_AND_TEXT_ONE)
def test_drawn_road_networks_sample_and_make_urls(edges):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        network, samples, urls = work / "net.geojson", work / "samples.csv", work / "urls.txt"
        network.write_text(json.dumps(network_doc(edges)))
        code = main(["sample", "--network", str(network), "--out", str(samples)])
        assert code in (0, 4, 5)
        ids = [str(edge_id) for edge_id, *_ in edges]
        assert (code == 4) == (len(set(ids)) < len(ids))
        if code:
            return
        assert main(["url-gen", "--samples", str(samples), "--key", "K", "--out", str(urls)]) == 0
        # the file holds the walk's points to COORD_DECIMALS decimals; the
        # spacing law is read on the walk's own points
        interval = PipelineConfig().interval_m
        points = geo.sample_points(geo.load_road_network(str(network)), interval)
        rows = data.read_samples(str(samples))
        assert [(r.edge_id, r.seq_index) for r in rows] == [(p.edge_id, p.seq_index) for p in points]
        for row, point in zip(rows, points):
            assert row.location == tuple(round(x, geo.COORD_DECIMALS) for x in point.location)
        for a, b in zip(points, points[1:]):
            if a.edge_id == b.edge_id:
                assert abs(geo.haversine_m(a.location, b.location) - interval) <= 0.01 * interval


# Label tables built from their parts: one to three edges of a small
# alphabet, each one to three runs of consecutive seq_index values with a
# gap after each, runs of 1-6 points against CONFIG's window of 4, three
# labels a point, rows in any order. Keys are unique by construction.
WINDOW = 4


@st.composite
def label_tables(draw) -> tuple[list[data.ImageRecord], int]:
    """The drawn records, in file order, and their longest run."""
    records, longest = [], 0
    edges = draw(st.lists(st.sampled_from(("a", "b", "1", "edge 2")), min_size=1, max_size=3, unique=True))
    for e, edge_id in enumerate(edges):
        seq = draw(st.integers(0, 2))
        for length in draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)):
            longest = max(longest, length)
            for seq in range(seq, seq + length):
                bits = draw(st.integers(0, 7))
                records.append(data.ImageRecord(
                    f"{edge_id}-{seq}", edge_id, seq, LatLon(33.0 + 1e-4 * seq, -87.0 + 0.01 * e),
                    tuple(bool(bits >> k & 1) for k in range(3)),
                ))
            seq += 1 + draw(st.integers(1, 3))
    return draw(st.permutations(records)), longest


@settings(max_examples=50)
@given(table=label_tables())
def test_drawn_label_tables_run_the_sequence_chain(inputs, table):
    # train-lstm finds a window only in a run of 4 or more points, and exits
    # 5 (empty training set) otherwise; predict then reads the fuzz's own
    # model, so short runs reach its truncated-window fallback. Each exit-0
    # output passes its reader and the next command; no exit is other than
    # the one the table implies.
    records, longest = table
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        p = {name: str(work / name) for name in (
            "labels.csv", "features.jsonl", "model.bin", "predictions.csv", "metrics.json", "map.geojson"
        )}
        data.write_labels(p["labels.csv"], records)
        features = np.random.default_rng(len(records)).normal(size=(len(records), 3))
        data.write_features(p["features.jsonl"], records, features)

        def run(*argv: str) -> int:
            with warnings.catch_warnings():  # a drawn table may leave a class degenerate
                warnings.filterwarnings("ignore", message="class .*: zero denominator")
                return main(["--config", str(inputs / "pipeline.cfg"), *argv])

        corridor = ("--labels", p["labels.csv"], "--features", p["features.jsonl"])
        trained = run("train-lstm", *corridor, "--model-out", p["model.bin"])
        assert trained == (0 if longest >= WINDOW else 5)
        model = p["model.bin"] if trained == 0 else str(inputs / "model.bin")
        lstm.seq_load(model)
        assert run("predict", *corridor, "--model", model, "--out", p["predictions.csv"]) == 0
        rows = data.read_predictions(p["predictions.csv"])
        keys = sorted((r.edge_id, r.seq_index) for r in records)
        assert [(r.edge_id, r.seq_index) for r in rows] == keys
        # the count-weighted F needs a positive of some class (else exit 5)
        scored = run(
            "evaluate", "--predictions", p["predictions.csv"], "--truth", p["labels.csv"],
            "--baseline", p["predictions.csv"], "--out", p["metrics.json"],
        )
        assert scored == (0 if any(any(r.labels) for r in records) else 5)
        if scored == 0:
            strict_json(Path(p["metrics.json"]))
        assert run("export-map", "--predictions", p["predictions.csv"], "--out", p["map.geojson"]) == 0
        strict_json(Path(p["map.geojson"]))
