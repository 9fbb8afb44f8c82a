"""Dataset handling: the CSV tables (labels, samples, predictions, image
manifests) behind one checked reader and one writer, feature file ingestion,
sliding-window sequence construction, synthetic corridor generation, and
PPM pixel image reading. The loaders are the validation boundary:
malformed, out-of-range or non-finite input raises SchemaError naming its
file and line.

A record is a key, a location and three labels. Each payload travels as
the one array its loader returns, aligned with the records: row i of the
(n, d) features of `attach_features` or `synth_corridor` and of the (n, H,
W, 3) pixels of `load_pixels` belongs to records[i]. A window is one
integer, its start index into the records and so into those arrays.

The CSV tables need no numpy; each function that builds an array imports
numpy when it runs, so a command that only reads and writes tables never
loads it."""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence, TypeVar

from . import CLASS_NAMES, SchemaError
from .geo import EARTH_RADIUS_M, LatLon, SamplePoint, _check_point

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class ImageRecord:
    """One geo-referenced observation with its three class labels."""

    image_id: str
    edge_id: str
    seq_index: int
    location: LatLon
    labels: tuple[bool, bool, bool]  # (rs, mcb, cb)


# --- CSV tables: labels, samples, predictions and image manifests ---

RECORD_COLUMNS = ("image_id", "edge_id", "seq_index", "lat", "lon")
LABEL_COLUMNS = RECORD_COLUMNS + CLASS_NAMES
PREDICTION_COLUMNS = RECORD_COLUMNS + tuple(f"p_{name}" for name in CLASS_NAMES) + CLASS_NAMES
SAMPLE_COLUMNS = ("edge_id", "seq_index", "chainage_m", "lat", "lon", "heading_deg")
MANIFEST_COLUMNS = ("image_id", "path")

Row = TypeVar("Row")


def read_table(
    path: str, columns: tuple[str, ...], parse_row: Callable[[list[str]], Row]
) -> dict[int, Row]:
    """Read a UTF-8 CSV table whose header equals columns (cells stripped);
    returns {line number: parse_row(fields)} in file order.

    Blank rows are skipped; every other row must have one field per column.
    A row that breaks this, a ValueError or TypeError from parse_row, bad
    quoting and an over-long field are SchemaErrors naming the path and the
    line; bytes that are not UTF-8 are a SchemaError naming the path.
    """
    rows: dict[int, Row] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != columns:
                raise ValueError(f"expected header {','.join(columns)}, got {header}")
            for fields in reader:
                if not fields:
                    continue
                if len(fields) != len(columns):
                    raise ValueError(f"expected {len(columns)} fields, got {len(fields)}")
                rows[reader.line_num] = parse_row(fields)
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8: {exc}") from exc
        except (ValueError, TypeError, csv.Error) as exc:
            raise SchemaError(f"{path}: line {max(reader.line_num, 1)}: {exc}") from exc
    return rows


def write_table(path: str, columns: Sequence[str], rows: Iterable[Iterable[object]]) -> None:
    """Write a CSV table: the header, then one line per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _seq_index(value: str) -> int:
    index = int(value)
    if index < 0:
        raise ValueError(f"seq_index {index} is negative")
    return index


def _point(lat: str, lon: str) -> LatLon:
    return _check_point(LatLon(float(lat), float(lon)))


_LABEL_VALUES = {"0": False, "1": True}


def _labels(values: list[str]) -> tuple[bool, ...]:
    try:
        return tuple([_LABEL_VALUES[value] for value in values])
    except KeyError as exc:
        value = exc.args[0]
        name = CLASS_NAMES[values.index(value)]
        raise ValueError(f"label {name}={value!r} not in {{0,1}}") from None


def _probabilities(values: list[str]) -> tuple[float, ...]:
    probs = tuple(float(value) for value in values)
    for name, p in zip(CLASS_NAMES, probs):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p_{name} {p} outside [0, 1]")
    return probs


def _label_row(f: list[str]) -> ImageRecord:
    return ImageRecord(f[0], f[1], _seq_index(f[2]), _point(f[3], f[4]), _labels(f[5:8]))


def _record_fields(r: ImageRecord) -> tuple[object, ...]:
    """A record's RECORD_COLUMNS fields, coordinates to 6 decimals."""
    return r.image_id, r.edge_id, r.seq_index, f"{r.location.lat:.6f}", f"{r.location.lon:.6f}"


def load_labels(path: str) -> list[ImageRecord]:
    """Read the label CSV; returns records sorted by (edge_id, seq_index).

    Schema: image_id,edge_id,seq_index,lat,lon,rs,mcb,cb with 0/1 labels.
    Raises SchemaError naming the offending line on any malformed row,
    duplicate image_id or (edge_id, seq_index) key, out-of-range label, or
    latitude or longitude that is non-finite or outside [-90, 90] / [-180, 180].
    """
    rows = read_table(path, LABEL_COLUMNS, _label_row)
    first_line: dict[tuple[str, object], int] = {}
    for line, r in rows.items():
        for name, key in (
            ("image_id", r.image_id), ("(edge_id, seq_index)", (r.edge_id, r.seq_index))
        ):
            first = first_line.setdefault((name, key), line)
            if first != line:
                raise SchemaError(
                    f"{path}: line {line}: duplicate {name} {key!r}, first seen on line {first}"
                )
    return sorted(rows.values(), key=lambda r: (r.edge_id, r.seq_index))


def write_labels(path: str, records: Sequence[ImageRecord]) -> None:
    """Write records back out in the label CSV schema."""
    rows = ((*_record_fields(r), *map(int, r.labels)) for r in records)
    write_table(path, LABEL_COLUMNS, rows)


def _sample_row(f: list[str]) -> SamplePoint:
    return SamplePoint(f[0], _seq_index(f[1]), float(f[2]), _point(f[3], f[4]), float(f[5]))


def read_samples(path: str) -> list[SamplePoint]:
    """Read a samples CSV; a negative or non-integer seq_index, a non-numeric
    chainage or heading, or an invalid lat/lon is a SchemaError naming the
    line. The heading's range is checked where it is used."""
    return list(read_table(path, SAMPLE_COLUMNS, _sample_row).values())


def write_samples(path: str, points: Sequence[SamplePoint]) -> None:
    """Write sample points in the samples CSV schema; a heading that rounds
    to 360.00 is written as 0.00."""
    rows = (
        (
            p.edge_id,
            p.seq_index,
            f"{p.chainage_m:.3f}",
            f"{p.location.lat:.6f}",
            f"{p.location.lon:.6f}",
            f"{round(p.heading_deg, 2) % 360.0:.2f}",
        )
        for p in points
    )
    write_table(path, SAMPLE_COLUMNS, rows)


class PredictionRow(NamedTuple):
    """One row of a predictions CSV, parsed and range-checked."""

    edge_id: str
    seq_index: int
    location: LatLon
    probs: tuple[float, ...]  # (p_rs, p_mcb, p_cb), each in [0, 1]
    labels: tuple[bool, ...]  # (rs, mcb, cb)


def _prediction_row(f: list[str]) -> PredictionRow:
    return PredictionRow(
        f[1], _seq_index(f[2]), _point(f[3], f[4]), _probabilities(f[5:8]), _labels(f[8:11])
    )


def read_predictions(path: str) -> list[PredictionRow]:
    """Read a predictions CSV; a negative or non-integer seq_index, an
    invalid lat/lon, a probability that is non-finite or outside [0, 1] or a
    label other than 0/1 is a SchemaError naming the line."""
    return list(read_table(path, PREDICTION_COLUMNS, _prediction_row).values())


def write_predictions(
    path: str, records: Sequence[ImageRecord], probs: np.ndarray, labels: np.ndarray
) -> None:
    """Write one predictions row per record: its key and location, its class
    probabilities to 6 decimals and its thresholded labels."""
    rows = (
        (*_record_fields(r), *(f"{x:.6f}" for x in p), *map(int, lab))
        for r, p, lab in zip(records, probs, labels)
    )
    write_table(path, PREDICTION_COLUMNS, rows)


def attach_features(records: Sequence[ImageRecord], path: str, expected_dim: int) -> np.ndarray:
    """Read a JSON-lines file keyed by image_id into an (n, d) float64
    array whose row i is the vector of records[i].

    Each non-blank line is an object with a string image_id and a flat list
    of finite numbers. Every record must receive a vector, every file entry
    must match a record and name it once, and every vector must have
    expected_dim entries. A line that breaks this is a SchemaError naming the
    path and the line; bytes that are not UTF-8 are a SchemaError naming the
    path.
    """
    import numpy as np

    rows = {r.image_id: i for i, r in enumerate(records)}
    first_line: dict[str, int] = {}
    features = np.empty((len(records), expected_dim))
    line_no = 0
    with open(path, encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                if not isinstance(obj, dict) or not {"image_id", "features"} <= obj.keys():
                    raise ValueError("expected an object with image_id and features")
                image_id = obj["image_id"]
                if not isinstance(image_id, str):
                    raise ValueError(f"image_id must be a string, got {image_id!r}")
                if image_id not in rows:
                    raise ValueError(f"unknown image_id {image_id!r}")
                if image_id in first_line:
                    raise ValueError(
                        f"duplicate image_id {image_id!r}, first seen on line {first_line[image_id]}"
                    )
                values = obj["features"]
                vec = np.asarray(values, dtype=np.float64)
                if vec.ndim != 1:
                    raise ValueError("features must be a flat list")
                if vec.shape[0] != expected_dim:
                    raise ValueError(f"feature dimension {vec.shape[0]} != expected {expected_dim}")
                if not set(map(type, values)) <= {int, float}:  # asarray reads "1.5" and true
                    bad = next(v for v in values if type(v) not in (int, float))
                    raise ValueError(f"feature values must be numbers, got {bad!r}")
                if not np.isfinite(vec).all():
                    raise ValueError("non-finite feature value")
                first_line[image_id] = line_no
                features[rows[image_id]] = vec
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8: {exc}") from exc
        except (ValueError, TypeError, OverflowError, RecursionError) as exc:
            # bad JSON, a non-numeric value, an integer too large for a float, deep nesting
            raise SchemaError(f"{path}: line {line_no}: {exc}") from exc
    missing = sorted(rows.keys() - first_line.keys())
    if missing:
        raise SchemaError(f"{path}: no features for {len(missing)} record(s): {missing}")
    return features


def _runs(records: Sequence[ImageRecord]) -> list[tuple[int, int]]:
    """Maximal gapless runs as (start, end) index pairs into records."""
    runs = []
    start = 0
    for i in range(1, len(records) + 1):
        if (
            i == len(records)
            or records[i].edge_id != records[i - 1].edge_id
            or records[i].seq_index != records[i - 1].seq_index + 1
        ):
            runs.append((start, i))
            start = i
    return runs if records else []


def build_sequences(
    records: Sequence[ImageRecord], window: int, stride: int = 1
) -> np.ndarray:
    """Start indices into records of the windows slid over every gapless run,
    at offsets 0, stride, 2*stride, ... within the run; runs shorter than the
    window yield nothing. Only the records' keys are read."""
    import numpy as np

    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    ordered = sorted(records, key=lambda r: (r.edge_id, r.seq_index))
    if list(ordered) != list(records):
        raise ValueError("records must be sorted by (edge_id, seq_index)")
    starts = [s for start, end in _runs(records) for s in range(start, end - window + 1, stride)]
    return np.array(starts, dtype=np.intp)


@dataclass(frozen=True)
class SynthConfig:
    """Configuration for the synthetic corridor generator.

    Per-class label runs follow alternating geometric on/off lengths (in
    points) matching real spatial scales: long rumble-strip runs, short
    metal-crash-barrier runs, medium concrete-barrier runs.
    """

    n_points: int = 2000
    feature_dim: int = 16
    mean_run_on: tuple[float, float, float] = (160.0, 12.0, 80.0)  # rs, mcb, cb
    mean_run_off: tuple[float, float, float] = (40.0, 30.0, 120.0)
    # distance between class-conditional feature means; the short-run class
    # (mcb) defaults to a smaller margin, making it genuinely harder per frame
    separation: float | tuple[float, float, float] = (2.0, 1.2, 2.0)
    noise_sigma: float = 0.7
    corrupt_rate: float = 0.05
    interval_m: float = 20.0
    edge_id: str = "corridor"
    origin: LatLon = LatLon(33.5, -86.5)

    def separations(self) -> np.ndarray:
        import numpy as np

        return np.broadcast_to(np.asarray(self.separation, dtype=np.float64), (3,))

    def validate(self) -> None:
        import numpy as np

        if self.n_points < 1:
            raise ValueError("n_points must be >= 1")
        if self.feature_dim < 3:
            raise ValueError("feature_dim must be >= 3")
        if not (0.0 <= self.corrupt_rate < 1.0):
            raise ValueError("corrupt_rate must be in [0, 1)")
        if min(self.mean_run_on) <= 0 or min(self.mean_run_off) <= 0:
            raise ValueError("mean run lengths must be positive")
        if np.min(self.separations()) <= 0 or self.noise_sigma <= 0:
            raise ValueError("separation and noise_sigma must be positive")


def _run_length_labels(rng: np.random.Generator, n: int, mean_on: float, mean_off: float) -> np.ndarray:
    """Alternating geometric on/off runs, returned as an n-vector of 0/1."""
    import numpy as np

    labels = np.zeros(n, dtype=bool)
    stationary_on = mean_on / (mean_on + mean_off)
    state = bool(rng.random() < stationary_on)
    pos = 0
    while pos < n:
        mean = mean_on if state else mean_off
        length = int(rng.geometric(1.0 / mean))
        labels[pos : pos + length] = state
        pos += length
        state = not state
    return labels


def synth_corridor(config: SynthConfig, seed: int) -> tuple[list[ImageRecord], np.ndarray]:
    """Generate a labeled synthetic corridor: its records and their (n,
    feature_dim) feature vectors, row i for records[i].

    Feature coordinates 0..2 are informative for (rs, mcb, cb): their mean is
    +separation/2 when the label is on and -separation/2 when off, plus
    Gaussian noise. Remaining coordinates are pure noise. A corrupt_rate
    fraction of records (chosen non-adjacent so frame-level errors stay
    isolated) gets label-uninformative features: the informative coordinates
    are redrawn under coin-flip labels, emulating occlusion. Labels are never
    corrupted. Deterministic given the seed.
    """
    import numpy as np

    config.validate()
    rng = np.random.default_rng(seed)
    n, dim = config.n_points, config.feature_dim

    labels = np.stack(
        [
            _run_length_labels(rng, n, config.mean_run_on[k], config.mean_run_off[k])
            for k in range(3)
        ],
        axis=1,
    )

    features = rng.normal(0.0, 1.0, size=(n, dim))
    half = config.separations() / 2.0
    informative = np.where(labels, half, -half) + rng.normal(0.0, config.noise_sigma, size=(n, 3))
    features[:, :3] = informative

    n_corrupt = int(round(config.corrupt_rate * n))
    corrupted: list[int] = []
    taken = np.zeros(n, dtype=bool)
    for pos in rng.permutation(n):
        if len(corrupted) == n_corrupt:
            break
        if taken[max(0, pos - 1) : pos + 2].any():
            continue
        taken[pos] = True
        corrupted.append(int(pos))
    for pos in sorted(corrupted):
        coin = rng.random(3) < 0.5
        features[pos, :3] = np.where(coin, half, -half) + rng.normal(
            0.0, config.noise_sigma, size=3
        )
        features[pos, 3:] = rng.normal(0.0, 1.0, size=dim - 3)

    lat0, lon0 = config.origin
    meters_per_deg_lon = EARTH_RADIUS_M * math.cos(math.radians(lat0)) * math.pi / 180.0
    records = []
    for i in range(n):
        lon = lon0 + i * config.interval_m / meters_per_deg_lon
        records.append(
            ImageRecord(
                image_id=f"syn-{i:05d}",
                edge_id=config.edge_id,
                seq_index=i,
                location=LatLon(lat0, lon),
                labels=(bool(labels[i, 0]), bool(labels[i, 1]), bool(labels[i, 2])),
            )
        )
    return records, features


# --- pixel images (portable binary PPM, P6, maxval 255) ---


def read_ppm(path: str) -> np.ndarray:
    """Read a binary PPM into a read-only H x W x 3 uint8 array; a malformed
    header or a short pixel block is a SchemaError naming the file."""
    import numpy as np

    with open(path, "rb") as fh:
        blob = fh.read()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4 and pos < len(blob):
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if blob[pos : pos + 1] == b"#":  # comment line
            end = blob.find(b"\n", pos)
            if end < 0:
                raise SchemaError(f"{path}: unterminated PPM header comment")
            pos = end + 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if pos > start:
            fields.append(blob[start:pos])
    if len(fields) < 4:
        raise SchemaError(f"{path}: PPM header has {len(fields)} of 4 fields")
    if fields[0] != b"P6":
        raise SchemaError(f"{path}: not a binary PPM (P6), magic {fields[0]!r}")
    try:
        w, h, maxval = (int(f) for f in fields[1:])
    except ValueError as exc:
        raise SchemaError(f"{path}: non-numeric PPM header field in {fields[1:]}") from exc
    if w <= 0 or h <= 0:
        raise SchemaError(f"{path}: PPM size {w} x {h} is not positive")
    if maxval != 255:
        raise SchemaError(f"{path}: only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace after maxval
    if len(blob) - pos < w * h * 3:
        got = max(len(blob) - pos, 0)
        raise SchemaError(f"{path}: pixel block truncated, {got} of {w * h * 3} bytes")
    return np.frombuffer(blob, dtype=np.uint8, count=w * h * 3, offset=pos).reshape(h, w, 3)


def load_pixels(
    records: Sequence[ImageRecord],
    manifest_path: str,
    extent: tuple[int, int] | None = None,
    multiple: int = 1,
) -> np.ndarray:
    """Read the records' images, per a manifest CSV mapping image_id -> PPM
    path, into one (n, H, W, 3) uint8 array whose row i is records[i]'s.

    Relative paths are resolved against the manifest's directory. Every
    image must be `extent` (height, width) pixels, or the first image's
    size when extent is None, and both extents must be multiples of
    `multiple`; an image that is not is a ValueError naming it and its file.
    """
    import numpy as np

    base = os.path.dirname(os.path.abspath(manifest_path))
    paths = dict(read_table(manifest_path, MANIFEST_COLUMNS, tuple).values())
    missing = sorted(r.image_id for r in records if r.image_id not in paths)
    if missing:
        raise SchemaError(
            f"{manifest_path}: manifest lacks paths for {len(missing)} record(s): {missing}"
        )
    out = np.empty((len(records), *(extent or (0, 0)), 3), dtype=np.uint8)
    for i, r in enumerate(records):
        p = paths[r.image_id]
        if not os.path.isabs(p):
            p = os.path.join(base, p)
        pixels = read_ppm(p)
        h, w = pixels.shape[:2]
        if extent is None:
            extent = (h, w)
            out = np.empty((len(records), h, w, 3), dtype=np.uint8)
        if (h, w) != extent:
            raise ValueError(
                f"{p}: image {r.image_id} is {w} x {h} pixels, expected {extent[1]} x {extent[0]}"
            )
        if h % multiple or w % multiple:
            raise ValueError(
                f"{p}: image {r.image_id} is {w} x {h} pixels, not a multiple of {multiple}"
            )
        out[i] = pixels
    return out


def write_features(path: str, records: Sequence[ImageRecord], features: np.ndarray) -> None:
    """Write features[i], the vector of records[i], as JSON-lines keyed by
    image_id. A vector holding NaN or inf, which attach_features refuses, is
    a ValueError naming the first such image, raised before the file is opened."""
    import numpy as np

    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: features of image {records[bad[0]].image_id} are not finite")
    # one encoder for every row: json.dumps builds one per call for a non-default flag
    encode = json.JSONEncoder(allow_nan=False).encode
    with open(path, "w", encoding="utf-8") as fh:
        for r, vec in zip(records, features, strict=True):
            fh.write(encode({"image_id": r.image_id, "features": vec.tolist()}) + "\n")
