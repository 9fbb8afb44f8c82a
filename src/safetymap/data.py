"""Dataset handling: the CSV tables (labels, samples, predictions, image
manifests) behind one checked reader and one writer, feature file ingestion
(in several processes, see `fork`), sliding-window sequence construction,
synthetic corridor generation, and PPM pixel image reading. The loaders are
the validation boundary: malformed, out-of-range or non-finite input raises
SchemaError naming its file and line.

A record is a key, a location and three labels. Each payload travels
aligned with the records: row i of the (n, d) features of `attach_features`
or `synth_corridor`, and item i of the `PixelFiles` of `load_pixels`, which
checks every PPM up front and reads one when it is indexed, belongs to
records[i]. A window is one integer, its start index into the records and
so into those arrays.

The CSV tables need no numpy; each function that builds an array imports
numpy when it runs, so a command that only reads and writes tables never
loads it."""

from __future__ import annotations

import csv
import json
import logging
import math
import mmap
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence, TypeVar

from . import CLASS_NAMES, SchemaError
from .geo import COORD_DECIMALS, EARTH_RADIUS_M, LatLon, SamplePoint, _check_point

if TYPE_CHECKING:
    import numpy as np

    from .config import PipelineConfig


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
_KEY = "(edge_id, seq_index)"  # unique in the labels and in the samples

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
    """A record's RECORD_COLUMNS fields, coordinates to COORD_DECIMALS decimals."""
    lat, lon = (f"{x:.{COORD_DECIMALS}f}" for x in r.location)
    return r.image_id, r.edge_id, r.seq_index, lat, lon


def _refuse_repeats(path: str, rows: dict[int, Row], keys: Callable[[Row], dict]) -> None:
    """A SchemaError at the first row holding a {name: key} of keys(row)
    that an earlier row holds, naming both lines."""
    first_line: dict[tuple[str, object], int] = {}
    for line, r in rows.items():
        for name, key in keys(r).items():
            first = first_line.setdefault((name, key), line)
            if first != line:
                raise SchemaError(
                    f"{path}: line {line}: duplicate {name} {key!r}, first seen on line {first}"
                )


def load_labels(path: str) -> list[ImageRecord]:
    """Read the label CSV; returns records sorted by (edge_id, seq_index).

    Schema: image_id,edge_id,seq_index,lat,lon,rs,mcb,cb with 0/1 labels.
    Raises SchemaError naming the offending line on any malformed row,
    duplicate image_id or (edge_id, seq_index) key, out-of-range label, or
    latitude or longitude that is non-finite or outside [-90, 90] / [-180, 180].
    """
    rows = read_table(path, LABEL_COLUMNS, _label_row)
    _refuse_repeats(path, rows, lambda r: {"image_id": r.image_id, _KEY: (r.edge_id, r.seq_index)})
    return sorted(rows.values(), key=lambda r: (r.edge_id, r.seq_index))


def write_labels(path: str, records: Sequence[ImageRecord]) -> None:
    """Write records back out in the label CSV schema."""
    rows = ((*_record_fields(r), *map(int, r.labels)) for r in records)
    write_table(path, LABEL_COLUMNS, rows)


def _below(name: str, value: str, bound: float) -> float:
    number = float(value)
    if not 0.0 <= number < bound:
        raise ValueError(f"{name} {number} outside [0, {bound:g})")
    return number


def _sample_row(f: list[str]) -> SamplePoint:
    seq, chainage = _seq_index(f[1]), _below("chainage_m", f[2], math.inf)
    return SamplePoint(f[0], seq, chainage, _point(f[3], f[4]), _below("heading", f[5], 360.0))


def read_samples(path: str) -> list[SamplePoint]:
    """Read a samples CSV; a negative or non-integer seq_index, a chainage
    that is not a finite number >= 0, a heading that is not a number in
    [0, 360) (NaN included), an invalid lat/lon or a repeated (edge_id,
    seq_index) key is a SchemaError naming the line."""
    rows = read_table(path, SAMPLE_COLUMNS, _sample_row)
    _refuse_repeats(path, rows, lambda r: {_KEY: (r.edge_id, r.seq_index)})
    return list(rows.values())


def write_samples(path: str, points: Sequence[SamplePoint]) -> None:
    """Write sample points in the samples CSV schema; a heading that rounds
    to 360.00 is written as 0.00."""
    rows = (
        (
            p.edge_id,
            p.seq_index,
            f"{p.chainage_m:.3f}",
            *(f"{x:.{COORD_DECIMALS}f}" for x in p.location),
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
    probabilities to 6 decimals and its thresholded labels. A NaN probability
    (from overflowing weights) is a ValueError naming the first such image."""
    import numpy as np

    bad = np.flatnonzero(~np.isfinite(probs).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: probabilities of image {records[bad[0]].image_id} are not finite")
    rows = (
        (*_record_fields(r), *(f"{x:.6f}" for x in p), *map(int, lab))
        for r, p, lab in zip(records, probs, labels)
    )
    write_table(path, PREDICTION_COLUMNS, rows)


def attach_features(
    records: Sequence[ImageRecord], path: str, expected_dim: int, *, workers: int = 1
) -> np.ndarray:
    """Read a JSON-lines file keyed by image_id into an (n, d) float64
    array whose row i is the vector of records[i].

    Each non-blank line is an object with a string image_id and a flat list
    of finite numbers. Every record must receive a vector, every file entry
    must match a record and name it once, and every vector must have
    expected_dim entries. A line that breaks this is a SchemaError naming the
    path and the line; bytes that are not UTF-8 are a SchemaError naming the
    path. Lines end as in text mode, at \\n, \\r\\n or a lone \\r.

    With `workers` > 1 the file is cut at line starts into at most that many
    byte ranges, parsed at once, the first here and each other one in a
    forked child (see `fork.split`), into one array in shared memory. Their
    (image_id, line) pairs and first errors merge in file order, so the array
    and the error are those of one process. Fork only while this process
    runs no other thread (see `fork`).
    """
    import numpy as np

    from . import fork

    rows = {r.image_id: i for i, r in enumerate(records)}
    size = os.path.getsize(path)  # 0 for a pipe, which is one range, read once
    cuts = [0]
    if workers > 1 and os.path.isfile(path):
        with open(path, "rb") as fh:
            for k in range(1, workers):
                fh.seek(max(cuts[-1], size * k // workers - 1))
                fh.readline()  # to the next line start
                if cuts[-1] < fh.tell() < size:
                    cuts.append(fh.tell())
    ranges = list(zip(cuts, cuts[1:] + [size]))
    logging.getLogger(__name__).info("%s: bytes %s", path, fork.plan(["%d-%d" % r for r in ranges]))

    def parse(byte_range: tuple[int, int], first: bool = False) -> tuple[list, int, Exception | None]:
        """A range's (image_id, line) pairs, from line 1 in the range, its
        line count and its error, on its last line; with first, up to its
        first vector, checked and not stored."""
        start, end = byte_range
        pairs, line_no = [], 0
        with open(path, "rb") as fh:
            if start:
                fh.seek(start)
            for chunk in fh:  # a binary line ends at \n only
                for raw in chunk.splitlines():  # also at a lone \r, as text mode
                    line_no += 1
                    try:
                        entry = _feature_entry(raw, rows)
                        if entry:  # the merge finds a repeat before a bad vector
                            pairs.append((entry[0], line_no))
                            vector = _feature_vector(entry[1], expected_dim)
                            if first:
                                return pairs, line_no, None
                            features[rows[entry[0]]] = vector
                    except (ValueError, TypeError, OverflowError, RecursionError) as exc:
                        # bad UTF-8 or JSON, a non-number, an int too big for a float, deep nesting
                        return pairs, line_no, exc
                start += len(chunk)
                if start == end:
                    break
        return pairs, line_no, None

    # A regular file's first vector is checked before the config sizes the
    # array; if it fails, the merge below reports it as the whole parse would.
    results = [parse((0, size), first=True)] if os.path.isfile(path) else []
    if not (results and results[0][2]):
        # anonymous mmap memory stays shared with forked children
        shared = mmap.mmap(-1, max(1, len(records) * expected_dim * 8))
        features = np.ndarray((len(records), expected_dim), buffer=shared)
        results = fork.split(parse, ranges)
    first_line, offset = {}, 0  # offset: the lines of the ranges before this one
    for pairs, count, error in results:
        for image_id, line_no in pairs:
            if image_id in first_line:
                raise SchemaError(
                    f"{path}: line {offset + line_no}: duplicate image_id {image_id!r}, "
                    f"first seen on line {first_line[image_id]}"
                )
            first_line[image_id] = offset + line_no
        if error:
            at = "not UTF-8" if isinstance(error, UnicodeDecodeError) else f"line {offset + count}"
            raise SchemaError(f"{path}: {at}: {error}") from error
        offset += count
    missing = sorted(rows.keys() - first_line.keys())
    if missing:
        raise SchemaError(f"{path}: no features for {len(missing)} record(s): {missing}")
    return features


def _feature_entry(raw: bytes, rows: dict[str, int]) -> tuple[str, object] | None:
    """A feature line's image_id, one of rows, and its values; None if blank."""
    line = raw.decode("utf-8").strip()
    if not line:
        return None
    obj = json.loads(line)
    if not isinstance(obj, dict) or not {"image_id", "features"} <= obj.keys():
        raise ValueError("expected an object with image_id and features")
    image_id = obj["image_id"]
    if not isinstance(image_id, str):
        raise ValueError(f"image_id must be a string, got {image_id!r}")
    if image_id not in rows:
        raise ValueError(f"unknown image_id {image_id!r}")
    return image_id, obj["features"]


def _feature_vector(values: object, expected_dim: int) -> np.ndarray:
    import numpy as np

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
    return vec


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


def build_sequences(records: Sequence[ImageRecord], window: int, stride: int) -> np.ndarray:
    """Start indices into records of the windows slid over every gapless run,
    at offsets 0, stride, 2*stride, ... within the run; runs shorter than the
    window yield nothing. Only the records' keys are read.

    The records are sorted by (edge_id, seq_index), as load_labels returns
    them, and window and stride are at least 1, as config validation holds
    them."""
    import numpy as np

    starts = [s for start, end in _runs(records) for s in range(start, end - window + 1, stride)]
    return np.array(starts, dtype=np.intp)


# The synthetic corridor's per-class label runs follow alternating geometric
# on/off lengths (in points) matching real spatial scales: long rumble-strip
# runs, short metal-crash-barrier runs, medium concrete-barrier runs.
SYNTH_MEAN_RUN_ON = (160.0, 12.0, 80.0)  # rs, mcb, cb
SYNTH_MEAN_RUN_OFF = (40.0, 30.0, 120.0)
# distance between class-conditional feature means; the short-run class
# (mcb) has a smaller margin, making it genuinely harder per frame
SYNTH_SEPARATION = (2.0, 1.2, 2.0)
SYNTH_ORIGIN = LatLon(33.5, -86.5)


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


def synth_corridor(config: PipelineConfig, seed: int) -> tuple[list[ImageRecord], np.ndarray]:
    """Generate a labeled synthetic corridor of config.n_points records,
    config.interval_m apart, and their (n, feature_dim) feature vectors, row
    i for records[i]. The config's values are valid, as
    PipelineConfig.validate checks them.

    Feature coordinates 0..2 are informative for (rs, mcb, cb): their mean is
    +separation/2 when the label is on and -separation/2 when off, plus
    Gaussian noise of sd noise_sigma. Remaining coordinates are pure noise.
    A corrupt_rate fraction of records (chosen non-adjacent so frame-level
    errors stay isolated) gets label-uninformative features: the informative coordinates
    are redrawn under coin-flip labels, emulating occlusion. Labels are never
    corrupted. Deterministic given the seed.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    n, dim = config.n_points, config.feature_dim

    labels = np.stack(
        [
            _run_length_labels(rng, n, SYNTH_MEAN_RUN_ON[k], SYNTH_MEAN_RUN_OFF[k])
            for k in range(3)
        ],
        axis=1,
    )

    features = rng.normal(0.0, 1.0, size=(n, dim))
    half = np.array(SYNTH_SEPARATION) / 2.0
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

    lat0, lon0 = SYNTH_ORIGIN
    meters_per_deg_lon = EARTH_RADIUS_M * math.cos(math.radians(lat0)) * math.pi / 180.0
    records = []
    for i in range(n):
        lon = lon0 + i * config.interval_m / meters_per_deg_lon
        records.append(
            ImageRecord(
                image_id=f"syn-{i:05d}",
                edge_id="corridor",
                seq_index=i,
                location=LatLon(lat0, lon),
                labels=(bool(labels[i, 0]), bool(labels[i, 1]), bool(labels[i, 2])),
            )
        )
    return records, features


# --- pixel images (portable binary PPM, P6, maxval 255) ---


def _ppm_header(path: str, blob) -> tuple[int, int, int]:
    """The height, width and pixel block offset of the PPM whose bytes blob
    holds; a malformed header or a short pixel block is a SchemaError naming
    the file."""
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
    return h, w, pos


def read_ppm(path: str) -> np.ndarray:
    """Read a binary PPM into a read-only H x W x 3 uint8 array; a malformed
    header or a short pixel block is a SchemaError naming the file."""
    import numpy as np

    with open(path, "rb") as fh:
        blob = fh.read()
    h, w, pos = _ppm_header(path, blob)
    return np.frombuffer(blob, dtype=np.uint8, count=w * h * 3, offset=pos).reshape(h, w, 3)


def _check_extent(path: str, image_id: str, h: int, w: int, extent: tuple[int, int]) -> None:
    if (h, w) != extent:
        raise ValueError(
            f"{path}: image {image_id} is {w} x {h} pixels, expected {extent[1]} x {extent[0]}"
        )


@dataclass(frozen=True)
class PixelFiles:
    """The checked images of `load_pixels`, each read from its PPM when it is
    indexed: self[i] is the (H, W, 3) uint8 image of the i-th record, whose
    extent is checked again. len and shape are those of the (n, H, W, 3)
    array of them, which satisfies the same contract."""

    paths: list[str]
    image_ids: list[str]
    extent: tuple[int, int]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return (len(self.paths), *self.extent, 3)

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, i: int) -> np.ndarray:
        pixels = read_ppm(self.paths[i])
        _check_extent(self.paths[i], self.image_ids[i], *pixels.shape[:2], self.extent)
        return pixels


def load_pixels(
    records: Sequence[ImageRecord],
    manifest_path: str,
    extent: tuple[int, int] | None = None,
    multiple: int = 1,
) -> PixelFiles:
    """The records' images, per a manifest CSV mapping image_id -> PPM path,
    as a PixelFiles whose item i is records[i]'s image.

    Relative paths are resolved against the manifest's directory. Each file
    is checked by read_ppm, and every image must be `extent` (height,
    width) pixels, or the first image's size when extent is None, and both
    extents must be multiples of `multiple`; an image that is not is a
    ValueError naming it and its file.
    """
    base = os.path.dirname(os.path.abspath(manifest_path))
    paths = dict(read_table(manifest_path, MANIFEST_COLUMNS, tuple).values())
    missing = sorted(r.image_id for r in records if r.image_id not in paths)
    if missing:
        raise SchemaError(
            f"{manifest_path}: manifest lacks paths for {len(missing)} record(s): {missing}"
        )
    files = [os.path.join(base, paths[r.image_id]) for r in records]
    for p, r in zip(files, records):
        h, w = read_ppm(p).shape[:2]
        extent = extent or (h, w)
        _check_extent(p, r.image_id, h, w, extent)
        if h % multiple or w % multiple:
            raise ValueError(
                f"{p}: image {r.image_id} is {w} x {h} pixels, not a multiple of {multiple}"
            )
    return PixelFiles(files, [r.image_id for r in records], extent or (0, 0))


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
