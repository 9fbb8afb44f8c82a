"""Road-network geometry: geodesic math, equal-interval sampling along
polylines, streetview request URLs, and GeoJSON import/export."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence
from urllib.parse import quote

from . import SchemaError

if TYPE_CHECKING:
    from .data import PredictionRow

EARTH_RADIUS_M = 6_371_008.8  # mean Earth radius

COORD_DECIMALS = 6  # ~0.1 m; all serialized coordinates are rounded to this


class LatLon(NamedTuple):
    lat: float
    lon: float


def _check_point(p: LatLon) -> LatLon:
    if not (-90.0 <= p.lat <= 90.0):
        raise ValueError(f"latitude {p.lat} outside [-90, 90]")
    if not (-180.0 <= p.lon <= 180.0):
        raise ValueError(f"longitude {p.lon} outside [-180, 180]")
    return p


def haversine_m(a: LatLon, b: LatLon) -> float:
    """Great-circle distance in meters between two WGS84 points."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    s = (
        math.sin((lat2 - lat1) / 2) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(s)))


def bearing_deg(a: LatLon, b: LatLon) -> float:
    """Initial compass bearing from a to b, degrees clockwise from north in [0, 360)."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    dlon = lon2 - lon1
    x = math.sin(dlon) * math.cos(lat2)
    y = math.cos(lat1) * math.sin(lat2) - math.sin(lat1) * math.cos(lat2) * math.cos(dlon)
    return math.degrees(math.atan2(x, y)) % 360.0


@dataclass(frozen=True)
class RoadEdge:
    """One road segment: an identifier plus its WGS84 polyline."""

    id: str
    polyline: tuple[LatLon, ...]
    segment_m: tuple[float, ...] = field(init=False, repr=False)  # haversine per segment
    length_m: float = field(init=False)

    def __post_init__(self) -> None:
        if len(self.polyline) < 2:
            raise ValueError(f"edge {self.id!r}: polyline needs >= 2 vertices")
        pts = tuple(_check_point(LatLon(*p)) for p in self.polyline)
        object.__setattr__(self, "polyline", pts)
        segments = tuple(haversine_m(pts[i], pts[i + 1]) for i in range(len(pts) - 1))
        object.__setattr__(self, "segment_m", segments)
        object.__setattr__(self, "length_m", sum(segments))


@dataclass(frozen=True)
class SamplePoint:
    """A point sampled at a fixed chainage along one edge, with the road's heading there."""

    edge_id: str
    seq_index: int
    chainage_m: float
    location: LatLon
    heading_deg: float


def _walk(edge: RoadEdge, chainages: Iterable[float]) -> Iterator[tuple[LatLon, float]]:
    """Yield (location, bearing) at each of the ascending chainages, in one
    pass over the edge's segments.

    A chainage belongs to the first non-zero-length segment whose far end it
    does not pass, so a chainage on a vertex belongs to the segment ending
    there. The location interpolates linearly in lat/lon space within that
    segment, the shorter way round in longitude (accurate to well under 1%
    at 20 m scale); a chainage past the end maps to the last vertex, on the
    last non-zero segment.
    """
    segments = [i for i, seg_len in enumerate(edge.segment_m) if seg_len > 0.0]
    if not segments:
        raise ValueError(f"edge {edge.id!r} has zero length")
    pts, seg_m = edge.polyline, edge.segment_m
    k, start = 0, 0.0  # current segment and the chainage of its start
    i = segments[0]
    bearing = bearing_deg(pts[i], pts[i + 1])
    for chainage in chainages:
        while chainage - start > seg_m[i] and k + 1 < len(segments):
            start += seg_m[i]
            k += 1
            i = segments[k]
            bearing = bearing_deg(pts[i], pts[i + 1])
        remaining = chainage - start
        if remaining > seg_m[i]:
            yield pts[-1], bearing
            continue
        f = remaining / seg_m[i]
        a, b = pts[i], pts[i + 1]
        # the IEEE remainder is exact, and x itself for |x| <= 180
        lon = math.remainder(a.lon + math.remainder(b.lon - a.lon, 360.0) * f, 360.0)
        yield LatLon(a.lat + (b.lat - a.lat) * f, lon), bearing


def heading_at(edge: RoadEdge, chainage_m: float) -> float:
    """Bearing of the polyline segment containing the given chainage."""
    return next(_walk(edge, [chainage_m]))[1]


def sample_points(edges: Iterable[RoadEdge], interval_m: float) -> list[SamplePoint]:
    """Sample each edge at chainages 0, interval, 2*interval, ... <= length.

    Edges are sampled independently in their stored vertex order; output is
    ordered by edge then chainage, seq_index restarting at 0 per edge. The
    far endpoint is emitted only when the edge length is an exact multiple
    of the interval. Each point carries the bearing of its segment. The
    interval is positive, as config validation holds it.
    """
    out: list[SamplePoint] = []
    for edge in edges:
        # epsilon guards against float rounding when length is an exact multiple
        n = int(math.floor(edge.length_m / interval_m + 1e-9)) + 1
        chainages = [k * interval_m for k in range(n)]
        walk = _walk(edge, (min(chain, edge.length_m) for chain in chainages))
        for k, (chain, (location, heading)) in enumerate(zip(chainages, walk)):
            out.append(SamplePoint(edge.id, k, chain, location, heading))
    return out


def streetview_request_url(
    location: LatLon, heading_deg: float, size_px: int, key: str
) -> str:
    """Build a deterministic streetview image request URL (no I/O performed)
    from a valid location, a heading in [0, 360), a positive size and a
    non-empty key, as read_samples and url-gen check them.

    Coordinates are embedded to COORD_DECIMALS decimal places; all values
    are percent-encoded except the lat,lon comma.
    """
    loc = ",".join(f"{x:.{COORD_DECIMALS}f}" for x in location)
    params = [
        ("size", f"{size_px}x{size_px}"),
        ("location", quote(loc, safe=",")),
        ("heading", quote(f"{heading_deg:g}")),
        ("key", quote(key, safe="")),
    ]
    query = "&".join(f"{k}={v}" for k, v in params)
    return f"https://maps.googleapis.com/maps/api/streetview?{query}"


def dumps_stable(doc: object) -> str:
    """Serialize JSON byte-stably: sorted keys, compact separators, newline; no NaN or inf."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def export_prediction_geojson(rows: Sequence[PredictionRow]) -> str:
    """Render the rows of a predictions file, each point's class
    probabilities and labels, as a GeoJSON FeatureCollection; the labels
    are drawn as given, not re-thresholded. The document is byte-stable
    given identical input.
    """
    features = []
    for edge_id, seq_index, location, (p_rs, p_mcb, p_cb), (rs, mcb, cb) in rows:
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "Point",
                    "coordinates": [
                        round(location.lon, COORD_DECIMALS),
                        round(location.lat, COORD_DECIMALS),
                    ],
                },
                "properties": {
                    "edge_id": edge_id,
                    "seq_index": seq_index,
                    "p_rs": p_rs,
                    "p_mcb": p_mcb,
                    "p_cb": p_cb,
                    "rs": rs,
                    "mcb": mcb,
                    "cb": cb,
                },
            }
        )
    return dumps_stable({"type": "FeatureCollection", "features": features})


def _is_position(c: object) -> bool:
    return (
        isinstance(c, list)
        and len(c) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in c)
    )


def load_road_network(path: str) -> tuple[RoadEdge, ...]:
    """Read a GeoJSON FeatureCollection of LineString features with an "id"
    property and [lon, lat] number-pair positions as its edges, in file
    order. A document of another shape, or a repeated id, is a SchemaError
    naming the file and, inside the collection, the feature index."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # malformed JSON or bytes that are not UTF-8
        raise SchemaError(f"{path}: not a JSON document: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        kind = doc.get("type") if isinstance(doc, dict) else type(doc).__name__
        raise SchemaError(f"{path}: expected a FeatureCollection object, got {kind!r}")
    features = doc.get("features", [])
    if not isinstance(features, list):
        raise SchemaError(f"{path}: 'features' is not a list")
    edges, first_index = [], {}
    for i, feat in enumerate(features):
        feat = feat if isinstance(feat, dict) else {}
        geom = feat.get("geometry") or {}
        if not isinstance(geom, dict) or geom.get("type") != "LineString":
            raise SchemaError(f"{path}: feature {i} is not a LineString")
        props = feat.get("properties") or {}
        if not isinstance(props, dict) or "id" not in props:
            raise SchemaError(f"{path}: feature {i} has no 'id' property")
        coords = geom.get("coordinates")
        if not isinstance(coords, list) or not all(_is_position(c) for c in coords):
            raise SchemaError(
                f"{path}: feature {i}: coordinates must be a list of [lon, lat] number pairs"
            )
        edge_id = str(props["id"])  # so 1 and "1" are one id
        if (first := first_index.setdefault(edge_id, i)) != i:
            raise SchemaError(f"{path}: feature {i} repeats the id {edge_id!r} of feature {first}")
        polyline = tuple(LatLon(lat=lat, lon=lon) for lon, lat in coords)
        edges.append(RoadEdge(id=edge_id, polyline=polyline))
    return tuple(edges)
