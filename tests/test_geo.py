"""Tests for road-network geometry and GeoJSON export."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from safetymap.data import PredictionRow
from safetymap.geo import (
    EARTH_RADIUS_M,
    LatLon,
    RoadEdge,
    bearing_deg,
    dumps_stable,
    export_prediction_geojson,
    haversine_m,
    heading_at,
    load_road_network,
    sample_points,
    streetview_request_url,
    _walk,
)


def haversine_oracle(a, b):
    # independent formulation (atan2 instead of asin)
    lat1, lon1, lat2, lon2 = map(math.radians, (a[0], a[1], b[0], b[1]))
    s = math.sin((lat2 - lat1) / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(
        (lon2 - lon1) / 2
    ) ** 2
    return 2 * EARTH_RADIUS_M * math.atan2(math.sqrt(s), math.sqrt(1 - s))


def meridian_edge(edge_id: str, length_m: float, lat0=33.0, lon0=-87.0, vertices=2) -> RoadEdge:
    """Straight north-running edge of the given length."""
    dlat = math.degrees(length_m / EARTH_RADIUS_M)
    pts = [
        LatLon(lat0 + dlat * k / (vertices - 1), lon0) for k in range(vertices)
    ]
    return RoadEdge(id=edge_id, polyline=tuple(pts))


def scan_oracle(edge: RoadEdge, chainage: float) -> tuple[LatLon, float]:
    """Location and heading at one chainage by a fresh scan from the edge
    start, subtracting each segment length in turn: the rule a single pass
    along the edge must reproduce."""
    pts = edge.polyline
    remaining, last = chainage, None
    for i in range(len(pts) - 1):
        seg_len = haversine_m(pts[i], pts[i + 1])
        if seg_len <= 0.0:
            continue
        last = i
        if remaining <= seg_len:
            f = remaining / seg_len
            a, b = pts[i], pts[i + 1]
            return (
                LatLon(a.lat + (b.lat - a.lat) * f, a.lon + (b.lon - a.lon) * f),
                bearing_deg(a, b),
            )
        remaining -= seg_len
    return pts[-1], bearing_deg(pts[last], pts[last + 1])


def bearings_within(edge: RoadEdge, chainage: float, tol: float) -> set[float]:
    """Bearings of the non-zero segments that end or start within tol meters
    of chainage."""
    pts, start, out = edge.polyline, 0.0, set()
    for i in range(len(pts) - 1):
        seg_len = haversine_m(pts[i], pts[i + 1])
        end = start + seg_len
        if seg_len > 0.0 and min(abs(chainage - start), abs(chainage - end)) <= tol:
            out.add(bearing_deg(pts[i], pts[i + 1]))
        start = end
    return out


@st.composite
def polylines(draw):
    """Short random polylines, about a quarter of whose segments repeat a
    vertex and so have zero length."""
    pts = [LatLon(draw(st.floats(-60.0, 60.0)), draw(st.floats(-170.0, 170.0)))]
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.integers(0, 3)) == 0:
            pts.append(pts[-1])
        else:
            step = st.floats(-0.003, 0.003)
            pts.append(LatLon(pts[-1].lat + draw(step), pts[-1].lon + draw(step)))
    return pts


class TestHaversine:
    def test_identity(self):
        p = LatLon(33.0, -87.0)
        assert haversine_m(p, p) == 0.0

    def test_small_offset_matches_oracle(self):
        a, b = LatLon(33.0, -87.0), LatLon(33.0, -87.001)
        d = haversine_m(a, b)
        assert d == pytest.approx(93.25604109278626, rel=1e-9)
        assert d == pytest.approx(haversine_oracle(a, b), rel=1e-12)

    def test_antipodal_meridian(self):
        d = haversine_m(LatLon(0.0, 0.0), LatLon(0.0, 180.0))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-12)

    def test_symmetric_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = LatLon(rng.uniform(-90, 90), rng.uniform(-180, 180))
            b = LatLon(rng.uniform(-90, 90), rng.uniform(-180, 180))
            assert haversine_m(a, b) >= 0.0
            assert haversine_m(a, b) == pytest.approx(haversine_m(b, a), abs=1e-9)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            pts = [
                LatLon(rng.uniform(-80, 80), rng.uniform(-179, 179)) for _ in range(3)
            ]
            ab = haversine_m(pts[0], pts[1])
            bc = haversine_m(pts[1], pts[2])
            ac = haversine_m(pts[0], pts[2])
            assert ac <= ab + bc + 1e-6


class TestRoadTypes:
    def test_edge_length_is_vertex_sum(self):
        e = meridian_edge("e1", 480.0, vertices=5)
        total = sum(
            haversine_m(e.polyline[i], e.polyline[i + 1])
            for i in range(len(e.polyline) - 1)
        )
        assert e.length_m == pytest.approx(total, rel=1e-12)
        assert e.length_m == pytest.approx(480.0, rel=1e-6)

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError, match="2 vertices"):
            RoadEdge(id="bad", polyline=(LatLon(0, 0),))

    def test_rejects_out_of_range_coordinates(self):
        with pytest.raises(ValueError, match="latitude"):
            RoadEdge(id="bad", polyline=(LatLon(91.0, 0.0), LatLon(0.0, 0.0)))
        with pytest.raises(ValueError, match="longitude"):
            RoadEdge(id="bad", polyline=(LatLon(0.0, -190.0), LatLon(0.0, 0.0)))


class TestSamplePoints:
    def test_100m_edge_interval_20(self):
        pts = sample_points([meridian_edge("e", 100.0)], 20.0)
        assert [p.chainage_m for p in pts] == [0.0, 20.0, 40.0, 60.0, 80.0, 100.0]
        assert [p.seq_index for p in pts] == list(range(6))

    def test_50m_edge_endpoint_off_grid(self):
        pts = sample_points([meridian_edge("e", 50.0)], 20.0)
        assert [p.chainage_m for p in pts] == [0.0, 20.0, 40.0]

    def test_two_edges_restart_seq_index(self):
        edges = [meridian_edge("a", 100.0), meridian_edge("b", 50.0, lon0=-86.0)]
        pts = sample_points(edges, 20.0)
        assert len(pts) == 9
        assert [p.seq_index for p in pts if p.edge_id == "a"] == list(range(6))
        assert [p.seq_index for p in pts if p.edge_id == "b"] == list(range(3))

    def test_point_count_law_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            length = rng.uniform(5.0, 900.0)
            nverts = int(rng.integers(2, 8))
            edge = meridian_edge("e", length, vertices=nverts)
            pts = sample_points([edge], 20.0)
            assert len(pts) == math.floor(edge.length_m / 20.0) + 1

    def test_consecutive_spacing_within_one_percent(self):
        rng = np.random.default_rng(3)
        # gently curving polylines; chord-vs-arc error stays small only when
        # the heading changes a few degrees per vertex, as real roads do
        for _ in range(20):
            lat, lon = 33.0, -87.0
            ang = rng.uniform(0, 2 * math.pi)
            pts = [LatLon(lat, lon)]
            for _ in range(6):
                step = rng.uniform(30.0, 120.0)
                ang += rng.uniform(-0.14, 0.14)  # <= 8 degrees per vertex
                lat += math.degrees(step * math.cos(ang) / EARTH_RADIUS_M)
                lon += math.degrees(
                    step * math.sin(ang) / (EARTH_RADIUS_M * math.cos(math.radians(lat)))
                )
                pts.append(LatLon(lat, lon))
            sampled = sample_points([RoadEdge(id="z", polyline=tuple(pts))], 20.0)
            for a, b in zip(sampled, sampled[1:]):
                d = haversine_m(a.location, b.location)
                assert abs(d - 20.0) <= 0.2, f"spacing {d} deviates >1% from 20 m"

    @pytest.mark.parametrize("lon0, lon1", [(179.9995, -179.9995), (-179.9995, 179.9995)])
    def test_antimeridian_crossing_keeps_the_spacing(self, lon0, lon1):
        # the edge runs 92.7 m the short way over the antimeridian, east or west
        edge = RoadEdge(id="a", polyline=(LatLon(33.5, lon0), LatLon(33.5, lon1)))
        sampled = sample_points([edge], 20.0)
        assert len(sampled) == 5
        assert all(-180.0 <= p.location.lon <= 180.0 for p in sampled)
        for a, b in zip(sampled, sampled[1:]):
            assert abs(haversine_m(a.location, b.location) - 20.0) <= 0.2

    def test_chainage_end_is_last_vertex(self):
        e = meridian_edge("e", 100.0, vertices=4)
        assert next(_walk(e, [e.length_m]))[0] == e.polyline[-1]

    def test_vertex_chainage_belongs_to_segment_ending_there(self):
        a, b, c = LatLon(33.0, -87.0), LatLon(33.001, -87.0), LatLon(33.001, -86.999)
        edge = RoadEdge(id="L", polyline=(a, b, b, c))  # north, a repeated corner, east
        corner = edge.segment_m[0]
        assert next(_walk(edge, [corner]))[0] == b
        assert heading_at(edge, corner) == bearing_deg(a, b)
        assert heading_at(edge, corner + 1e-6) == bearing_deg(b, c)
        assert heading_at(edge, edge.length_m + 1e-6) == bearing_deg(b, c)

    def test_zero_length_edge_rejected(self):
        p = LatLon(33.0, -87.0)
        edge = RoadEdge(id="x", polyline=(p, p, p))
        for call in (
            lambda: sample_points([edge], 20.0),
            lambda: next(_walk(edge, [0.0])),
            lambda: heading_at(edge, 0.0),
        ):
            with pytest.raises(ValueError, match="edge 'x' has zero length"):
                call()

    @given(polylines(), st.floats(1.0, 100.0))
    def test_matches_per_point_scan(self, points, interval):
        edge = RoadEdge(id="e", polyline=tuple(points))
        if edge.length_m == 0.0:
            return
        sampled = sample_points([edge], interval)
        assert len(sampled) == math.floor(edge.length_m / interval + 1e-9) + 1
        for p in sampled:
            chainage = min(p.chainage_m, edge.length_m)
            location, heading = scan_oracle(edge, chainage)
            assert abs(p.location.lat - location.lat) <= 1e-12
            assert abs(p.location.lon - location.lon) <= 1e-12
            if p.heading_deg != heading:
                # only a chainage on a vertex may fall to the segment on its other side
                assert p.heading_deg in bearings_within(edge, chainage, 1e-9), (chainage, heading)


class TestHeadings:
    def test_north_edge_bearing_zero(self):
        e = meridian_edge("n", 100.0)
        assert heading_at(e, 50.0) == pytest.approx(0.0, abs=1e-9)

    def test_east_edge_bearing_ninety(self):
        a = LatLon(0.0, 0.0)
        b = LatLon(0.0, 0.01)
        assert bearing_deg(a, b) == pytest.approx(90.0, abs=1e-9)


class TestStreetviewUrl:
    def test_embeds_location_and_heading(self):
        url = streetview_request_url(LatLon(33.5, -86.0), 90.0, 224, "K")
        assert "location=33.500000,-86.000000" in url
        assert "heading=90" in url
        assert "size=224x224" in url
        assert url.startswith("https://")

    def test_deterministic(self):
        args = (LatLon(33.5, -86.0), 123.4, 640, "secret-key")
        assert streetview_request_url(*args) == streetview_request_url(*args)

    def test_rounds_coordinates_to_six_decimals(self):
        url = streetview_request_url(LatLon(33.1234567891, -86.9876543219), 0.0, 224, "K")
        assert "location=33.123457,-86.987654" in url


class TestExportGeojson:
    def _rows(self, probs, labels):
        """Predictions rows on edge e1, one per (probabilities, labels) pair."""
        return [
            PredictionRow("e1", i, LatLon(33.0 + 1e-4 * i, -87.0), p, lab)
            for i, (p, lab) in enumerate(zip(probs, labels))
        ]

    def test_labels_drawn_as_given(self):
        # labels that no threshold would give these probabilities are kept
        rows = self._rows([(0.9, 0.2, 0.6)], [(False, True, False)])
        doc = json.loads(export_prediction_geojson(rows))
        props = doc["features"][0]["properties"]
        assert (props["rs"], props["mcb"], props["cb"]) == (False, True, False)

    def test_empty(self):
        doc = json.loads(export_prediction_geojson([]))
        assert doc == {"type": "FeatureCollection", "features": []}

    def test_half_probability_keeps_its_label(self):
        # a probability just above 0.5, written to 6 decimals as 0.500000
        rows = self._rows([(0.5, 0.5, 0.5)], [(True, False, True)])
        doc = json.loads(export_prediction_geojson(rows))
        props = doc["features"][0]["properties"]
        assert (props["p_rs"], props["rs"], props["mcb"], props["cb"]) == (0.5, True, False, True)

    def test_round_trip_byte_identical(self):
        text = export_prediction_geojson(
            self._rows(
                [(0.9, 0.2, 0.6), (0.1, 0.8, 0.5), (0.4, 0.4, 0.9)],
                [(True, False, True), (False, True, False), (False, False, True)],
            )
        )
        reserialized = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
        assert reserialized == text

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_writer_refuses_non_finite(self, bad):
        # NaN and Infinity tokens are not JSON, and strict readers refuse them
        with pytest.raises(ValueError, match="not JSON compliant"):
            dumps_stable({"p": bad})

    def test_carries_ids_and_probabilities(self):
        rows = self._rows([(0.9, 0.2, 0.6)] * 2, [(True,) * 3] * 2)
        doc = json.loads(export_prediction_geojson(rows))
        for i, feat in enumerate(doc["features"]):
            assert feat["properties"]["edge_id"] == "e1"
            assert feat["properties"]["seq_index"] == i
            assert feat["properties"]["p_rs"] == 0.9
            # GeoJSON position order is [lon, lat]
            assert feat["geometry"]["coordinates"][0] == pytest.approx(-87.0)


class TestLoadRoadNetwork:
    def test_round_trip(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "geometry": {
                        "type": "LineString",
                        "coordinates": [[-87.0, 33.0], [-87.0, 33.001]],
                    },
                    "properties": {"id": "seg-1"},
                }
            ],
        }
        path = tmp_path / "net.geojson"
        path.write_text(json.dumps(doc))
        edges = load_road_network(str(path))
        assert len(edges) == 1
        assert edges[0].id == "seg-1"
        assert edges[0].polyline[0] == LatLon(33.0, -87.0)

    def test_rejects_missing_id(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "geometry": {"type": "LineString", "coordinates": [[0, 0], [0, 1]]},
                    "properties": {},
                }
            ],
        }
        path = tmp_path / "net.geojson"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="id"):
            load_road_network(str(path))
