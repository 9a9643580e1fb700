"""The columnar series against a per-record reference kept in this file.

The reference is the record-per-observation path the package used before its
series became columnar: one (timestamp, value) pair per row, with ``None`` for
a missing value, and each function written over those pairs in the same
operation order. Every property compares bytes, reprs or SHA-256 digests of
reprs, so a numpy scalar that reaches ``repr`` (``np.float64(...)``) or one
changed rounding fails it.
"""

import csv
import hashlib
import io
import json
import random
import re
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from datetime import date, datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gulfclimate.core.csvio import HEADER as CSV_HEADER, series_from_csv, series_to_csv
from gulfclimate.core.geo import GeoPoint
from gulfclimate.core.records import (
    CanonicalSeries,
    RecordValidationError,
    timestamp_column,
    to_datetimes,
    value_column,
)
from gulfclimate.core.stats import summary_stats
from gulfclimate.core.timeutil import format_timestamp
from gulfclimate.core.units import default_table
from gulfclimate.core import records
from gulfclimate.geoforge.gridded import GriddedFormatError, GriddedProduct
from gulfclimate.geoforge.visualqa import SpanMask, SpikeInjection, inject_spike, mask_span
from gulfclimate.geoforge.windows import WindowSpec, window_slice
from gulfclimate.tools.analysis import FLAGGED_SHOWN, AnalysisReport, FlaggedPoint, analyze_range
from gulfclimate.tools.providers import FixtureStore
from gulfclimate.tools.weather import FixtureClimateSource

UTC = timezone.utc


# -- the per-record reference ----------------------------------------------------

def ref_csv(meta, rows):
    variable, unit, location, city, source = meta
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for ts, value in rows:
        writer.writerow([format_timestamp(ts), variable,
                         "" if value is None else repr(float(value)), unit,
                         repr(location.lat), repr(location.lon), city or "", source])
    return buf.getvalue()


def ref_stats(present):
    values = np.asarray([v for _, v in present], dtype=np.float64)
    timestamps = [t for t, _ in present]
    days = np.asarray([(t - timestamps[0]).total_seconds() / 86400.0 for t in timestamps])
    mean = float(values.mean())
    if values.size >= 2 and float(np.ptp(days)) > 0.0:
        centered = days - days.mean()
        slope = float(np.dot(centered, values - mean) / np.dot(centered, centered))
    else:
        slope = 0.0
    return (int(values.size), float(values.min()), float(values.max()),
            mean, float(values.std()), slope)


def ref_analyze(meta, rows, kind, z=3.0, aqi=100.0, rain=10.0):
    present = [(t, v) for t, v in rows if v is not None]
    stats = ref_stats(present)
    slope = stats[5]
    trend = "increasing" if slope > 1e-12 else "decreasing" if slope < -1e-12 else "stable"
    anomalies = []
    if stats[4] > 0.0:
        for t, v in present:
            score = (v - stats[3]) / stats[4]
            if abs(score) > z:
                anomalies.append(FlaggedPoint(timestamp=t, value=v, score=score))
    exceedances = [FlaggedPoint(t, v, v) for t, v in present if v > aqi] if kind == "aqi" else []
    events = [FlaggedPoint(t, v, v) for t, v in present if v > rain] if kind == "rain" else []
    return AnalysisReport(
        kind=kind, variable=meta[0], unit=meta[1], start=present[0][0], end=present[-1][0],
        count=stats[0], vmin=stats[1], vmax=stats[2], mean=stats[3], std=stats[4],
        slope_per_day=stats[5], trend=trend,
        anomalies=ref_most_extreme(anomalies, lambda p: abs(p.score)),
        exceedances=ref_most_extreme(exceedances, lambda p: p.value),
        events=ref_most_extreme(events, lambda p: p.value),
        n_anomalies=len(anomalies), n_exceedances=len(exceedances), n_events=len(events),
        thresholds={"z": z, "aqi": aqi, "rain_mm": rain})


def ref_most_extreme(points, extremity):
    """The report's bound on a full flagged list in time order: its
    ``FLAGGED_SHOWN`` largest by ``extremity``, the earlier first among equals
    (``sorted`` is stable), back in time order."""
    kept = sorted(points, key=lambda p: -extremity(p))[:FLAGGED_SHOWN]
    return tuple(sorted(kept, key=lambda p: p.timestamp))


def ref_inject_spike(rows, seed, k_sigma=5.0):
    present = [(t, v) for t, v in rows if v is not None]
    if len(present) < 3:
        return None
    rng = random.Random(seed)
    target = rng.randrange(1, len(present) - 1)
    direction = rng.choice(["upward", "downward"])
    values = np.asarray([v for _, v in present], dtype=np.float64)
    sigma = float(values.std())
    magnitude = k_sigma * sigma if sigma > 0 else max(1.0, abs(values.mean()) * 0.1)
    delta = magnitude if direction == "upward" else -magnitude
    target_ts = present[target][0]
    perturbed = [(t, float(v + delta) if t == target_ts else v) for t, v in rows]
    return perturbed, SpikeInjection(timestamp=format_timestamp(target_ts)[:10],
                                     direction=direction)


def ref_mask_span(rows, seed, fraction=0.1):
    present = [(t, v) for t, v in rows if v is not None]
    length = max(1, int(round(len(present) * fraction)))
    if len(present) <= length + 2:
        return None
    rng = random.Random(seed)
    start = rng.randrange(1, len(present) - length)
    masked = present[start:start + length]
    masked_ts = {t for t, _ in masked}
    true_mean = float(np.mean([v for _, v in masked]))
    tolerance = max(float(np.std([v for t, v in present if t not in masked_ts])), 1e-9)
    perturbed = [(t, None if t in masked_ts else v) for t, v in rows]
    return perturbed, SpanMask(start=format_timestamp(masked[0][0])[:10],
                               end=format_timestamp(masked[-1][0])[:10],
                               true_mean=true_mean, tolerance=tolerance)


# -- random series ---------------------------------------------------------------

VARIABLES = [("temperature", "°C", "weather"), ("precipitation", "mm", "rain"),
             ("aqi", "index", "aqi")]

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)
values_st = st.one_of(
    finite, st.sampled_from([0.0, -0.0, 1e-300, -2.5, 100.5]), st.integers(-1000, 1000).map(float)
)


@st.composite
def series_rows(draw, min_size=1, max_size=80):
    n = draw(st.integers(min_size, max_size))
    if draw(st.booleans()):  # constant series: zero std
        value = draw(values_st)
        values = [value] * n
    else:
        values = draw(st.lists(values_st, min_size=n, max_size=n))
    missing_p = draw(st.sampled_from([0.0, 0.1, 0.5]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    values = [None if rng.random() < missing_p else v for v in values]
    gap = draw(st.sampled_from([timedelta(days=1), timedelta(hours=6), timedelta(days=7),
                                timedelta(seconds=1), timedelta(microseconds=250),
                                timedelta(days=1, microseconds=1)]))
    start = draw(st.datetimes(min_value=datetime(1970, 1, 1), max_value=datetime(2090, 1, 1)))
    start = start.replace(tzinfo=UTC, fold=0)
    timestamps = []
    ts = start
    for _ in range(n):
        timestamps.append(ts)
        ts += gap * (1 + (rng.random() < 0.2) * rng.randint(1, 4))
    variable, unit, kind = draw(st.sampled_from(VARIABLES))
    city = draw(st.sampled_from([None, "Doha", 'Abu "Dhabi", UAE', "Kuwait City"]))
    location = GeoPoint(draw(st.floats(-90, 90)), draw(st.floats(-180, 180)))
    source = draw(st.sampled_from(["", "fixture:weather_analysis", "grid,cell"]))
    return (variable, unit, location, city, source), list(zip(timestamps, values)), kind


def build(meta, rows):
    variable, unit, location, city, source = meta
    return CanonicalSeries(timestamp_column([t for t, _ in rows]),
                           value_column([v for _, v in rows]),
                           variable, unit, location, city, source)


def as_rows(series):
    return [(t, None if v != v else v)
            for t, v in zip(to_datetimes(series.timestamps), series.values.tolist())]


def digest(obj):
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()


# -- properties --------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(series_rows(min_size=0))
def test_csv_bytes_and_round_trip_match_the_reference(drawn):
    meta, rows, _kind = drawn
    series = build(meta, rows)
    text = series_to_csv(series)
    assert text == ref_csv(meta, rows)
    back = series_from_csv(text)
    assert as_rows(back) == rows
    if rows:
        assert back == series
        assert [v.tobytes() for v in back.values] == [v.tobytes() for v in series.values]


@settings(max_examples=320, deadline=None)
@given(series_rows())
def test_summary_stats_and_analyze_range_hash_like_the_reference(drawn):
    meta, rows, kind = drawn
    series = build(meta, rows)
    if all(v is None for _, v in rows):
        return
    present = [(t, v) for t, v in rows if v is not None]
    stats = summary_stats(series.present())
    assert digest(tuple(stats)) == digest(ref_stats(present))
    report = analyze_range(series, kind)
    reference = ref_analyze(meta, rows, kind)
    assert report == reference
    assert digest(report) == digest(reference)


def test_single_point_negative_and_constant_series():
    meta = ("temperature", "°C", GeoPoint(25.3, 51.5), "Doha", "test")
    t0 = datetime(2023, 1, 1, tzinfo=UTC)
    for values in ([-3.5], [-1.0, None, -7.25], [4.0] * 9, [None, 2.0, None]):
        rows = [(t0 + timedelta(days=k), v) for k, v in enumerate(values)]
        report = analyze_range(build(meta, rows), "weather")
        assert digest(report) == digest(ref_analyze(meta, rows, "weather"))


@settings(max_examples=100, deadline=None)
@given(series_rows(), st.data())
def test_window_slice_matches_the_reference(drawn, data):
    meta, rows, _kind = drawn
    series = build(meta, rows)
    first, last = rows[0][0], rows[-1][0]
    between = st.floats(-0.5, 1.5).map(lambda f: first + (last - first) * f)
    instants = st.one_of(st.sampled_from([t for t, _ in rows]), between)  # bounds on a row too
    for _ in range(3):
        start, end = sorted(data.draw(st.tuples(instants, instants)))
        window = WindowSpec(index=0, start=start, end=end, completeness=0.0)
        sliced = window_slice(series, window)
        assert as_rows(sliced) == [(t, v) for t, v in rows if start <= t < end]
        assert (sliced.variable, sliced.unit, sliced.location, sliced.city, sliced.source) == meta


@settings(max_examples=100, deadline=None)
@given(series_rows(), st.data())
def test_derived_series_take_over_the_formatted_instants(drawn, data):
    meta, rows, _kind = drawn
    series = build(meta, rows)
    assert series.timestamp_text == tuple(format_timestamp(t) for t, _ in rows)
    lo, hi = sorted(data.draw(st.tuples(st.integers(0, len(rows)), st.integers(0, len(rows)))))
    mask = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    derived = [(series.select(slice(lo, hi)), rows[lo:hi]),
               (series.with_values(np.zeros(len(rows))), rows)]
    with mock.patch.object(records, "format_timestamps", side_effect=AssertionError("again")):
        for sub, kept in derived:
            assert sub.timestamp_text == tuple(format_timestamp(t) for t, _ in kept)
    assert derived[-1][0].timestamp_text is series.timestamp_text
    # A series selected by a mask formats its own rows.
    masked = [(series.select(np.array(mask, dtype=bool)), [r for r, k in zip(rows, mask) if k]),
              (series.present(), [r for r in rows if r[1] is not None])]
    for sub, kept in masked:
        assert sub.timestamp_text == tuple(format_timestamp(t) for t, _ in kept)
    # A series not yet formatted hands nothing on: each derived one formats its own rows.
    fresh = build(meta, rows).select(slice(lo, hi))
    assert "_timestamp_text" not in vars(fresh)
    assert fresh.timestamp_text == derived[0][0].timestamp_text


@settings(max_examples=150, deadline=None)
@given(series_rows(), st.integers(0, 10_000))
def test_inject_spike_and_mask_span_match_the_reference(drawn, seed):
    meta, rows, _kind = drawn
    series = build(meta, rows)
    for perturb, reference in ((inject_spike, ref_inject_spike), (mask_span, ref_mask_span)):
        expected = reference(rows, seed)
        if expected is None:
            with pytest.raises(ValueError):
                perturb(series, seed)
            continue
        perturbed, truth = perturb(series, seed)
        assert (as_rows(perturbed), truth) == expected
        assert digest(truth) == digest(expected[1])
        assert series_to_csv(perturbed) == ref_csv(meta, expected[0])
        assert as_rows(series) == rows  # the input is not modified


# -- raw NaN and ±inf from each source -------------------------------------------------

def test_fixture_analysis_rejects_a_raw_nan(tmp_path):
    row = {"city": "Doha", "lat": 25.2854, "lon": 51.531, "unit": "°C",
           "records": [{"date": "2023-01-01", "value": 24.0},
                       {"date": "2023-01-02", "value": None},
                       {"date": "2023-01-03", "value": 26.0}]}
    (tmp_path / "weather_analysis.json").write_text(json.dumps({"rows": [row]}))
    source = FixtureClimateSource(FixtureStore(tmp_path))
    args = ("weather_analysis", 25.2854, 51.531,
            datetime(2023, 1, 1).date(), datetime(2023, 1, 3).date())
    series = source.analysis_series(*args)
    assert as_rows(series)[1][1] is None
    for bad in ("NaN", "Infinity", "-Infinity"):
        row["records"][1]["value"] = bad
        text = json.dumps({"rows": [row]}).replace(f'"{bad}"', bad)
        (tmp_path / "weather_analysis.json").write_text(text)
        source = FixtureClimateSource(FixtureStore(tmp_path))
        # Only a bad value inside the requested range is an error.
        assert as_rows(source.analysis_series(*args[:3], args[4], args[4]))[0][1] == 26.0
        with pytest.raises(RecordValidationError, match="non-finite"):
            source.analysis_series(*args)


def ref_fixture_series(row, tool, variable, start, end):
    """The series ``FixtureClimateSource.analysis_series`` built from the
    record dicts on every call before it kept their columns."""
    items = row["records"]
    days = np.array([item["date"] for item in items], dtype="datetime64[D]")
    keep = (days >= np.datetime64(start, "D")) & (days <= np.datetime64(end, "D"))
    raw = [item.get("value") for item, kept in zip(items, keep.tolist()) if kept]
    values, unit = default_table().normalize_column(value_column(raw), row["unit"], variable)
    return CanonicalSeries(days[keep].astype("datetime64[us]"), values, variable, unit,
                           GeoPoint(float(row["lat"]), float(row["lon"])), row.get("city"),
                           f"fixture:{tool}")


class CountingRecord(dict):
    reads: Counter = Counter()

    def __getitem__(self, key):
        self.reads[key] += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads[key] += 1
        return super().get(key, default)


def test_fixture_analysis_reads_the_records_once_and_slices_like_before(tmp_path):
    first = date(2023, 1, 1)
    items = [{"date": (first + timedelta(days=k)).isoformat(),
              "value": None if k % 5 == 0 else 70.0 + 0.25 * k} for k in range(40)]
    row = {"city": "Doha", "lat": 25.2854, "lon": 51.531, "unit": "°F", "records": items}
    (tmp_path / "weather_analysis.json").write_text(json.dumps({"rows": [row]}))
    store = FixtureStore(tmp_path)
    stored = store.document("weather_analysis")["rows"][0]
    stored["records"] = [CountingRecord(record) for record in stored["records"]]
    CountingRecord.reads.clear()
    source = FixtureClimateSource(store)
    ranges = [(0, 39), (3, 17), (5, 5), (30, 60), (-10, -1), (41, 50), (0, 0)]
    for a, b in ranges:
        start, end = first + timedelta(days=a), first + timedelta(days=b)
        got = source.analysis_series("weather_analysis", 25.2854, 51.531, start, end)
        assert got == ref_fixture_series(row, "weather_analysis", "temperature", start, end)
        assert [v.tobytes() for v in got.values] == [
            v.tobytes() for v in ref_fixture_series(row, "weather_analysis", "temperature",
                                                    start, end).values]
    assert CountingRecord.reads == {"date": 40, "value": 40}


def test_fixture_analysis_columns_are_safe_under_threads(tmp_path):
    first = date(2023, 1, 1)
    items = [{"date": (first + timedelta(days=k)).isoformat(),
              "value": None if k % 7 == 0 else 20.0 + 0.5 * k} for k in range(366)]
    rows = [{"city": "Doha", "lat": 25.2854, "lon": 51.531, "unit": "°C", "records": items}]
    (tmp_path / "weather_analysis.json").write_text(json.dumps({"rows": rows}))
    (tmp_path / "rain_analysis.json").write_text(
        json.dumps({"rows": [dict(rows[0], unit="mm")]}))
    calls = [(tool, first + timedelta(days=a), first + timedelta(days=a + span))
             for tool in ("weather_analysis", "rain_analysis")
             for a in range(0, 360, 9) for span in (0, 30, 400)]
    expected = {(tool, start, end): ref_fixture_series(
        rows[0] if tool == "weather_analysis" else dict(rows[0], unit="mm"), tool,
        "temperature" if tool == "weather_analysis" else "precipitation", start, end)
        for tool, start, end in calls}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):  # a fresh source each round, so the columns are built under contention
            source = FixtureClimateSource(FixtureStore(tmp_path))
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = {pool.submit(source.analysis_series, tool, 25.2854, 51.531,
                                       start, end): (tool, start, end)
                           for tool, start, end in calls * 2}
                for future, key in futures.items():
                    assert future.result(timeout=60) == expected[key]
    finally:
        sys.setswitchinterval(interval)


GRID = """# gridded-fixture v1
variable: temperature
unit: K
cadence: daily
lats: 25.2,25.3
lons: 51.4,51.5
---
"""


def test_gridded_rows_group_by_cell_and_reject_non_finite_values():
    text = GRID + ("2022-01-03,1,0,300.5\n2022-01-01,0,0,\n"
                   "2022-01-01,1,0,299.0\n2022-01-03,1,0,301.0\n")
    product = GriddedProduct.from_text(text, GeoPoint(25.3, 51.4))
    assert product.cell == (1, 0) and list(product.cells) == [(1, 0)]
    days, values = product.cells[(1, 0)]
    assert days.astype(str).tolist() == ["2022-01-01", "2022-01-03"]
    assert values.tolist() == [299.0, 301.0]  # the later row for a day wins
    product = GriddedProduct.from_text(text, GeoPoint(25.2, 51.4))
    assert list(product.cells) == [(0, 0)] and np.isnan(product.cells[(0, 0)][1]).all()
    assert GriddedProduct.from_text(text, GeoPoint(25.2, 51.5)).cells == {}
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(GriddedFormatError, match="line 9: non-finite"):
            GriddedProduct.from_text(GRID + f"2022-01-01,0,0,1.0\n2022-01-02,0,0,{bad}\n",
                                     GeoPoint(25.3, 51.5))
    for bad_row, message in [("2022-02-30,0,0,1.0", "bad date '2022-02-30'"),
                             ("2022-01-02,x,0,1.0", "bad cell index 'x'"),
                             ("2022-01-02,0,1.5,1.0", "bad cell index '1.5'"),
                             ("2022-01-02,0,0,abc", "bad value 'abc'"),
                             ("2022-01-02,0,2,1.0", "cell (0, 2) outside grid"),
                             ("2022-01-02,0,0", "expected date,i,j,value")]:
        with pytest.raises(GriddedFormatError, match=re.escape(f"line 10: {message}")):
            GriddedProduct.from_text(GRID + f"2022-01-01,0,0,1.0\n\n{bad_row}\n"
                                     "2022-01-03,0,0,nan\n2022-01-04,x,0,\n",
                                     GeoPoint(25.3, 51.5))
