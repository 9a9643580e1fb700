"""Windowing against a brute-force reference on random series."""

import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gulfclimate.core.geo import GeoPoint
from gulfclimate.core.records import (
    CanonicalSeries,
    RecordValidationError,
    timestamp_column,
    to_datetimes,
    value_column,
)
from gulfclimate.geoforge.windows import (
    TRAILING_SPAN_DAYS,
    WindowingError,
    WindowSpec,
    segment_windows,
    window_slice,
)

START = datetime(2015, 3, 1, tzinfo=timezone.utc)
WHERE = GeoPoint(25.3, 51.5)


# -- the reference: rescan the series for every window -------------------------
# It works on (timestamp, value) rows: aware datetimes, and Python floats or None.

def rows(series):
    return [(ts, None if v != v else v)
            for ts, v in zip(to_datetimes(series.timestamps), series.values.tolist())]


def reference_cadence(table):
    timestamps = [ts for ts, _ in table]
    if len(timestamps) < 2:
        return timedelta(days=1)
    gaps = {}
    for a, b in zip(timestamps, timestamps[1:]):
        gaps[b - a] = gaps.get(b - a, 0) + 1
    return max(sorted(gaps), key=lambda g: gaps[g])


def reference_completeness(table, start, end):
    expected = int((end - start) / reference_cadence(table))
    if expected <= 0:
        return 0.0
    observed = sum(1 for ts, v in table if start <= ts < end and v is not None)
    return min(1.0, observed / expected)


def reference_windows(series, delta_days, rho):
    table = rows(series)
    last = table[-1][0]
    horizon_start = last - timedelta(days=TRAILING_SPAN_DAYS)
    anchor = next(ts for ts, _ in table if ts >= horizon_start)
    span_end = last + reference_cadence(table)
    delta = timedelta(days=delta_days)
    kept = []
    t = 0
    while anchor + (t + 1) * delta <= span_end:
        start = anchor + t * delta
        end = start + delta
        completeness = reference_completeness(table, start, end)
        if completeness >= rho:
            kept.append(WindowSpec(index=t, start=start, end=end, completeness=completeness))
        t += 1
    return kept


def reference_slice(series, window):
    return [(ts, v) for ts, v in rows(series) if window.start <= ts < window.end]


# -- random series ---------------------------------------------------------------

def make_series(layout_seed, n, cadence, absent_p, missing_p):
    """``n`` records at a modal ``cadence``; a share of steps is skipped (absent
    timesteps) and a share of records carries no value (explicit missing)."""
    rng = random.Random(layout_seed)
    timestamps, values = [], []
    ts = START
    for _ in range(n):
        values.append(None if rng.random() < missing_p else round(rng.uniform(10.0, 45.0), 2))
        timestamps.append(ts)
        ts += cadence * (1 + (rng.random() < absent_p) * rng.randint(1, 5))
    return CanonicalSeries(timestamp_column(timestamps), value_column(values),
                           variable="temperature", unit="°C", location=WHERE, source="test")


series_args = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(1, 400),
    st.sampled_from([timedelta(days=1), timedelta(hours=6), timedelta(days=7)]),
    st.sampled_from([0.0, 0.1, 0.4]),
    st.sampled_from([0.0, 0.05, 0.5]),
)


@settings(max_examples=60, deadline=None)
@given(series_args, st.integers(1, 120), st.floats(0.01, 1.0))
def test_segment_windows_matches_reference(args, delta_days, rho):
    series = make_series(*args)
    assert segment_windows(series, delta_days, rho) == reference_windows(series, delta_days, rho)
    assert segment_windows(series, delta_days, 1.0) == reference_windows(series, delta_days, 1.0)


@settings(max_examples=40, deadline=None)
@given(series_args, st.integers(1, 60), st.data())
def test_rho_at_a_window_completeness_keeps_that_window(args, delta_days, data):
    series = make_series(*args)
    every = reference_windows(series, delta_days, 1e-12)
    if not every:
        return
    rho = data.draw(st.sampled_from([w.completeness for w in every]))
    kept = segment_windows(series, delta_days, rho)
    assert kept == reference_windows(series, delta_days, rho)
    assert any(w.completeness == rho for w in kept)


@settings(max_examples=60, deadline=None)
@given(series_args, st.integers(1, 120), st.data())
def test_window_slice_matches_reference(args, delta_days, data):
    series = make_series(*args)
    first, last = series.span()
    windows = reference_windows(series, delta_days, 1e-12)
    # Arbitrary windows too: before, across and beyond the series.
    for _ in range(3):
        offset = data.draw(st.integers(-delta_days * 2, (last - first).days + 2))
        start = first + timedelta(days=offset)
        windows.append(WindowSpec(index=0, start=start, end=start + timedelta(days=delta_days),
                                  completeness=0.0))
    for window in windows:
        sliced = window_slice(series, window)
        assert rows(sliced) == reference_slice(series, window)
        assert (sliced.variable, sliced.unit, sliced.location, sliced.source) == (
            "temperature", "°C", WHERE, "test")


def test_long_series_keeps_only_the_trailing_ten_years():
    series = make_series(4, 4000, timedelta(days=1), 0.05, 0.05)
    windows = segment_windows(series, delta_days=90, rho=0.5)
    assert windows == reference_windows(series, 90, 0.5)
    assert windows[0].start > series.span()[0]


def test_series_shorter_than_one_window_has_no_windows():
    series = make_series(1, 30, timedelta(days=1), 0.0, 0.0)
    assert segment_windows(series, delta_days=90) == []


def test_cadence_coarser_than_a_window_has_no_windows():
    series = make_series(2, 40, timedelta(days=7), 0.0, 0.0)
    assert segment_windows(series, delta_days=5, rho=0.01) == []


def test_invalid_arguments():
    series = make_series(3, 10, timedelta(days=1), 0.0, 0.0)
    with pytest.raises(WindowingError):
        segment_windows(CanonicalSeries())
    with pytest.raises(WindowingError):
        segment_windows(series, rho=0.0)
    with pytest.raises(WindowingError):
        segment_windows(series, delta_days=0)


def test_series_rejects_unordered_or_non_finite_rows():
    t = [START, START + timedelta(days=1)]
    with pytest.raises(RecordValidationError, match="not strictly increasing"):
        CanonicalSeries(timestamp_column(t[::-1]), [1.0, 2.0], "temperature", "°C", WHERE)
    with pytest.raises(RecordValidationError, match="not strictly increasing"):
        CanonicalSeries(timestamp_column([START, START]), [1.0, 2.0], "temperature", "°C",
                        WHERE)
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(RecordValidationError, match="non-finite"):
            CanonicalSeries(timestamp_column(t), value_column([1.0, bad]), "temperature",
                            "°C", WHERE)
    with pytest.raises(RecordValidationError, match="not canonical"):
        CanonicalSeries(timestamp_column(t), [1.0, 2.0], "temperature", "K", WHERE)
