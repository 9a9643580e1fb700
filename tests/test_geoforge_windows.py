"""Windowing against a brute-force reference on random series."""

import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gulfclimate.core import CanonicalRecord, CanonicalSeries, GeoPoint, modal_cadence_seconds
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

def reference_cadence(series):
    seconds = modal_cadence_seconds(series.timestamps())
    if seconds is None or seconds <= 0:
        return timedelta(days=1)
    return timedelta(seconds=seconds)


def reference_completeness(series, start, end):
    expected = int((end - start) / reference_cadence(series))
    if expected <= 0:
        return 0.0
    observed = sum(1 for r in series if start <= r.timestamp < end and not r.missing)
    return min(1.0, observed / expected)


def reference_windows(series, delta_days, rho):
    last = series.records[-1].timestamp
    horizon_start = last - timedelta(days=TRAILING_SPAN_DAYS)
    anchor = next(r.timestamp for r in series if r.timestamp >= horizon_start)
    span_end = last + reference_cadence(series)
    delta = timedelta(days=delta_days)
    kept = []
    t = 0
    while anchor + (t + 1) * delta <= span_end:
        start = anchor + t * delta
        end = start + delta
        completeness = reference_completeness(series, start, end)
        if completeness >= rho:
            kept.append(WindowSpec(index=t, start=start, end=end, delta_days=delta_days,
                                   completeness=completeness, rho=rho))
        t += 1
    return kept


def reference_slice(series, window):
    return CanonicalSeries(tuple(r for r in series if window.contains(r.timestamp)))


# -- random series ---------------------------------------------------------------

def make_series(layout_seed, n, cadence, absent_p, missing_p):
    """``n`` records at a modal ``cadence``; a share of steps is skipped (absent
    timesteps) and a share of records carries no value (explicit missing)."""
    rng = random.Random(layout_seed)
    records = []
    ts = START
    for _ in range(n):
        value = None if rng.random() < missing_p else round(rng.uniform(10.0, 45.0), 2)
        records.append(CanonicalRecord(timestamp=ts, variable="temperature", value=value,
                                       unit="°C", location=WHERE, source="test"))
        ts += cadence * (1 + (rng.random() < absent_p) * rng.randint(1, 5))
    return CanonicalSeries(tuple(records))


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
                                  delta_days=delta_days, completeness=0.0, rho=1.0))
    for window in windows:
        assert window_slice(series, window).records == reference_slice(series, window).records


def test_long_series_keeps_only_the_trailing_ten_years():
    series = make_series(4, 4000, timedelta(days=1), 0.05, 0.05)
    windows = segment_windows(series, delta_days=90, rho=0.5)
    assert windows == reference_windows(series, 90, 0.5)
    assert windows[0].start > series.records[0].timestamp


def test_series_shorter_than_one_window_has_no_windows():
    series = make_series(1, 30, timedelta(days=1), 0.0, 0.0)
    assert segment_windows(series, delta_days=90) == []


def test_cadence_coarser_than_a_window_has_no_windows():
    series = make_series(2, 40, timedelta(days=7), 0.0, 0.0)
    assert segment_windows(series, delta_days=5, rho=0.01) == []


def test_invalid_arguments():
    series = make_series(3, 10, timedelta(days=1), 0.0, 0.0)
    with pytest.raises(WindowingError):
        segment_windows(CanonicalSeries(()))
    with pytest.raises(WindowingError):
        segment_windows(series, rho=0.0)
    with pytest.raises(WindowingError):
        segment_windows(series, delta_days=0)
