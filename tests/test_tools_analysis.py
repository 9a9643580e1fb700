from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from gulfclimate.core.geo import GeoPoint
from gulfclimate.core.records import (
    CanonicalSeries,
    RecordValidationError,
    timestamp_column,
    to_datetimes,
    value_column,
)
from gulfclimate.tools.analysis import FLAGGED_SHOWN, analyze_range
from gulfclimate.tools.errors import EmptyRange

DOHA = GeoPoint(25.2854, 51.5310)


def daily_series(values, variable="temperature", unit="°C"):
    start = datetime(2023, 1, 1, tzinfo=timezone.utc)
    return CanonicalSeries(
        timestamp_column(start + timedelta(days=i) for i in range(len(values))),
        value_column(values), variable, unit, DOHA, "Doha", "test",
    )


def brute_force_anomalies(values, threshold=3.0):
    """Independent z-score scan used as the oracle."""
    arr = np.asarray(values, dtype=float)
    mean = arr.mean()
    std = arr.std()
    if std == 0:
        return []
    return [i for i, v in enumerate(arr) if abs((v - mean) / std) > threshold]


def test_constant_series_degenerate_case():
    report = analyze_range(daily_series([21.5] * 30), kind="weather")
    assert report.std == 0.0
    assert report.slope_per_day == 0.0
    assert report.trend == "stable"
    assert report.anomalies == ()


def test_linear_series_unit_slope():
    report = analyze_range(daily_series([float(t) for t in range(60)]), kind="weather")
    assert report.slope_per_day == pytest.approx(1.0, abs=1e-9)
    assert report.trend == "increasing"


def test_injected_spike_matches_brute_force():
    rng = np.random.default_rng(11)
    values = list(rng.normal(25.0, 2.0, size=90))
    sigma = np.asarray(values).std()
    values[40] += 10.0 * sigma
    report = analyze_range(daily_series(values), kind="weather")
    flagged = [a.timestamp for a in report.anomalies]
    oracle = brute_force_anomalies(values)
    assert oracle == [40]
    assert flagged == to_datetimes(daily_series(values).timestamps[[40]])


def test_anomalies_equal_brute_force_on_random_series():
    rng = np.random.default_rng(5)
    for trial in range(10):
        values = list(rng.normal(0.0, 1.0, size=120))
        for spike_at in rng.integers(0, 120, size=2):
            values[int(spike_at)] += float(rng.choice([-1, 1])) * 8.0
        report = analyze_range(daily_series(values), kind="weather")
        series = daily_series(values)
        flagged = {a.timestamp for a in report.anomalies}
        oracle = set(to_datetimes(series.timestamps[brute_force_anomalies(values)]))
        assert flagged == oracle


def test_aqi_exceedances():
    values = [80.0, 95.0, 120.0, 101.0, 99.9]
    report = analyze_range(daily_series(values, "aqi", "index"), kind="aqi")
    assert [e.value for e in report.exceedances] == [120.0, 101.0]


def test_rain_events_threshold():
    values = [0.0, 3.0, 14.5, 9.9, 22.0]
    report = analyze_range(daily_series(values, "precipitation", "mm"), kind="rain")
    assert [e.value for e in report.events] == [14.5, 22.0]


def brute_force_flagged(values, kind, z=3.0, aqi=100.0, rain=10.0):
    """Every flagged point of each kind as (index, extremity), in time order."""
    arr = np.asarray(values, dtype=float)
    mean, std = arr.mean(), arr.std()
    anomalies = [] if std == 0 else [(i, abs((v - mean) / std)) for i, v in enumerate(arr)
                                     if abs((v - mean) / std) > z]
    cut = {"aqi": aqi, "rain": rain}.get(kind)
    above = [] if cut is None else [(i, v) for i, v in enumerate(arr) if v > cut]
    return {"anomalies": anomalies,
            "exceedances": above if kind == "aqi" else [],
            "events": above if kind == "rain" else []}


def most_extreme_rows(flagged):
    """The rows a bounded report keeps: the FLAGGED_SHOWN largest extremities,
    the earlier row first among equals, in time order."""
    ranked = sorted(flagged, key=lambda row: (-row[1], row[0]))
    return sorted(i for i, _ in ranked[:FLAGGED_SHOWN])


@pytest.mark.parametrize("kind", ["weather", "aqi", "rain"])
def test_bounded_flagged_points_equal_brute_force(kind):
    rng = np.random.default_rng(17)
    for _ in range(20):
        # Up to 12 spikes of two heights make many anomalies and exceedances,
        # and whole numbers tie often.
        values = np.round(rng.normal(60.0, 3.0, size=200))
        spikes = rng.choice(200, size=int(rng.integers(0, 13)), replace=False)
        values[spikes] = rng.choice([160.0, 175.0], size=len(spikes))
        values = values.tolist()
        series = daily_series(values)
        report = analyze_range(series, kind=kind)
        for name, flagged in brute_force_flagged(values, kind).items():
            kept = getattr(report, name)
            assert getattr(report, f"n_{name}") == len(flagged)
            assert len(kept) == min(len(flagged), FLAGGED_SHOWN)
            rows = most_extreme_rows(flagged)
            assert [p.timestamp for p in kept] == to_datetimes(series.timestamps[rows])
            assert [p.value for p in kept] == [values[i] for i in rows]


def test_ties_keep_the_earlier_date():
    values = [150.0, 120.0, 150.0, 150.0, 101.0, 150.0, 150.0, 150.0, 99.0]
    report = analyze_range(daily_series(values, "aqi", "index"), kind="aqi")
    assert report.n_exceedances == 8
    assert [p.timestamp.day for p in report.exceedances] == [1, 3, 4, 6, 7]


def test_stats_over_valid_points_only():
    report = analyze_range(daily_series([10.0, None, 30.0]), kind="weather")
    assert report.count == 2
    assert report.mean == pytest.approx(20.0)


def test_empty_range_raises():
    with pytest.raises(EmptyRange):
        analyze_range(daily_series([None]), kind="weather")
    with pytest.raises(EmptyRange):
        analyze_range(daily_series([]), kind="weather")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_source_values_are_rejected(bad):
    with pytest.raises(RecordValidationError, match="non-finite"):
        daily_series([10.0, bad, 30.0])
