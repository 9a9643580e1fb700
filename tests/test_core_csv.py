import io
import random
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from gulfclimate.core import (
    CanonicalSeries,
    GeoPoint,
    RecordValidationError,
    UnknownVariable,
    series_from_csv,
    series_to_csv,
    timestamp_column,
    value_column,
    write_canonical_csv,
)

DOHA = GeoPoint(25.2854, 51.5310)


def _series(n, variable="temperature", unit="°C", missing_every=None, seed=7):
    rng = random.Random(seed)
    start = datetime(2020, 1, 1, tzinfo=timezone.utc)
    raw = [None if missing_every is not None and i % missing_every == 0
           else rng.uniform(-40.0, 55.0) for i in range(n)]
    return CanonicalSeries(
        timestamps=timestamp_column(start + timedelta(days=i) for i in range(n)),
        values=value_column(raw), variable=variable, unit=unit,
        location=DOHA, city="Doha", source="unit-test",
    )


def _two(t0, t1, values=(1.0, 2.0), unit="°C"):
    return CanonicalSeries(timestamp_column([t0, t1]), values, "temperature", unit, DOHA)


def test_empty_series_header_only():
    buf = io.StringIO()
    count = write_canonical_csv(CanonicalSeries(), buf)
    assert count == 0
    assert buf.getvalue() == "timestamp,variable,value,unit,lat,lon,city,source\n"


def test_row_count_matches_records():
    buf = io.StringIO()
    assert write_canonical_csv(_series(3), buf) == 3
    assert len(buf.getvalue().splitlines()) == 4


def test_round_trip_thousand_random_records():
    series = _series(1000, missing_every=17)
    back = series_from_csv(series_to_csv(series))
    assert back == series


def test_missing_value_serializes_empty_field():
    series = _series(2, missing_every=1)
    lines = series_to_csv(series).splitlines()
    assert lines[1].split(",")[2] == ""


def test_lf_line_endings():
    text = series_to_csv(_series(5))
    assert "\r" not in text


def test_reject_out_of_order_timestamps():
    t = datetime(2020, 1, 2, tzinfo=timezone.utc)
    with pytest.raises(RecordValidationError, match="not strictly increasing"):
        _two(t, t - timedelta(days=1))


def test_reject_duplicate_timestamps():
    t = datetime(2020, 1, 2, tzinfo=timezone.utc)
    with pytest.raises(RecordValidationError, match="not strictly increasing"):
        _two(t, t)


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_reject_infinite_values(bad):
    t = datetime(2020, 1, 1, tzinfo=timezone.utc)
    with pytest.raises(RecordValidationError, match="non-finite"):
        _two(t, t + timedelta(days=1), values=(1.0, bad))
    with pytest.raises(RecordValidationError, match="non-finite"):
        series_from_csv(_csv_with_first_value(repr(bad)))


def _csv_with_first_value(field):
    text = series_to_csv(_series(2))
    return text.replace(text.splitlines()[1].split(",")[2], field, 1)


def test_raw_nan_is_not_a_missing_value():
    assert np.isnan(value_column([1.0, None])[1])
    assert np.isnan(series_from_csv(_csv_with_first_value("")).values[0])
    with pytest.raises(RecordValidationError, match="non-finite value: nan"):
        value_column([1.0, float("nan")])
    with pytest.raises(RecordValidationError, match="non-finite value: nan"):
        series_from_csv(_csv_with_first_value("nan"))


def test_reject_non_canonical_unit():
    t = datetime(2020, 1, 1, tzinfo=timezone.utc)
    with pytest.raises(RecordValidationError, match="not canonical"):
        _two(t, t + timedelta(days=1), values=(300.0, 301.0), unit="K")
    with pytest.raises(RecordValidationError, match="not canonical"):
        CanonicalSeries(variable="temperature", unit="K")
    with pytest.raises(UnknownVariable):
        CanonicalSeries(variable="no-such-variable", unit="K")


def test_reject_non_utc_and_unlabelled_series():
    with pytest.raises(RecordValidationError, match="must be UTC"):
        timestamp_column([datetime(2020, 1, 1)])
    with pytest.raises(RecordValidationError, match="needs a variable and a location"):
        CanonicalSeries(timestamp_column([datetime(2020, 1, 1, tzinfo=timezone.utc)]), [1.0])
    with pytest.raises(RecordValidationError, match="shape"):
        CanonicalSeries(timestamp_column([datetime(2020, 1, 1, tzinfo=timezone.utc)]),
                        [1.0, 2.0], "temperature", "°C", DOHA)


def test_reject_mixed_variables():
    lines = series_to_csv(_series(2)).splitlines()
    lines[2] = lines[2].replace(",temperature,", ",precipitation,").replace(",°C,", ",mm,")
    with pytest.raises(RecordValidationError, match="mixes"):
        series_from_csv("\n".join(lines) + "\n")


def test_columns_are_read_only_copies():
    values = np.array([1.0, 2.0])
    t = datetime(2020, 1, 1, tzinfo=timezone.utc)
    series = _two(t, t + timedelta(days=1), values=values)
    values[0] = 99.0
    assert series.values[0] == 1.0
    with pytest.raises(ValueError):
        series.values[0] = 5.0
