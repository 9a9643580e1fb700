import csv
import io
import random
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gulfclimate.core import records
from gulfclimate.core.csvio import (
    HEADER,
    CsvSchemaError,
    format_row,
    series_from_csv,
    series_to_csv,
    write_canonical_csv,
)
from gulfclimate.core.geo import GeoPoint
from gulfclimate.core.records import (
    CanonicalSeries,
    RecordValidationError,
    timestamp_column,
    value_column,
)
from gulfclimate.core.units import UnknownVariable

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


def test_carriage_return_in_a_text_field_is_quoted_and_round_trips():
    series = CanonicalSeries(_series(3).timestamps, [1.0, None, 3.0], "temperature", "°C",
                             DOHA, city="cr\rhere", source="a\r\nb")
    text = series_to_csv(series)
    assert ',"cr\rhere","a\r\nb"\n' in text
    assert series_from_csv(text) == series


def test_unreadable_csv_raises_a_schema_error():
    # What the stdlib writer made of a CR in a field: left unquoted.
    text = series_to_csv(_series(2)).replace(",Doha,", ",cr\rhere,")
    with pytest.raises(CsvSchemaError, match="new-line character"):
        series_from_csv(text)


# -- the row template against the stdlib writer ------------------------------------
#
# The reference is ``csv.writer`` with a CRLF line terminator, which quotes a
# field holding CR or LF alike; each row's CRLF ending then becomes LF. It is
# the writer the package used before (which ended rows with LF and so left a
# CR unquoted), with that one difference.

def ref_csv(series):
    rows = [HEADER]
    rows += [(ts, series.variable, "" if v != v else repr(v), series.unit,
              repr(series.location.lat), repr(series.location.lon), series.city or "",
              series.source)
             for ts, v in zip(_iso(series.timestamps), series.values.tolist())]
    out = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        out.append(buf.getvalue()[:-2] + "\n")
    return "".join(out)


def _iso(timestamps):
    return [ts.isoformat() + "Z" for ts in timestamps.astype("datetime64[s]").tolist()]


class _AnyVariable:
    """A unit table under which every variable's canonical unit is °C, so a
    series may carry arbitrary variable text."""

    def canonical_unit(self, variable):
        return "°C"


field_text = st.lists(st.one_of(st.sampled_from([",", '"', "\r", "\n", "\r\n", "\u2028",
                                                  "é", "°", " ", "Doha"]),
                                st.characters(blacklist_categories=("Cs",))),
                      max_size=8).map("".join)
csv_values = st.lists(st.one_of(
    st.floats(allow_infinity=False),
    st.sampled_from([float("nan"), -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
                     1e300, -1e300]),
), max_size=12)


@settings(max_examples=300, deadline=None)
@given(field_text, st.one_of(st.none(), field_text), field_text, csv_values,
       st.floats(-90, 90), st.floats(-180, 180))
def test_row_template_matches_the_reference_writer_and_round_trips(
        variable, city, source, values, lat, lon):
    start = np.datetime64("2023-01-01T00:00:00", "us")
    with mock.patch.object(records, "default_table", _AnyVariable):
        series = CanonicalSeries(start + np.arange(len(values)) * np.timedelta64(1, "D"),
                                 values, variable, "°C", GeoPoint(lat, lon), city, source)
        text = series_to_csv(series)
        back = series_from_csv(text)
    assert text == ref_csv(series)
    assert (back.variable, back.unit, back.location, back.city, back.source) == (
        (variable, "°C", GeoPoint(lat, lon), city or None, source) if len(values)
        else (None, None, None, None, ""))
    assert np.array_equal(back.timestamps, series.timestamps)
    assert [repr(v) for v in back.values.tolist()] == [repr(v) for v in series.values.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(field_text, st.none(), st.integers(), st.booleans(),
                          st.floats(allow_nan=False)), min_size=2, max_size=8))
def test_format_row_matches_the_reference_writer_and_round_trips(fields):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    line = format_row(fields)
    assert line == buf.getvalue()[:-2] + "\n"
    assert list(csv.reader(io.StringIO(line, newline=""))) == [
        ["" if f is None else str(f) for f in fields]]
