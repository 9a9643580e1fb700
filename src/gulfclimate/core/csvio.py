"""The universal CSV schema shared by every pipeline stage.

Header: ``timestamp,variable,value,unit,lat,lon,city,source``, one row per
timestamp of a series. Every row repeats the series' variable, unit,
location, city and source; a file whose rows differ in them is rejected on
read. Missing values (NaN) serialize as an empty field, and only an empty
field reads back as missing. Floats are written with ``repr`` of a Python
float, so the file round-trips bit-exactly. Dialect: comma separator, UTF-8,
LF line endings, quoting only for fields that need it.
"""

from __future__ import annotations

import csv
import io
from typing import IO

from ..errors import GulfClimateError
from .geo import GeoPoint
from .records import CanonicalSeries, RecordValidationError, timestamp_column, value_column
from .timeutil import format_timestamps, parse_utc

HEADER = ("timestamp", "variable", "value", "unit", "lat", "lon", "city", "source")


class SinkFailure(GulfClimateError, OSError):
    """Writing to a CSV sink failed."""


class CsvSchemaError(GulfClimateError, ValueError):
    """Input does not match the canonical CSV schema."""


def write_canonical_csv(series: CanonicalSeries, sink: IO[str]) -> int:
    """Write ``series`` to the text stream ``sink`` and return the number of
    data rows."""
    try:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(HEADER)
        if len(series):
            variable, unit = series.variable, series.unit
            lat, lon = repr(series.location.lat), repr(series.location.lon)
            city = series.city or ""
            writer.writerows(
                (ts, variable, "" if v != v else repr(v), unit, lat, lon, city, series.source)
                for ts, v in zip(format_timestamps(series.timestamps), series.values.tolist())
            )
        return len(series)
    except OSError as exc:
        raise SinkFailure(str(exc)) from exc


def series_to_csv(series: CanonicalSeries) -> str:
    buf = io.StringIO()
    write_canonical_csv(series, buf)
    return buf.getvalue()


def read_canonical_csv(source: IO[str]) -> CanonicalSeries:
    """Read a canonical CSV text stream back into a validated series."""
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvSchemaError("empty input, header row required") from None
    if tuple(header) != HEADER:
        raise CsvSchemaError(f"unexpected header: {header}")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(HEADER):
            raise CsvSchemaError(f"row {lineno}: expected {len(HEADER)} fields, got {len(row)}")
        rows.append(row)
    if not rows:
        return CanonicalSeries()
    timestamps, variables, values, units, lats, lons, cities, sources = zip(*rows)
    shared = set(zip(variables, units, map(float, lats), map(float, lons), cities, sources))
    if len(shared) != 1:
        raise RecordValidationError("series mixes variable/unit/location/city/source")
    variable, unit, lat, lon, city, source_id = shared.pop()
    return CanonicalSeries(
        timestamps=timestamp_column(map(parse_utc, timestamps)),
        values=value_column([None if v == "" else float(v) for v in values]),
        variable=variable,
        unit=unit,
        location=GeoPoint(lat=lat, lon=lon),
        city=city or None,
        source=source_id,
    )


def series_from_csv(text: str) -> CanonicalSeries:
    return read_canonical_csv(io.StringIO(text))
