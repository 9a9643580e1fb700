"""The universal CSV schema shared by every pipeline stage.

Header: ``timestamp,variable,value,unit,lat,lon,city,source``, one row per
timestamp of a series. Every row repeats the series' variable, unit,
location, city and source; a file whose rows differ in them is rejected on
read. Missing values (NaN) serialize as an empty field, and only an empty
field reads back as missing. Floats are written with ``repr`` of a Python
float, so the file round-trips bit-exactly. Timestamps are written as
``2023-04-15T00:00:00Z`` and read as any ISO-8601 date or datetime that
:func:`~.timeutil.parse_utc` accepts. Dialect: comma separator, UTF-8, LF
line endings. A field is quoted only when it holds a comma, a double quote,
a line feed or a carriage return; a quote inside it is doubled. (The
stdlib writer with ``lineterminator="\n"`` leaves a CR unquoted, which its
reader then rejects; this writer quotes it.) Input the CSV reader cannot
split raises :class:`CsvSchemaError`. Every other CSV file of the package
writes its rows with :func:`format_row`, under the same quoting rule.
"""

from __future__ import annotations

import csv
import io
import re
from typing import IO, Iterable

from ..errors import GulfClimateError
from .geo import GeoPoint
from .records import CanonicalSeries, RecordValidationError, timestamp_column, value_column
from .timeutil import parse_utc

HEADER = ("timestamp", "variable", "value", "unit", "lat", "lon", "city", "source")
HEADER_LINE = ",".join(HEADER) + "\n"


class SinkFailure(GulfClimateError, OSError):
    """Writing to a CSV sink failed."""


class CsvSchemaError(GulfClimateError, ValueError):
    """Input does not match the canonical CSV schema."""


_NEEDS_QUOTES = re.compile('[,"\n\r]')


def _field(text: str) -> str:
    """``text`` as one CSV field, quoted only if it needs to be."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def format_row(fields: Iterable) -> str:
    """One LF-terminated CSV line: ``None`` is an empty field, any other
    value its ``str``, quoted by the rule above."""
    return ",".join(_field("" if f is None else str(f)) for f in fields) + "\n"


def write_canonical_csv(series: CanonicalSeries, sink: IO[str]) -> int:
    """Write ``series`` to the text stream ``sink`` and return the number of
    data rows.

    The fields every row shares are formatted and quoted once; each row is
    one f-string of the instant's text (:attr:`CanonicalSeries.timestamp_text`),
    those fields and ``repr`` of the value (an empty field for NaN).
    """
    try:
        if not len(series):
            sink.write(HEADER_LINE)
            return 0
        variable = _field(series.variable)
        rest = ",".join(map(_field, (series.unit, repr(series.location.lat),
                                     repr(series.location.lon), series.city or "",
                                     series.source)))
        sink.write(HEADER_LINE + "".join([
            f"{ts},{variable},{v!r},{rest}\n" if v == v else f"{ts},{variable},,{rest}\n"
            for ts, v in zip(series.timestamp_text, series.values.tolist())
        ]))
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
        header = next(reader, None)
        if header is None:
            raise CsvSchemaError("empty input, header row required")
        if tuple(header) != HEADER:
            raise CsvSchemaError(f"unexpected header: {header}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(HEADER):
                raise CsvSchemaError(f"row {lineno}: expected {len(HEADER)} fields, got {len(row)}")
            rows.append(row)
    except csv.Error as exc:
        raise CsvSchemaError(f"line {reader.line_num}: {exc}") from None
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
