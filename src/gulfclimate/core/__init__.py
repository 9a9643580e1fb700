"""Shared domain types: coordinates, canonical units/time, the universal CSV."""

from .csvio import (
    HEADER as CSV_HEADER,
    read_canonical_csv,
    series_from_csv,
    series_to_csv,
    write_canonical_csv,
)
from .geo import GeoPoint, GridSpec
from .records import (
    TIMESTAMP_DTYPE,
    CanonicalSeries,
    Provenance,
    RecordValidationError,
    elapsed_seconds,
    timestamp_column,
    to_datetime64,
    to_datetimes,
    value_column,
)
from .stats import summary_stats
from .timeutil import UTC, format_timestamp, format_timestamps, normalize_timestamp, parse_utc
from .units import UnknownVariable, default_table

__all__ = [
    "CSV_HEADER",
    "CanonicalSeries",
    "GeoPoint",
    "GridSpec",
    "Provenance",
    "RecordValidationError",
    "TIMESTAMP_DTYPE",
    "UTC",
    "UnknownVariable",
    "default_table",
    "elapsed_seconds",
    "format_timestamp",
    "format_timestamps",
    "normalize_timestamp",
    "parse_utc",
    "read_canonical_csv",
    "series_from_csv",
    "series_to_csv",
    "summary_stats",
    "timestamp_column",
    "to_datetime64",
    "to_datetimes",
    "value_column",
    "write_canonical_csv",
]
