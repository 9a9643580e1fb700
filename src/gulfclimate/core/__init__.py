"""Shared domain types: coordinates, canonical units/time, the universal CSV."""

from .csvio import (
    HEADER as CSV_HEADER,
    CsvSchemaError,
    SinkFailure,
    read_canonical_csv,
    series_from_csv,
    series_to_csv,
    write_canonical_csv,
)
from .geo import GeoPoint, GeoValidationError, GridSpec
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
from .timeutil import (
    UTC,
    UnparseableTimestamp,
    format_timestamp,
    format_timestamps,
    normalize_timestamp,
    parse_utc,
)
from .units import (
    UnitTable,
    UnknownUnit,
    UnknownVariable,
    default_table,
    normalize_unit,
    set_default_table,
)

__all__ = [
    "CSV_HEADER",
    "CanonicalSeries",
    "CsvSchemaError",
    "GeoPoint",
    "GeoValidationError",
    "GridSpec",
    "Provenance",
    "RecordValidationError",
    "SinkFailure",
    "TIMESTAMP_DTYPE",
    "UTC",
    "UnitTable",
    "UnknownUnit",
    "UnknownVariable",
    "UnparseableTimestamp",
    "default_table",
    "elapsed_seconds",
    "format_timestamp",
    "format_timestamps",
    "normalize_timestamp",
    "normalize_unit",
    "parse_utc",
    "read_canonical_csv",
    "series_from_csv",
    "series_to_csv",
    "set_default_table",
    "summary_stats",
    "timestamp_column",
    "to_datetime64",
    "to_datetimes",
    "value_column",
    "write_canonical_csv",
]
