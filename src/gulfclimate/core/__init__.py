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
    CanonicalRecord,
    CanonicalSeries,
    Provenance,
    RecordValidationError,
    modal_cadence_seconds,
)
from .stats import summary_stats
from .timeutil import UTC, UnparseableTimestamp, format_timestamp, normalize_timestamp, parse_utc
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
    "CanonicalRecord",
    "CanonicalSeries",
    "CsvSchemaError",
    "GeoPoint",
    "GeoValidationError",
    "GridSpec",
    "Provenance",
    "RecordValidationError",
    "SinkFailure",
    "UTC",
    "UnitTable",
    "UnknownUnit",
    "UnknownVariable",
    "UnparseableTimestamp",
    "default_table",
    "format_timestamp",
    "modal_cadence_seconds",
    "normalize_timestamp",
    "normalize_unit",
    "parse_utc",
    "read_canonical_csv",
    "series_from_csv",
    "series_to_csv",
    "set_default_table",
    "summary_stats",
    "write_canonical_csv",
]
