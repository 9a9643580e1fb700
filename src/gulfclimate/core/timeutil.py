"""Timestamp normalization to UTC instants.

A naive (zone-less) datetime or ISO string is read as UTC: the program's
inputs carry either an explicit offset or UTC.
"""

from __future__ import annotations

import re
from datetime import date, datetime, timezone

import numpy as np

from ..errors import GulfClimateError

UTC = timezone.utc

_EPOCH_RE = re.compile(r"^[+-]?\d{9,12}(\.\d+)?$")
_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
# numpy zero-pads a year below 1000 to four digits; strftime does not.
_FIRST_FOUR_DIGIT_YEAR = np.datetime64("1000-01-01T00:00:00", "s")


class UnparseableTimestamp(GulfClimateError, ValueError):
    """Input not recognized as any accepted timestamp encoding."""


def normalize_timestamp(raw: str | int | float | datetime | date) -> datetime:
    """Normalize a raw timestamp into a timezone-aware UTC instant.

    Accepted encodings: ISO-8601 datetimes (naive ones are read as UTC),
    epoch seconds, and date-only strings. Date-only inputs map to 00:00:00
    UTC of that date.
    """
    if isinstance(raw, datetime):
        if raw.tzinfo is None:
            raw = raw.replace(tzinfo=UTC)
        return raw.astimezone(UTC)
    if isinstance(raw, date):
        return datetime(raw.year, raw.month, raw.day, tzinfo=UTC)
    if isinstance(raw, (int, float)):
        return datetime.fromtimestamp(float(raw), tz=UTC)
    if isinstance(raw, str):
        text = raw.strip()
        if _EPOCH_RE.match(text):
            return datetime.fromtimestamp(float(text), tz=UTC)
        if _DATE_RE.match(text):
            try:
                d = date.fromisoformat(text)
            except ValueError as exc:
                raise UnparseableTimestamp(raw) from exc
            return datetime(d.year, d.month, d.day, tzinfo=UTC)
        try:
            dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
        except ValueError as exc:
            raise UnparseableTimestamp(raw) from exc
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=UTC)
        return dt.astimezone(UTC)
    raise UnparseableTimestamp(repr(raw))


def format_timestamp(dt: datetime) -> str:
    """Render a UTC instant as ISO-8601 with a ``Z`` suffix."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=UTC)
    dt = dt.astimezone(UTC)
    if dt.microsecond:
        return dt.strftime("%Y-%m-%dT%H:%M:%S.%f").rstrip("0") + "Z"
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def format_timestamps(column: np.ndarray) -> list[str]:
    """:func:`format_timestamp` of each instant of a ``datetime64`` column.

    Whole seconds from the year 1000 on, the common case, are formatted in
    one vectorized call.
    """
    seconds = column.astype("datetime64[s]")
    if np.array_equal(seconds, column) and (seconds >= _FIRST_FOUR_DIGIT_YEAR).all():
        return [text + "Z" for text in np.datetime_as_string(seconds).tolist()]
    return [format_timestamp(ts.replace(tzinfo=UTC))
            for ts in column.astype("datetime64[us]").tolist()]


def parse_utc(text: str) -> datetime:
    """Parse an ISO-8601 UTC instant as written by :func:`format_timestamp`."""
    return normalize_timestamp(text)
