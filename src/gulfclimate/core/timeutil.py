"""UTC instants: parsing and formatting ISO-8601 timestamps.

A naive (zone-less) datetime or ISO string is read as UTC: the program's
inputs carry either an explicit offset or UTC.
"""

from __future__ import annotations

from datetime import date, datetime, timezone

import numpy as np

from ..errors import GulfClimateError

UTC = timezone.utc

# numpy zero-pads a year below 1000 to four digits; strftime does not.
_FIRST_FOUR_DIGIT_YEAR = np.datetime64("1000-01-01T00:00:00", "s")


class UnparseableTimestamp(GulfClimateError, ValueError):
    """Input not recognized as an ISO-8601 date or datetime."""


def midnight_utc(day: date) -> datetime:
    """The instant 00:00:00 UTC of ``day``."""
    return datetime(day.year, day.month, day.day, tzinfo=UTC)


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
    """Parse an ISO-8601 date or datetime into a UTC instant.

    A ``Z`` suffix or an offset is converted, a naive datetime is read as UTC
    and a date alone is its midnight; anything else :meth:`datetime.fromisoformat`
    rejects raises :class:`UnparseableTimestamp`."""
    try:
        dt = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    except ValueError as exc:
        raise UnparseableTimestamp(text) from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=UTC)
    return dt.astimezone(UTC)
