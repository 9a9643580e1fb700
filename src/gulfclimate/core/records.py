"""Canonical observation series and provenance.

A :class:`CanonicalSeries` is columnar. It holds two arrays of equal length:

- ``timestamps``: ``datetime64[us]`` UTC instants, strictly increasing;
- ``values``: float64 values in the canonical unit of the variable, where NaN
  marks an explicitly missing observation.

``variable``, ``unit``, ``location``, ``city`` and ``source`` are stored once
for the whole series.

The invariants are checked once per series, when it is built: the two columns
have the same length, no timestamp is NaT, the timestamps strictly increase
(``np.diff > 0``), every value is finite or NaN, and ``unit`` is the canonical
unit of ``variable``. A non-empty series must name its variable and location.
Both columns are stored as read-only copies, so a built series stays valid;
a derived series (:meth:`CanonicalSeries.select`,
:meth:`CanonicalSeries.with_values`) is checked again.

:attr:`CanonicalSeries.timestamp_text` is the ISO-8601 text of the instants
(:func:`~.timeutil.format_timestamps`), formatted on first use and kept with
the series. A derived series takes it over instead of formatting its instants
again: :meth:`~CanonicalSeries.with_values` shares it, since the instants are
the same, and :meth:`~CanonicalSeries.select` with a slice slices it. A
series selected by a boolean mask, such as one from
:meth:`~CanonicalSeries.present`, formats its own on first use. The CSV
writer and the visual QA builders read it, so each chart window's instants
are formatted once.

NaN is the only marker of a missing value, so a NaN sent by a source must not
reach a series as if it were one. Producers turn raw source values into a
column with :func:`value_column`: an explicit ``None`` becomes NaN, and a NaN
in the raw values raises :class:`RecordValidationError` (as ±inf does when
the series is built).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from typing import Iterable, Sequence

import numpy as np

from ..errors import GulfClimateError
from .geo import GeoPoint
from .timeutil import UTC, format_timestamps
from .units import default_table

TIMESTAMP_DTYPE = np.dtype("datetime64[us]")


class RecordValidationError(GulfClimateError, ValueError):
    """A series violates the canonical-schema invariants."""


@dataclass(frozen=True)
class Provenance:
    """Where a piece of evidence came from and how it was retrieved."""

    retrieved_at: datetime
    query: str = ""
    url: str | None = None
    title: str | None = None
    organization: str | None = None
    published: str | None = None

    def __post_init__(self) -> None:
        if self.retrieved_at.tzinfo is None:
            object.__setattr__(self, "retrieved_at", self.retrieved_at.replace(tzinfo=UTC))
        if self.url is None and self.title is None:
            raise RecordValidationError("provenance needs at least one of url/title")


def _frozen(data, dtype) -> np.ndarray:
    column = np.array(data, dtype=dtype)
    column.flags.writeable = False
    return column


@dataclass(frozen=True, eq=False)
class CanonicalSeries:
    """A time-ordered column of one variable at one location (see the module
    docstring for the layout and the invariants)."""

    timestamps: np.ndarray = ()
    values: np.ndarray = ()
    variable: str | None = None
    unit: str | None = None
    location: GeoPoint | None = None
    city: str | None = None
    source: str = ""

    def __post_init__(self) -> None:
        timestamps = _frozen(self.timestamps, TIMESTAMP_DTYPE)
        values = _frozen(self.values, np.float64)
        object.__setattr__(self, "timestamps", timestamps)
        object.__setattr__(self, "values", values)
        if timestamps.ndim != 1 or values.shape != timestamps.shape:
            raise RecordValidationError(
                f"columns differ in shape: {timestamps.shape} timestamps, {values.shape} values"
            )
        if np.isnat(timestamps).any():
            raise RecordValidationError("timestamp is NaT")
        steps = np.diff(timestamps)
        if (steps <= np.timedelta64(0)).any():
            k = int(np.argmax(steps <= np.timedelta64(0)))
            a, b = to_datetimes(timestamps[k:k + 2])
            raise RecordValidationError(f"timestamps not strictly increasing at {a} -> {b}")
        if np.isinf(values).any():
            raise RecordValidationError(f"non-finite value: {values[np.isinf(values)][0]}")
        if len(values) and (self.variable is None or self.location is None):
            raise RecordValidationError("a non-empty series needs a variable and a location")
        if self.variable is not None:
            canonical = default_table().canonical_unit(self.variable)
            if self.unit != canonical:
                raise RecordValidationError(
                    f"unit {self.unit!r} is not canonical for {self.variable!r} "
                    f"(expected {canonical!r})"
                )

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CanonicalSeries):
            return NotImplemented
        return ((self.variable, self.unit, self.location, self.city, self.source)
                == (other.variable, other.unit, other.location, other.city, other.source)
                and np.array_equal(self.timestamps, other.timestamps)
                and np.array_equal(self.values, other.values, equal_nan=True))

    @property
    def timestamp_text(self) -> tuple[str, ...]:
        """The ISO-8601 text of each instant, formatted on first use (see
        the module docstring)."""
        # Not functools.cached_property: on Python 3.11 it holds one lock for
        # every instance while it computes. Two threads may both format a
        # series here; they store equal tuples.
        text = self.__dict__.get("_timestamp_text")
        if text is None:
            text = self.__dict__["_timestamp_text"] = tuple(format_timestamps(self.timestamps))
        return text

    def select(self, index: slice | np.ndarray) -> "CanonicalSeries":
        """The rows picked by ``index`` (a slice or a boolean mask),
        with this series' variable, unit, location, city and source."""
        derived = replace(self, timestamps=self.timestamps[index], values=self.values[index])
        text = self.__dict__.get("_timestamp_text")
        if text is not None and isinstance(index, slice):
            derived.__dict__["_timestamp_text"] = text[index]
        return derived

    def with_values(self, values: np.ndarray) -> "CanonicalSeries":
        """This series with another value column of the same length."""
        derived = replace(self, values=values)
        if "_timestamp_text" in self.__dict__:
            derived.__dict__["_timestamp_text"] = self.__dict__["_timestamp_text"]
        return derived

    def present(self) -> "CanonicalSeries":
        """The sub-series with every explicitly missing (NaN) row removed."""
        return self.select(~np.isnan(self.values))

    def span(self) -> tuple[datetime, datetime] | None:
        if not len(self):
            return None
        first, last = to_datetimes(self.timestamps[[0, -1]])
        return (first, last)


def value_column(raw: Sequence[float | None]) -> np.ndarray:
    """A float64 column from raw source values.

    ``None`` becomes NaN, the explicit-missing marker; a NaN among the raw
    values raises :class:`RecordValidationError`, since it would otherwise
    pass for a missing value. (±inf is left to the series check.)
    """
    values = np.array(raw, dtype=np.float64)
    if np.count_nonzero(np.isnan(values)) != list(raw).count(None):
        raise RecordValidationError("non-finite value: nan (only None marks a missing value)")
    return values


def timestamp_column(instants: Iterable[datetime]) -> np.ndarray:
    """A ``datetime64[us]`` column from timezone-aware UTC datetimes."""
    naive = []
    for ts in instants:
        if ts.tzinfo is None or ts.utcoffset() != timedelta(0):
            raise RecordValidationError(f"timestamp must be UTC: {ts!r}")
        naive.append(ts.replace(tzinfo=None))
    return np.array(naive, dtype=TIMESTAMP_DTYPE)


def to_datetime64(instant: datetime) -> np.datetime64:
    """One timezone-aware datetime as a ``datetime64[us]`` UTC instant."""
    return np.datetime64(instant.astimezone(UTC).replace(tzinfo=None), "us")


def to_datetimes(column: np.ndarray) -> list[datetime]:
    """The instants of a ``datetime64`` column as aware UTC datetimes."""
    return [ts.replace(tzinfo=UTC) for ts in column.astype(TIMESTAMP_DTYPE).tolist()]


def elapsed_seconds(timestamps: np.ndarray) -> np.ndarray:
    """Seconds from the first instant to each instant, as float64.

    Each is the microsecond count divided by 1e6, which is what
    ``timedelta.total_seconds()`` returns for spans under 2**53 µs (285 years).
    """
    return (timestamps - timestamps[0]).astype(np.int64) / 1e6
