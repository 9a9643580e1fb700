"""Fixed-length window segmentation with completeness filtering."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import accumulate
from operator import attrgetter

from ..core import CanonicalRecord, CanonicalSeries, modal_cadence_seconds
from ..errors import GulfClimateError

DEFAULT_DELTA_DAYS = 90
DEFAULT_RHO = 0.8
TRAILING_SPAN_DAYS = 3650  # ten years

_timestamp = attrgetter("timestamp")


class WindowingError(GulfClimateError, ValueError):
    pass


@dataclass(frozen=True)
class WindowSpec:
    """One window ``[start, end)`` of a segmented series."""

    index: int
    start: datetime
    end: datetime
    delta_days: int
    completeness: float
    rho: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.completeness <= 1.0:
            raise WindowingError(f"completeness out of range: {self.completeness}")

    def contains(self, ts: datetime) -> bool:
        return self.start <= ts < self.end


def segment_windows(series: CanonicalSeries, delta_days: int = DEFAULT_DELTA_DAYS,
                    rho: float = DEFAULT_RHO) -> list[WindowSpec]:
    """Segment a series into consecutive non-overlapping windows.

    The anchor is the first timestamp inside the trailing ten-year span that
    ends at the last record. Windows are ``[anchor + t*delta, anchor +
    (t+1)*delta)``; a trailing remainder shorter than ``delta`` is discarded.
    Completeness is observed non-missing timesteps over the count expected at
    the series cadence (the modal inter-record gap); windows below ``rho``
    are dropped.
    """
    if len(series) == 0:
        raise WindowingError("series is empty")
    if not 0.0 < rho <= 1.0:
        raise WindowingError(f"rho must be in (0, 1]: {rho}")
    if delta_days <= 0:
        raise WindowingError(f"delta_days must be positive: {delta_days}")

    records = series.records
    last = records[-1].timestamp
    horizon_start = last - timedelta(days=TRAILING_SPAN_DAYS)
    anchor = records[bisect_left(records, horizon_start, key=_timestamp)].timestamp
    cadence = _cadence(series)
    span_end = last + cadence

    delta = timedelta(days=delta_days)
    expected = int(delta / cadence)
    if expected <= 0:  # cadence coarser than a window: nothing can be complete
        return []
    # present_before[k]: non-missing records among records[:k].
    present_before = list(accumulate((not r.missing for r in records), initial=0))
    kept: list[WindowSpec] = []
    t = 0
    while anchor + (t + 1) * delta <= span_end:
        start = anchor + t * delta
        end = start + delta
        lo, hi = _bounds(records, start, end)
        completeness = min(1.0, (present_before[hi] - present_before[lo]) / expected)
        if completeness >= rho:
            kept.append(WindowSpec(index=t, start=start, end=end,
                                   delta_days=delta_days, completeness=completeness,
                                   rho=rho))
        t += 1
    return kept


def _cadence(series: CanonicalSeries) -> timedelta:
    seconds = modal_cadence_seconds(series.timestamps())
    if seconds is None or seconds <= 0:
        return timedelta(days=1)
    return timedelta(seconds=seconds)


def _bounds(records: tuple[CanonicalRecord, ...], start: datetime,
            end: datetime) -> tuple[int, int]:
    """Index range of the records with ``start <= timestamp < end``."""
    lo = bisect_left(records, start, key=_timestamp)
    return lo, bisect_left(records, end, lo=lo, key=_timestamp)


def window_slice(series: CanonicalSeries, window: WindowSpec) -> CanonicalSeries:
    """The records of ``series`` falling inside ``window`` (missing included)."""
    lo, hi = _bounds(series.records, window.start, window.end)
    return CanonicalSeries(series.records[lo:hi])
