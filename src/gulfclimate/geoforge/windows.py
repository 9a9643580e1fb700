"""Fixed-length window segmentation with completeness filtering."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from ..core.records import CanonicalSeries, to_datetime64, to_datetimes
from ..errors import GulfClimateError

DEFAULT_DELTA_DAYS = 90
DEFAULT_RHO = 0.8
TRAILING_SPAN_DAYS = 3650  # ten years


class WindowingError(GulfClimateError, ValueError):
    pass


@dataclass(frozen=True)
class WindowSpec:
    """One window ``[start, end)`` of a segmented series."""

    index: int
    start: datetime
    end: datetime
    completeness: float


def segment_windows(series: CanonicalSeries, delta_days: int = DEFAULT_DELTA_DAYS,
                    rho: float = DEFAULT_RHO) -> list[WindowSpec]:
    """Segment a series into consecutive non-overlapping windows.

    The anchor is the first timestamp inside the trailing ten-year span that
    ends at the last timestamp. Windows are ``[anchor + t*delta, anchor +
    (t+1)*delta)``; a trailing remainder shorter than ``delta`` is discarded.
    Completeness is observed non-missing timesteps over the count expected at
    the series cadence (the modal gap between timestamps); windows below
    ``rho`` are dropped.
    """
    if len(series) == 0:
        raise WindowingError("series is empty")
    if not 0.0 < rho <= 1.0:
        raise WindowingError(f"rho must be in (0, 1]: {rho}")
    if delta_days <= 0:
        raise WindowingError(f"delta_days must be positive: {delta_days}")

    timestamps = series.timestamps
    last = timestamps[-1]
    horizon_start = last - np.timedelta64(TRAILING_SPAN_DAYS, "D")
    anchor = timestamps[np.searchsorted(timestamps, horizon_start)]
    cadence = _cadence(timestamps)
    delta = np.timedelta64(delta_days, "D")
    expected = int(delta / cadence)
    if expected <= 0:  # cadence coarser than a window: nothing can be complete
        return []
    # Window t is [anchor + t*delta, anchor + (t+1)*delta); it is scanned
    # while its end is at most one cadence past the last timestamp.
    starts = anchor + np.arange((last + cadence - anchor) // delta) * delta
    lo = np.searchsorted(timestamps, starts)
    hi = np.searchsorted(timestamps, starts + delta)
    # present_before[k]: non-missing values among values[:k].
    present_before = np.append(0, np.cumsum(~np.isnan(series.values)))
    completeness = np.minimum(1.0, (present_before[hi] - present_before[lo]) / expected)
    kept = np.flatnonzero(completeness >= rho)
    return [
        WindowSpec(index=t, start=start, end=end, completeness=c)
        for t, start, end, c in zip(kept.tolist(), to_datetimes(starts[kept]),
                                    to_datetimes(starts[kept] + delta),
                                    completeness[kept].tolist())
    ]


def _cadence(timestamps: np.ndarray) -> np.timedelta64:
    """The most common gap between timestamps (the smallest of equally
    common ones), or one day for a single timestamp."""
    if len(timestamps) < 2:
        return np.timedelta64(1, "D")
    gaps, counts = np.unique(np.diff(timestamps), return_counts=True)
    return gaps[np.argmax(counts)]


def window_slice(series: CanonicalSeries, window: WindowSpec) -> CanonicalSeries:
    """The rows of ``series`` falling inside ``window`` (missing included)."""
    lo, hi = np.searchsorted(series.timestamps,
                             [to_datetime64(window.start), to_datetime64(window.end)])
    return series.select(slice(lo, hi))
