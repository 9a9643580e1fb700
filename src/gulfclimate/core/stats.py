"""Summary statistics of a canonical series, shared by range analysis and charts."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .records import CanonicalSeries, elapsed_seconds


class SummaryStats(NamedTuple):
    count: int
    vmin: float
    vmax: float
    mean: float
    std: float
    slope_per_day: float


def summary_stats(present: CanonicalSeries) -> SummaryStats:
    """Statistics of a non-empty series with no missing values.

    Pass ``series.present()``: the values are not filtered again. ``std`` is
    the population std (ddof=0); ``slope_per_day`` is the least-squares slope
    against days since the first timestamp, 0 for a single instant.
    """
    values = present.values
    days = elapsed_seconds(present.timestamps) / 86400.0
    mean = float(values.mean())
    if values.size >= 2 and float(np.ptp(days)) > 0.0:
        centered = days - days.mean()
        slope = float(np.dot(centered, values - mean) / np.dot(centered, centered))
    else:
        slope = 0.0
    return SummaryStats(int(values.size), float(values.min()), float(values.max()),
                        mean, float(values.std()), slope)
