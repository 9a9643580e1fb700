"""Date-range analysis over canonical series: stats, trend, flagged points."""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from ..core import CanonicalSeries, summary_stats, to_datetimes
from .errors import EmptyRange

DEFAULT_Z_THRESHOLD = 3.0
DEFAULT_AQI_EXCEEDANCE = 100.0
DEFAULT_RAIN_EVENT_MM = 10.0

TREND_EPS = 1e-12


@dataclass(frozen=True)
class FlaggedPoint:
    timestamp: datetime
    value: float
    score: float  # z-score for anomalies; raw value for exceedances/events


@dataclass(frozen=True)
class AnalysisReport:
    """Summary statistics, least-squares trend, and flagged points."""

    kind: str  # weather | rain | aqi
    variable: str
    unit: str
    start: datetime
    end: datetime
    count: int
    vmin: float
    vmax: float
    mean: float
    std: float
    slope_per_day: float
    trend: str  # increasing | decreasing | stable
    anomalies: tuple[FlaggedPoint, ...] = ()
    exceedances: tuple[FlaggedPoint, ...] = ()
    events: tuple[FlaggedPoint, ...] = ()
    thresholds: dict = field(default_factory=dict)


def analyze_range(series: CanonicalSeries, kind: str,
                  z_threshold: float = DEFAULT_Z_THRESHOLD,
                  aqi_exceedance: float = DEFAULT_AQI_EXCEEDANCE,
                  rain_event_mm: float = DEFAULT_RAIN_EVENT_MM) -> AnalysisReport:
    """Analyze the valid points of a series over its span.

    Statistics use the population std (ddof=0). The trend slope is the
    least-squares line against days since the first valid point. Anomalies
    are points with |z| > ``z_threshold`` against the range mean/std; a
    zero-std range has no anomalies. ``aqi`` ranges also flag exceedances
    above ``aqi_exceedance``; ``rain`` ranges flag heavy-rain events above
    ``rain_event_mm``.
    """
    present = series.present()
    if len(present) == 0:
        raise EmptyRange("no valid observations in range")
    stats = summary_stats(present)
    if stats.slope_per_day > TREND_EPS:
        trend = "increasing"
    elif stats.slope_per_day < -TREND_EPS:
        trend = "decreasing"
    else:
        trend = "stable"

    values = present.values
    anomalies: tuple[FlaggedPoint, ...] = ()
    if stats.std > 0.0:
        scores = (values - stats.mean) / stats.std
        anomalies = _flagged(present, np.abs(scores) > z_threshold, scores)

    exceedances: tuple[FlaggedPoint, ...] = ()
    events: tuple[FlaggedPoint, ...] = ()
    if kind == "aqi":
        exceedances = _flagged(present, values > aqi_exceedance, values)
    elif kind == "rain":
        events = _flagged(present, values > rain_event_mm, values)

    start, end = present.span()
    return AnalysisReport(
        kind=kind,
        variable=present.variable or "",
        unit=present.unit or "",
        start=start,
        end=end,
        **stats._asdict(),
        trend=trend,
        anomalies=anomalies,
        exceedances=exceedances,
        events=events,
        thresholds={"z": z_threshold, "aqi": aqi_exceedance, "rain_mm": rain_event_mm},
    )


def _flagged(present: CanonicalSeries, mask: np.ndarray,
             scores: np.ndarray) -> tuple[FlaggedPoint, ...]:
    """The points of ``present`` where ``mask`` holds, with their scores."""
    rows = np.flatnonzero(mask)
    return tuple(
        FlaggedPoint(timestamp=t, value=v, score=s)
        for t, v, s in zip(to_datetimes(present.timestamps[rows]),
                           present.values[rows].tolist(), scores[rows].tolist())
    )
