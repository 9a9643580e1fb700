"""Date-range analysis over canonical series: stats, trend, flagged points."""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from ..core.records import CanonicalSeries, to_datetimes
from ..core.stats import summary_stats
from .errors import EmptyRange

DEFAULT_Z_THRESHOLD = 3.0
DEFAULT_AQI_EXCEEDANCE = 100.0
DEFAULT_RAIN_EVENT_MM = 10.0

TREND_EPS = 1e-12

FLAGGED_SHOWN = 5  # flagged points a report keeps of each kind


@dataclass(frozen=True)
class FlaggedPoint:
    timestamp: datetime
    value: float
    score: float  # z-score for anomalies; raw value for exceedances/events


@dataclass(frozen=True)
class AnalysisReport:
    """Summary statistics, least-squares trend, and flagged points.

    Each kind of flagged point keeps its total in ``n_anomalies``,
    ``n_exceedances`` or ``n_events`` and at most ``FLAGGED_SHOWN`` points:
    the most extreme ones (largest |z| for anomalies, largest value for
    exceedances and events), the earlier date first among equals, listed in
    time order.
    """

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
    n_anomalies: int = 0
    n_exceedances: int = 0
    n_events: int = 0
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
    ``rain_event_mm``. Of each kind the report keeps the count and the
    ``FLAGGED_SHOWN`` most extreme points, ties going to the earlier date,
    in time order (see :class:`AnalysisReport`).
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
    flagged: dict = {}  # the kinds a range has; the others keep their defaults
    if stats.std > 0.0:
        scores = (values - stats.mean) / stats.std
        flagged["anomalies"], flagged["n_anomalies"] = _flagged(
            present, scores, np.abs(scores), z_threshold)
    if kind == "aqi":
        flagged["exceedances"], flagged["n_exceedances"] = _flagged(
            present, values, values, aqi_exceedance)
    elif kind == "rain":
        flagged["events"], flagged["n_events"] = _flagged(
            present, values, values, rain_event_mm)

    start, end = present.span()
    return AnalysisReport(
        kind=kind,
        variable=present.variable or "",
        unit=present.unit or "",
        start=start,
        end=end,
        **stats._asdict(),
        trend=trend,
        **flagged,
        thresholds={"z": z_threshold, "aqi": aqi_exceedance, "rain_mm": rain_event_mm},
    )


def _flagged(present: CanonicalSeries, scores: np.ndarray, extremity: np.ndarray,
             threshold: float) -> tuple[tuple[FlaggedPoint, ...], int]:
    """The points of ``present`` whose ``extremity`` exceeds ``threshold``:
    the ``FLAGGED_SHOWN`` most extreme (the earlier first among equals) with
    their scores, in time order, and how many there are in all."""
    rows = np.flatnonzero(extremity > threshold)
    count = len(rows)
    if count > FLAGGED_SHOWN:
        kept = np.zeros(count, dtype=bool)
        kept[np.argsort(-extremity[rows], kind="stable")[:FLAGGED_SHOWN]] = True
        rows = rows[kept]  # a mask keeps time order
    points = tuple(
        FlaggedPoint(timestamp=t, value=v, score=s)
        for t, v, s in zip(to_datetimes(present.timestamps[rows]),
                           present.values[rows].tolist(), scores[rows].tolist())
    )
    return points, count
