"""Date-range analysis over canonical series: stats, trend, flagged points."""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime

from ..core import CanonicalSeries, summary_stats
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
    least-squares line against days since the first valid record. Anomalies
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

    anomalies: list[FlaggedPoint] = []
    if stats.std > 0.0:
        for r in present:
            score = (r.value - stats.mean) / stats.std
            if abs(score) > z_threshold:
                anomalies.append(FlaggedPoint(timestamp=r.timestamp, value=r.value, score=score))

    exceedances: list[FlaggedPoint] = []
    events: list[FlaggedPoint] = []
    if kind == "aqi":
        exceedances = [FlaggedPoint(r.timestamp, r.value, r.value)
                       for r in present if r.value > aqi_exceedance]
    elif kind == "rain":
        events = [FlaggedPoint(r.timestamp, r.value, r.value)
                  for r in present if r.value > rain_event_mm]

    return AnalysisReport(
        kind=kind,
        variable=present.variable or "",
        unit=present.unit or "",
        start=present.records[0].timestamp,
        end=present.records[-1].timestamp,
        **stats._asdict(),
        trend=trend,
        anomalies=tuple(anomalies),
        exceedances=tuple(exceedances),
        events=tuple(events),
        thresholds={"z": z_threshold, "aqi": aqi_exceedance, "rain_mm": rain_event_mm},
    )
