"""Deterministic vector charts with recomputable metadata.

The renderer emits plain SVG with a fixed canvas, fixed fonts, and fixed
float formatting, so identical inputs produce byte-identical files. Each
chart carries its data slice as canonical CSV; the stored summary statistics
must match recomputation from that CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from ..core.records import CanonicalSeries, Provenance, elapsed_seconds, to_datetime64, to_datetimes
from ..core.stats import summary_stats
from ..core.timeutil import format_timestamp
from ..core.csvio import series_from_csv, series_to_csv
from ..errors import GulfClimateError
from .windows import WindowSpec

CANVAS_W = 800
CANVAS_H = 400
MARGIN_L = 70
MARGIN_R = 20
MARGIN_T = 40
MARGIN_B = 50

METADATA_STAT_TOL = 1e-9


class EmptySlice(GulfClimateError, ValueError):
    """No usable values in the requested window."""


@dataclass(frozen=True)
class ChartMetadata:
    city: str
    variable: str
    unit: str
    span_start: datetime
    span_end: datetime
    count: int
    vmin: float
    vmax: float
    mean: float
    std: float
    slope_per_day: float


@dataclass(frozen=True)
class ChartArtifact:
    chart_id: str
    svg: str
    metadata: ChartMetadata
    data_csv: str
    provenance: Provenance

    def verify_metadata(self) -> bool:
        """Recompute the statistics from the stored CSV and compare."""
        present = series_from_csv(self.data_csv).present()
        if len(present) == 0:
            raise EmptySlice("no valid values to chart")
        recomputed = summary_stats(present)
        stored = (self.metadata.count, self.metadata.vmin, self.metadata.vmax,
                  self.metadata.mean, self.metadata.std, self.metadata.slope_per_day)
        if recomputed[0] != stored[0]:
            return False
        return all(abs(r - s) <= METADATA_STAT_TOL * max(1.0, abs(s))
                   for r, s in zip(recomputed[1:], stored[1:]))


def _f(x: float) -> str:
    """Fixed float formatting so output bytes are stable."""
    return f"{x:.3f}".rstrip("0").rstrip(".")


def _fmt_value(x: float) -> str:
    return f"{x:.6g}"


def _render_svg(series: CanonicalSeries, present: CanonicalSeries,
                title: str, y_label: str) -> str:
    """``present`` is ``series.present()``: a dot per present value, and a
    polyline per run of two or more present values that no missing value
    interrupts."""
    t0, t1 = present.span()
    seconds = elapsed_seconds(present.timestamps)
    t_span = max(float(seconds[-1]), 1.0)
    vmin = float(present.values.min())
    vmax = float(present.values.max())
    v_span = vmax - vmin
    if v_span == 0.0:
        vmin -= 1.0
        vmax += 1.0
        v_span = 2.0

    plot_w = CANVAS_W - MARGIN_L - MARGIN_R
    plot_h = CANVAS_H - MARGIN_T - MARGIN_B

    def sy(v: float) -> float:
        return MARGIN_T + plot_h * (1.0 - (v - vmin) / v_span)

    xs = [_f(x) for x in (MARGIN_L + plot_w * (seconds / t_span)).tolist()]
    ys = [_f(y) for y in sy(present.values).tolist()]
    points = [f"{x},{y}" for x, y in zip(xs, ys)]
    # A missing value between two present ones ends a run.
    rows = np.flatnonzero(~np.isnan(series.values))
    bounds = [0, *(np.flatnonzero(np.diff(rows) > 1) + 1).tolist(), len(rows)]
    polylines = "\n".join(
        f'  <polyline fill="none" stroke="#1f6f8b" stroke-width="1.5" points="{" ".join(points[a:b])}"/>'
        for a, b in zip(bounds, bounds[1:]) if b - a >= 2
    )
    dots = "\n".join(
        f'  <circle cx="{x}" cy="{y}" r="1.6" fill="#1f6f8b"/>'
        for x, y in zip(xs, ys)
    )

    y_ticks = []
    for frac in (0.0, 0.5, 1.0):
        v = vmin + frac * v_span
        y = sy(v)
        y_ticks.append(
            f'  <line x1="{MARGIN_L - 4}" y1="{_f(y)}" x2="{MARGIN_L}" y2="{_f(y)}" stroke="#333"/>\n'
            f'  <text x="{MARGIN_L - 8}" y="{_f(y + 3)}" font-family="monospace" font-size="10" '
            f'text-anchor="end">{_fmt_value(v)}</text>'
        )
    x_labels = (
        f'  <text x="{MARGIN_L}" y="{CANVAS_H - MARGIN_B + 16}" font-family="monospace" '
        f'font-size="10" text-anchor="start">{format_timestamp(t0)[:10]}</text>\n'
        f'  <text x="{CANVAS_W - MARGIN_R}" y="{CANVAS_H - MARGIN_B + 16}" font-family="monospace" '
        f'font-size="10" text-anchor="end">{format_timestamp(t1)[:10]}</text>'
    )

    return f"""<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_W}" height="{CANVAS_H}" viewBox="0 0 {CANVAS_W} {CANVAS_H}">
  <rect width="{CANVAS_W}" height="{CANVAS_H}" fill="#ffffff"/>
  <text x="{CANVAS_W // 2}" y="22" font-family="monospace" font-size="13" text-anchor="middle">{title}</text>
  <rect x="{MARGIN_L}" y="{MARGIN_T}" width="{CANVAS_W - MARGIN_L - MARGIN_R}" height="{CANVAS_H - MARGIN_T - MARGIN_B}" fill="none" stroke="#999"/>
  <text x="14" y="{CANVAS_H // 2}" font-family="monospace" font-size="11" text-anchor="middle" transform="rotate(-90 14 {CANVAS_H // 2})">{y_label}</text>
{y_ticks[0]}
{y_ticks[1]}
{y_ticks[2]}
{x_labels}
{polylines}
{dots}
</svg>
"""


def build_chart(series_slice: CanonicalSeries, window: WindowSpec,
                city: str, variable: str,
                provenance: Provenance | None = None) -> ChartArtifact:
    """Render one window of a series into a chart artifact.

    Rows outside the window are rejected; missing values render as line
    breaks. Metadata statistics are computed from the slice and the slice is
    stored as canonical CSV alongside the SVG.
    """
    timestamps = series_slice.timestamps
    outside = ((timestamps < to_datetime64(window.start))
               | (timestamps >= to_datetime64(window.end)))
    if outside.any():
        (first,) = to_datetimes(timestamps[outside][:1])
        raise EmptySlice(
            f"record at {first} lies outside window [{window.start}, {window.end})"
        )
    present = series_slice.present()
    if len(present) == 0:
        raise EmptySlice("window slice has no valid values")
    return _build(series_slice, present, city=city, variable=variable,
                  span=(window.start, window.end), provenance=provenance,
                  chart_id=None)


def chart_for_series(series: CanonicalSeries, chart_id: str | None = None,
                     provenance: Provenance | None = None) -> ChartArtifact:
    """Chart an entire series (used for answer-time chart emission)."""
    present = series.present()
    if len(present) == 0:
        raise EmptySlice("series has no valid values")
    span = present.span()
    return _build(series, present, city=series.city or "", variable=series.variable or "",
                  span=span, provenance=provenance, chart_id=chart_id)


def _build(series_slice: CanonicalSeries, present: CanonicalSeries, city: str,
           variable: str, span: tuple[datetime, datetime],
           provenance: Provenance | None, chart_id: str | None) -> ChartArtifact:
    unit = series_slice.unit or ""
    span_text = f"{format_timestamp(span[0])[:10]}..{format_timestamp(span[1])[:10]}"
    title_city = city or "unknown location"
    title = f"{title_city} · {variable} · {span_text}"
    y_label = f"{variable} ({unit})" if unit else variable
    svg = _render_svg(series_slice, present, title=title, y_label=y_label)
    metadata = ChartMetadata(city=city, variable=variable, unit=unit,
                             span_start=span[0], span_end=span[1],
                             **summary_stats(present)._asdict())
    if provenance is None:
        provenance = Provenance(
            retrieved_at=span[1],
            query=f"{city}/{variable}/{span_text}",
            title=title,
            organization=series_slice.source or None,
        )
    if chart_id is None:
        chart_id = f"{title_city}_{variable}_{span_text}".replace(" ", "_").replace("..", "_")
    return ChartArtifact(chart_id=chart_id, svg=svg,
                         metadata=metadata, data_csv=series_to_csv(series_slice),
                         provenance=provenance)


def metadata_to_jsonable(metadata: ChartMetadata) -> dict:
    return {
        "city": metadata.city,
        "variable": metadata.variable,
        "unit": metadata.unit,
        "span": [format_timestamp(metadata.span_start), format_timestamp(metadata.span_end)],
        "count": metadata.count,
        "min": metadata.vmin,
        "max": metadata.vmax,
        "mean": metadata.mean,
        "std": metadata.std,
        "slope_per_day": metadata.slope_per_day,
    }
