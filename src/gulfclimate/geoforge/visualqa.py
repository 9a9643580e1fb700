"""Visual-temporal QA over chart windows.

Anomaly and imputation items are generated deterministically from the chart
data (no backend): a seeded spike injection or span mask produces a perturbed
chart whose gold answer is known by construction. Forecasting and reasoning
items come from the backend conditioned on chart metadata. Every category's
items are built and structurally validated as textual QA items are.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from ..core.records import CanonicalSeries
from ..errors import GulfClimateError
from ..textforge.chunking import Chunk
from ..textforge.facts import AtomicFact
from ..textforge.qa import QAItem, decode_qa_emission, qa_items, validate_items
from .charts import ChartArtifact, chart_for_series, metadata_to_jsonable

CATEGORIES = ("anomaly", "forecasting", "imputation", "reasoning")
BACKEND_CATEGORIES = ("forecasting", "reasoning")

SPIKE_SIGMA = 5.0
MASK_FRACTION = 0.1


class VisualQAError(GulfClimateError, ValueError):
    pass


@dataclass(frozen=True)
class SpikeInjection:
    timestamp: str  # ISO day
    direction: str  # "upward" | "downward"


@dataclass(frozen=True)
class SpanMask:
    start: str
    end: str  # inclusive ISO days
    true_mean: float
    tolerance: float


def inject_spike(series: CanonicalSeries, seed: int) -> tuple[CanonicalSeries, SpikeInjection]:
    """Copy the series with one synthetic spike of ``SPIKE_SIGMA`` standard
    deviations.

    The injection point and direction are drawn from a seeded RNG over the
    interior points; a zero-variance series falls back to a unit magnitude so
    the spike is still visible.
    """
    rows = np.flatnonzero(~np.isnan(series.values))
    if len(rows) < 3:
        raise VisualQAError("need at least 3 valid points to inject a spike")
    rng = random.Random(seed)
    target = rng.randrange(1, len(rows) - 1)
    direction = rng.choice(["upward", "downward"])
    present = series.values[rows]
    sigma = float(present.std())
    magnitude = SPIKE_SIGMA * sigma if sigma > 0 else max(1.0, abs(float(present.mean())) * 0.1)
    delta = magnitude if direction == "upward" else -magnitude

    values = series.values.copy()
    values[rows[target]] += delta
    injection = SpikeInjection(timestamp=_day(series, rows[target]), direction=direction)
    return series.with_values(values), injection


def mask_span(series: CanonicalSeries, seed: int) -> tuple[CanonicalSeries, SpanMask]:
    """Copy the series with a contiguous span of ``MASK_FRACTION`` of its
    present values made missing.

    The gold answer is the true mean over the masked values; the matching
    tolerance is the std of the surrounding (unmasked) values.
    """
    rows = np.flatnonzero(~np.isnan(series.values))
    length = max(1, int(round(len(rows) * MASK_FRACTION)))
    if len(rows) <= length + 2:
        raise VisualQAError("series too short to mask a span")
    rng = random.Random(seed)
    start = rng.randrange(1, len(rows) - length)
    masked = rows[start:start + length]
    present = series.values[rows]
    true_mean = float(np.mean(present[start:start + length]))
    surrounding = np.concatenate((present[:start], present[start + length:]))
    tolerance = max(float(np.std(surrounding)), 1e-9)

    values = series.values.copy()
    values[masked] = np.nan
    span = SpanMask(start=_day(series, masked[0]), end=_day(series, masked[-1]),
                    true_mean=true_mean, tolerance=tolerance)
    return series.with_values(values), span


def _day(series: CanonicalSeries, row: int) -> str:
    """The ISO day of one row."""
    return series.timestamp_text[row][:10]


def _chart_fact(chart: ChartArtifact) -> AtomicFact:
    """The one evidence fact of a chart; its chunk stands for the chart and
    carries no tokens."""
    meta = chart.metadata
    statement = (f"The chart {chart.chart_id} shows {meta.variable} for "
                 f"{meta.city or 'the selected location'} with mean "
                 f"{meta.mean:.6g} {meta.unit}.")
    return AtomicFact(statement=statement,
                      chunk=Chunk(doc_id=f"chart:{chart.chart_id}", start=0, tokens=(),
                                  provenance=chart.provenance))


def _date_options(series: CanonicalSeries, gold: str, rng: random.Random,
                  n_options: int = 4) -> list[str]:
    present = (~np.isnan(series.values)).tolist()
    days = sorted({ts[:10] for ts in compress(series.timestamp_text, present)})
    distractors = [d for d in days if d != gold]
    rng.shuffle(distractors)
    options = [gold] + distractors[:n_options - 1]
    rng.shuffle(options)
    return options


def check_categories(categories: Sequence[str], backend=None) -> None:
    """Reject an unknown category, a backend category without a backend, or a
    repeated one (its items would be written twice under the same ids)."""
    for category in categories:
        if category not in CATEGORIES:
            raise VisualQAError(f"unknown category {category!r}")
        if category in BACKEND_CATEGORIES and backend is None:
            raise VisualQAError(f"category {category!r} requires a backend")
    if len(set(categories)) != len(categories):
        raise VisualQAError(f"repeated categories in {list(categories)}")


def synthesize_visual_qa(artifact: ChartArtifact, category: str,
                         formats: Sequence[str], backend=None, *,
                         series: CanonicalSeries, seed: int = 0,
                         counters: Counter | None = None
                         ) -> tuple[list[QAItem], ChartArtifact, AtomicFact]:
    """Generate QA items for one chart window, format by format.

    Returns ``(items, chart, fact)``: every item refers to ``chart`` and
    cites ``fact`` alone.
    ``anomaly`` and ``imputation`` run deterministically (seeded) with gold
    answers known by construction: the window is perturbed and charted once,
    that perturbed chart is ``chart``, and each format's one entry draws from
    a fresh ``random.Random(seed + 1)``; imputation items carry the span's
    ``answer_tolerance``. ``forecasting`` and ``reasoning`` make one backend
    call per format, in order, and ``chart`` is ``artifact``; the emissions
    are decoded only after the last call, so a malformed one raises
    ``QASynthesisError`` with every emission of the window consumed and
    nothing returned or counted. Every category's entries become items by
    ``qa_items`` and pass ``validate_items``, which counts each dropped item
    in ``counters`` as ``dropped_<reason>``. ``series`` is the window slice
    the artifact was charted from.
    """
    check_categories((category,), backend)
    if category in BACKEND_CATEGORIES:
        chart, tolerance = artifact, None
        metadata = json.dumps(metadata_to_jsonable(artifact.metadata), sort_keys=True)
        prompts = [f"Write {fmt} questions of category '{category}' about this chart. "
                   f"Chart metadata: {metadata}\n"
                   f"Reply with a JSON array in the documented shape." for fmt in formats]
        emissions = [backend.complete([{"role": "user", "content": prompt}])
                     for prompt in prompts]
        entries = [decode_qa_emission(emission) for emission in emissions]
    else:
        chart, tolerance, entries = _perturbed_entries(artifact, series, category, formats, seed)
    fact = _chart_fact(chart)
    candidates = [item for fmt, batch in zip(formats, entries)
                  for item in qa_items(batch, fmt, (fact.fact_id,), "visual",
                                       chart_ref=chart.chart_id, answer_tolerance=tolerance)]
    return validate_items(candidates, counters=counters), chart, fact


def _perturbed_entries(artifact, base_series, category, formats, seed):
    """Perturb and chart the window once; return that chart, the answer
    tolerance of its items and, per format, its one entry."""
    perturb, make_entry = ((inject_spike, _anomaly_entry) if category == "anomaly"
                           else (mask_span, _imputation_entry))
    perturbed, truth = perturb(base_series, seed=seed)
    chart = chart_for_series(perturbed, chart_id=f"{artifact.chart_id}_{category}_s{seed}",
                             provenance=artifact.provenance)
    tolerance = truth.tolerance if isinstance(truth, SpanMask) else None
    entries = [[make_entry(artifact, perturbed, truth, fmt, random.Random(seed + 1))]
               for fmt in formats]
    return chart, tolerance, entries


def _anomaly_entry(artifact, perturbed, injection, fmt, rng):
    gold = injection.timestamp
    question = (f"The chart shows {artifact.metadata.variable} for "
                f"{artifact.metadata.city or 'the selected location'}. On which date does "
                f"the series show an abnormal {injection.direction} spike?")
    if fmt == "mcq":
        return {"question": question, "answer": gold,
                "options": _date_options(perturbed, gold, rng)}
    if fmt == "open":
        return {"question": question, "answer": gold}
    # A window whose values all fall on one day has no other date to contradict with.
    distractor = next((d for d in _date_options(perturbed, gold, rng, n_options=2)
                       if d != gold), None)
    stem = f"The series shows an abnormal {injection.direction} spike on {{}}."
    return {"entailed": stem.format(gold),
            "contradicted": stem.format(distractor) if distractor else ""}


def _imputation_entry(artifact, perturbed, span, fmt, rng):
    gold = repr(span.true_mean)
    variable, unit = artifact.metadata.variable, artifact.metadata.unit
    question = (f"The chart is missing values between {span.start} and {span.end}. "
                f"Based on the surrounding data, estimate the mean "
                f"{variable} ({unit}) over the missing segment.")
    if fmt == "mcq":
        spread = max(4.0 * span.tolerance, 1.0, abs(span.true_mean) * 0.05)
        options = [gold] + [repr(span.true_mean + spread * o) for o in (1.0, -1.0, 2.0)]
        rng.shuffle(options)
        return {"question": question, "answer": gold, "options": options}
    if fmt == "open":
        return {"question": question, "answer": gold}
    claim = f"The mean {variable} over the missing segment is approximately {{:.6g}} {unit}."
    return {"entailed": claim.format(span.true_mean),
            "contradicted": claim.format(span.true_mean + max(10 * span.tolerance, 5.0))}
