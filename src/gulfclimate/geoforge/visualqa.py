"""Visual-temporal QA over chart windows.

Anomaly and imputation items are generated deterministically from the chart
data (no backend): a seeded spike injection or span mask produces a perturbed
chart whose gold answer is known by construction. Forecasting and reasoning
items come from the backend conditioned on chart metadata and pass the same
structural validation as textual QA.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..core import CanonicalSeries, format_timestamps
from ..core.csvio import series_from_csv
from ..errors import GulfClimateError
from ..textforge.chunking import Chunk
from ..textforge.facts import AtomicFact
from ..textforge.qa import QAItem, parse_qa_emission, validate_items
from .charts import ChartArtifact, chart_for_series, metadata_to_jsonable

CATEGORIES = ("anomaly", "forecasting", "imputation", "reasoning")
BACKEND_CATEGORIES = ("forecasting", "reasoning")

SPIKE_SIGMA = 5.0
MASK_FRACTION = 0.1


class VisualQAError(GulfClimateError, ValueError):
    pass


@dataclass(frozen=True)
class SpikeInjection:
    index: int  # position among the present values
    timestamp: str  # ISO day
    direction: str  # "upward" | "downward"
    magnitude: float


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
    injection = SpikeInjection(index=target,
                               timestamp=_day(series, rows[target]),
                               direction=direction, magnitude=magnitude)
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
    return format_timestamps(series.timestamps[row:row + 1])[0][:10]


def _chart_fact(artifact: ChartArtifact) -> tuple[AtomicFact, Chunk]:
    """A synthetic evidence fact whose chunk is the chart metadata text."""
    meta = artifact.metadata
    statement = (f"The chart {artifact.chart_id} shows {meta.variable} for "
                 f"{meta.city or 'the selected location'} with mean "
                 f"{meta.mean:.6g} {meta.unit}.")
    tokens = tuple(json.dumps(metadata_to_jsonable(meta), sort_keys=True).split())
    chunk = Chunk(doc_id=f"chart:{artifact.chart_id}", start=0, tokens=tokens,
                  section_path=(), provenance=artifact.provenance)
    fact = AtomicFact(statement=statement, chunk_ref=chunk.chunk_id,
                      provenance=artifact.provenance)
    return fact, chunk


def _date_options(series: CanonicalSeries, gold: str, rng: random.Random,
                  n_options: int = 4) -> list[str]:
    days = sorted({ts[:10] for ts in format_timestamps(series.present().timestamps)})
    distractors = [d for d in days if d != gold]
    rng.shuffle(distractors)
    options = [gold] + distractors[:n_options - 1]
    rng.shuffle(options)
    return options


def check_categories(categories: Sequence[str], backend=None) -> None:
    """Reject an unknown category, or a backend category without a backend."""
    for category in categories:
        if category not in CATEGORIES:
            raise VisualQAError(f"unknown category {category!r}")
        if category in BACKEND_CATEGORIES and backend is None:
            raise VisualQAError(f"category {category!r} requires a backend")


def synthesize_visual_qa(artifact: ChartArtifact, category: str,
                         formats: str | Sequence[str], backend=None, *, seed: int = 0,
                         series: CanonicalSeries | None = None,
                         chart_store: dict | None = None,
                         counters: Counter | None = None,
                         evidence_store: dict | None = None) -> list[QAItem]:
    """Generate QA items for one chart window, format by format.

    ``formats`` is one format or a sequence of them. ``anomaly`` and
    ``imputation`` run deterministically (seeded) with gold answers known by
    construction: the window is perturbed and charted once, and each format
    draws from a fresh ``random.Random(seed + 1)``. ``forecasting`` and
    ``reasoning`` make one backend call per format, in order, and parse the
    emissions only after the last call, so a malformed one raises
    ``QASynthesisError`` with every emission of the window consumed and
    nothing stored or counted. ``series`` is
    the window slice the artifact was charted from; without it the slice is
    parsed back from ``artifact.data_csv``. New perturbed charts land in
    ``chart_store`` keyed by chart id; evidence facts/chunks land in
    ``evidence_store``.
    """
    check_categories((category,), backend)
    formats = (formats,) if isinstance(formats, str) else tuple(formats)
    if category not in BACKEND_CATEGORIES:
        if series is None:
            series = series_from_csv(artifact.data_csv)
        return _perturbed_items(artifact, series, category, formats, seed,
                                chart_store, evidence_store)

    counters = counters if counters is not None else Counter()
    fact, chunk = _chart_fact(artifact)
    metadata = json.dumps(metadata_to_jsonable(artifact.metadata), sort_keys=True)
    prompts = [f"Write {fmt} questions of category '{category}' about this chart. "
               f"Chart metadata: {metadata}\n"
               f"Reply with a JSON array in the documented shape." for fmt in formats]
    emissions = [backend.complete([{"role": "user", "content": prompt}]) for prompt in prompts]
    parsed = [parse_qa_emission(emission, fmt, evidence=(fact.fact_id,), split="visual")
              for fmt, emission in zip(formats, emissions)]
    _remember(evidence_store, fact, chunk, artifact, chart_store)
    return [replace(item, chart_ref=artifact.chart_id)
            for batch in parsed for item in validate_items(batch, counters=counters)]


def _perturbed_items(artifact, base_series, category, formats, seed, chart_store,
                     evidence_store):
    """Perturb and chart the window once, then build every format's items."""
    perturb, make_items = ((inject_spike, _anomaly_items) if category == "anomaly"
                           else (mask_span, _imputation_items))
    perturbed, truth = perturb(base_series, seed=seed)
    chart = chart_for_series(perturbed, chart_id=f"{artifact.chart_id}_{category}_s{seed}",
                             provenance=artifact.provenance)
    fact, chunk = _chart_fact(chart)
    _remember(evidence_store, fact, chunk, chart, chart_store)
    return [replace(item, chart_ref=chart.chart_id)
            for fmt in formats
            for item in make_items(artifact, perturbed, truth, fmt,
                                   random.Random(seed + 1), (fact.fact_id,))]


def _anomaly_items(artifact, perturbed, injection, fmt, rng, evidence):
    gold = injection.timestamp
    question = (f"The chart shows {artifact.metadata.variable} for "
                f"{artifact.metadata.city or 'the selected location'}. On which date does "
                f"the series show an abnormal {injection.direction} spike?")
    if fmt == "mcq":
        options = _date_options(perturbed, gold, rng)
        return [QAItem(format="mcq", question=question, answer=gold,
                       options=tuple(options), evidence=evidence, split="visual")]
    if fmt == "open":
        return [QAItem(format="open", question=question, answer=gold,
                       evidence=evidence, split="visual")]
    # tf pair: entailed + contradicted
    wrong = _date_options(perturbed, gold, rng, n_options=2)
    distractor = next(d for d in wrong if d != gold)
    stem = f"The series shows an abnormal {injection.direction} spike on {{}}."
    return [
        QAItem(format="tf", question=stem.format(gold), answer="true",
               evidence=evidence, split="visual"),
        QAItem(format="tf", question=stem.format(distractor), answer="false",
               evidence=evidence, split="visual"),
    ]


def _imputation_items(artifact, perturbed, span, fmt, rng, evidence):
    gold = repr(span.true_mean)
    unit = artifact.metadata.unit
    question = (f"The chart is missing values between {span.start} and {span.end}. "
                f"Based on the surrounding data, estimate the mean "
                f"{artifact.metadata.variable} ({unit}) over the missing segment.")
    if fmt == "mcq":
        spread = max(4.0 * span.tolerance, 1.0, abs(span.true_mean) * 0.05)
        distractors = [repr(span.true_mean + spread * o) for o in (1.0, -1.0, 2.0)]
        options = [gold] + distractors
        rng.shuffle(options)
        return [QAItem(format="mcq", question=question, answer=gold,
                       options=tuple(options), evidence=evidence,
                       split="visual", answer_tolerance=span.tolerance)]
    if fmt == "open":
        return [QAItem(format="open", question=question, answer=gold,
                       evidence=evidence, split="visual",
                       answer_tolerance=span.tolerance)]
    return [
        QAItem(format="tf",
               question=(f"The mean {artifact.metadata.variable} over the missing "
                         f"segment is approximately {span.true_mean:.6g} {unit}."),
               answer="true", evidence=evidence, split="visual",
               answer_tolerance=span.tolerance),
        QAItem(format="tf",
               question=(f"The mean {artifact.metadata.variable} over the missing "
                         f"segment is approximately {span.true_mean + max(10 * span.tolerance, 5.0):.6g} {unit}."),
               answer="false", evidence=evidence, split="visual",
               answer_tolerance=span.tolerance),
    ]


def _remember(evidence_store, fact, chunk, chart, chart_store):
    if chart_store is not None:
        chart_store[chart.chart_id] = chart
    if evidence_store is not None:
        evidence_store[fact.fact_id] = (fact, chunk)
