"""Visual QA built once per (window, category) equals the per-format path,
and the perturbed categories equal a reference kept in this file.

The reference is the anomaly and imputation item builder the package used
before those items went through ``qa_items`` and ``validate_items``: each
format's items constructed by hand, with the same seeded draws.
"""

import json
import random
import re
from collections import Counter
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gulfclimate.agent.backend import ScriptedBackend
from gulfclimate.core.geo import GeoPoint
from gulfclimate.core.records import TIMESTAMP_DTYPE, CanonicalSeries, Provenance, value_column
from gulfclimate.core.timeutil import format_timestamps
from gulfclimate.core.csvio import series_from_csv
from gulfclimate.geoforge.charts import build_chart, chart_for_series
from gulfclimate.geoforge.gridded import GriddedProduct, extract_series
from gulfclimate.geoforge.visualqa import (
    VisualQAError,
    inject_spike,
    mask_span,
    synthesize_visual_qa,
)
from gulfclimate.geoforge.windows import segment_windows, window_slice
from gulfclimate.textforge.chunking import Chunk
from gulfclimate.textforge.facts import AtomicFact
from gulfclimate.textforge.qa import QAItem, QASynthesisError

GRIDDED = Path(__file__).resolve().parent.parent / "fixtures" / "gridded_temperature.txt"
FORMATS = ("mcq", "tf", "open")


@pytest.fixture(scope="module")
def charted_windows():
    product = GriddedProduct.from_file(GRIDDED)
    series = extract_series(product, (1, 1), "temperature", city="Doha")
    charted = []
    for window in segment_windows(series)[:3]:
        window_series = window_slice(series, window)
        charted.append((window.index, window_series,
                        build_chart(window_series, window, "Doha", "temperature",
                                    provenance=product.provenance((1, 1)))))
    return charted


def test_window_slice_equals_its_chart_csv(charted_windows):
    for _index, window_series, artifact in charted_windows:
        assert series_from_csv(artifact.data_csv) == window_series


@pytest.mark.parametrize("category", ["anomaly", "imputation"])
def test_once_per_category_equals_per_format_calls(charted_windows, category):
    per_format = ([], [], [])
    once = ([], [], [])
    for index, window_series, artifact in charted_windows:
        for fmt in FORMATS:
            items, chart, fact = synthesize_visual_qa(
                artifact, category, (fmt,), seed=index, series=window_series)
            per_format[0].extend(items)
            per_format[1].append(chart)
            per_format[2].append(fact)
        items, chart, fact = synthesize_visual_qa(
            artifact, category, FORMATS, seed=index, series=window_series)
        once[0].extend(items)
        once[1].extend([chart] * len(FORMATS))
        once[2].extend([fact] * len(FORMATS))
        assert {item.chart_ref for item in items} == {chart.chart_id}
        assert {item.evidence for item in items} == {(fact.fact_id,)}
        assert chart.chart_id == f"{artifact.chart_id}_{category}_s{index}"
    assert once == per_format
    assert [item.format for item in once[0][:5]] == ["mcq", "tf", "tf", "open", "mcq"]


def _emission(fmt: str, n: int) -> str:
    if fmt == "tf":
        return json.dumps([{"entailed": f"Statement {n} holds.",
                            "contradicted": f"Statement {n} fails."}])
    if fmt == "mcq":
        return json.dumps([{"question": f"Question {n}?", "answer": "a",
                            "options": ["a", "b", "c"]}])
    return json.dumps([{"question": f"Question {n}?", "answer": f"answer {n}"}])


class RecordingBackend(ScriptedBackend):
    def __init__(self, emissions):
        super().__init__(emissions)
        self.prompts = []

    def complete(self, messages):
        self.prompts.append(messages[-1]["content"])
        return super().complete(messages)


@pytest.mark.parametrize("category", ["forecasting", "reasoning"])
def test_backend_category_consumes_one_emission_per_format(charted_windows, category):
    _index, window_series, artifact = charted_windows[0]
    emissions = [_emission(fmt, n) for n, fmt in enumerate(FORMATS)]
    once = RecordingBackend(emissions)
    items, chart, fact = synthesize_visual_qa(artifact, category, FORMATS, once,
                                              series=window_series, counters=Counter())
    assert chart is artifact
    assert {item.evidence for item in items} == {(fact.fact_id,)}
    assert fact.chunk.chunk_id == f"chart:{artifact.chart_id}:0"
    assert once.remaining == 0
    assert [p.split()[1] for p in once.prompts] == list(FORMATS)
    assert [item.question for item in items] == [
        "Question 0?", "Statement 1 holds.", "Statement 1 fails.", "Question 2?"]
    assert {item.chart_ref for item in items} == {artifact.chart_id}

    per_format = RecordingBackend(emissions)
    made = [synthesize_visual_qa(artifact, category, (fmt,), per_format, series=window_series)
            for fmt in FORMATS]
    assert items == [item for batch, _chart, _fact in made for item in batch]
    assert [(c, f) for _items, c, f in made] == [(artifact, fact)] * len(FORMATS)
    assert per_format.prompts == once.prompts


def test_a_malformed_emission_raises_after_every_emission_is_consumed(charted_windows):
    _index, window_series, artifact = charted_windows[0]
    backend = RecordingBackend([_emission("mcq", 0), "not json", _emission("open", 2)])
    with pytest.raises(QASynthesisError):
        synthesize_visual_qa(artifact, "reasoning", FORMATS, backend, series=window_series)
    assert backend.remaining == 0


def test_unknown_category_and_missing_backend_are_rejected(charted_windows):
    _index, window_series, artifact = charted_windows[0]
    with pytest.raises(VisualQAError, match="unknown category"):
        synthesize_visual_qa(artifact, "trend", FORMATS, series=window_series)
    with pytest.raises(VisualQAError, match="requires a backend"):
        synthesize_visual_qa(artifact, "forecasting", FORMATS, series=window_series)


# -- the reference perturbed-item builder ----------------------------------------

def ref_chart_fact(chart):
    meta = chart.metadata
    statement = (f"The chart {chart.chart_id} shows {meta.variable} for "
                 f"{meta.city or 'the selected location'} with mean "
                 f"{meta.mean:.6g} {meta.unit}.")
    return AtomicFact(statement=statement,
                      chunk=Chunk(doc_id=f"chart:{chart.chart_id}", start=0, tokens=(),
                                  provenance=chart.provenance))


def ref_date_options(series, gold, rng, n_options=4):
    days = sorted({ts[:10] for ts in format_timestamps(series.present().timestamps)})
    distractors = [d for d in days if d != gold]
    rng.shuffle(distractors)
    options = [gold] + distractors[:n_options - 1]
    rng.shuffle(options)
    return options


def ref_anomaly_items(artifact, perturbed, injection, fmt, rng, evidence):
    gold = injection.timestamp
    question = (f"The chart shows {artifact.metadata.variable} for "
                f"{artifact.metadata.city or 'the selected location'}. On which date does "
                f"the series show an abnormal {injection.direction} spike?")
    if fmt == "mcq":
        options = ref_date_options(perturbed, gold, rng)
        return [QAItem(format="mcq", question=question, answer=gold,
                       options=tuple(options), evidence=evidence, split="visual")]
    if fmt == "open":
        return [QAItem(format="open", question=question, answer=gold,
                       evidence=evidence, split="visual")]
    wrong = ref_date_options(perturbed, gold, rng, n_options=2)
    distractor = next(d for d in wrong if d != gold)
    stem = f"The series shows an abnormal {injection.direction} spike on {{}}."
    return [
        QAItem(format="tf", question=stem.format(gold), answer="true",
               evidence=evidence, split="visual"),
        QAItem(format="tf", question=stem.format(distractor), answer="false",
               evidence=evidence, split="visual"),
    ]


def ref_imputation_items(artifact, perturbed, span, fmt, rng, evidence):
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
                         f"segment is approximately "
                         f"{span.true_mean + max(10 * span.tolerance, 5.0):.6g} {unit}."),
               answer="false", evidence=evidence, split="visual",
               answer_tolerance=span.tolerance),
    ]


def ref_perturbed_items(artifact, base_series, category, formats, seed):
    perturb, make_items = ((inject_spike, ref_anomaly_items) if category == "anomaly"
                           else (mask_span, ref_imputation_items))
    perturbed, truth = perturb(base_series, seed=seed)
    chart = chart_for_series(perturbed, chart_id=f"{artifact.chart_id}_{category}_s{seed}",
                             provenance=artifact.provenance)
    fact = ref_chart_fact(chart)
    items = [replace(item, chart_ref=chart.chart_id)
             for fmt in formats
             for item in make_items(artifact, perturbed, truth, fmt,
                                    random.Random(seed + 1), (fact.fact_id,))]
    return items, chart, fact


PROVENANCE = Provenance(retrieved_at=datetime(2024, 1, 1, tzinfo=timezone.utc),
                        query="drawn series", title="drawn grid")


def make_series(start, step, values):
    """A temperature series at Doha on ``start`` plus ``step`` per value; a
    ``None`` value is missing."""
    timestamps = (np.datetime64(start) + step * np.arange(len(values))).astype(TIMESTAMP_DTYPE)
    return CanonicalSeries(timestamps, value_column(values), "temperature", "°C",
                           GeoPoint(25.3, 51.5), "Doha", "drawn")


@st.composite
def daily_or_weekly_series(draw):
    step = np.timedelta64(draw(st.sampled_from([1, 7])), "D")
    start = np.datetime64("1990-01-01", "D") + draw(st.integers(0, 15_000))
    value = st.one_of(st.floats(-60, 60, allow_nan=False), st.sampled_from([0.0, 21.5]))
    values = draw(st.lists(st.one_of(st.none(), value), min_size=2, max_size=40)
                  .filter(lambda vs: any(v is not None for v in vs)))
    return make_series(start, step, values)


@settings(max_examples=60, deadline=None)
@given(daily_or_weekly_series(), st.integers(0, 1_000))
def test_perturbed_items_equal_the_reference(series, seed):
    artifact = chart_for_series(series, chart_id="drawn", provenance=PROVENANCE)
    for category in ("anomaly", "imputation"):
        try:
            want = ref_perturbed_items(artifact, series, category, FORMATS, seed)
        except VisualQAError as exc:
            with pytest.raises(VisualQAError, match=re.escape(str(exc))):
                synthesize_visual_qa(artifact, category, FORMATS, series=series, seed=seed)
            continue
        counters = Counter()
        got = synthesize_visual_qa(artifact, category, FORMATS, series=series, seed=seed,
                                   counters=counters)
        assert got == want
        assert counters == Counter()


def test_a_window_on_one_day_gives_one_tf_item_and_drops_its_mcq():
    series = make_series(np.datetime64("2024-01-01T00", "h"), np.timedelta64(6, "h"),
                         [30.0, 31.0, 29.5, 30.5])
    artifact = chart_for_series(series, chart_id="one_day", provenance=PROVENANCE)
    counters = Counter()
    items, chart, _fact = synthesize_visual_qa(artifact, "anomaly", FORMATS,
                                               series=series, counters=counters)
    assert [item.format for item in items] == ["tf", "open"]
    assert items[0].answer == "true"
    assert items[0].question.endswith(" spike on 2024-01-01.")
    assert {item.chart_ref for item in items} == {chart.chart_id}
    assert counters == Counter({"dropped_too_few_options": 1})
