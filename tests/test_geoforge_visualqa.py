"""Visual QA built once per (window, category) equals the per-format path."""

import json
from collections import Counter
from pathlib import Path

import pytest

from gulfclimate.agent import ScriptedBackend
from gulfclimate.core.csvio import series_from_csv
from gulfclimate.geoforge.charts import build_chart
from gulfclimate.geoforge.gridded import GriddedProduct, extract_series
from gulfclimate.geoforge.visualqa import VisualQAError, synthesize_visual_qa
from gulfclimate.geoforge.windows import segment_windows, window_slice
from gulfclimate.textforge.qa import QASynthesisError

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
                artifact, category, fmt, seed=index, series=window_series)
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
    made = [synthesize_visual_qa(artifact, category, fmt, per_format, series=window_series)
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
