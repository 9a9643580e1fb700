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
    per_format = ([], {}, {})
    once = ([], {}, {})
    for index, window_series, artifact in charted_windows:
        per_format[1][artifact.chart_id] = once[1][artifact.chart_id] = artifact
        for fmt in FORMATS:
            per_format[0].extend(synthesize_visual_qa(
                artifact, category, fmt, seed=index, series=window_series,
                chart_store=per_format[1], evidence_store=per_format[2]))
        once[0].extend(synthesize_visual_qa(
            artifact, category, FORMATS, seed=index, series=window_series,
            chart_store=once[1], evidence_store=once[2]))
    assert once[0] == per_format[0]
    assert [item.format for item in once[0][:5]] == ["mcq", "tf", "tf", "open", "mcq"]
    assert list(once[1].items()) == list(per_format[1].items())
    assert list(once[2].items()) == list(per_format[2].items())


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
    items = synthesize_visual_qa(artifact, category, FORMATS, once,
                                 series=window_series, counters=Counter())
    assert once.remaining == 0
    assert [p.split()[1] for p in once.prompts] == list(FORMATS)
    assert [item.question for item in items] == [
        "Question 0?", "Statement 1 holds.", "Statement 1 fails.", "Question 2?"]
    assert {item.chart_ref for item in items} == {artifact.chart_id}

    per_format = RecordingBackend(emissions)
    expected = [item for fmt in FORMATS
                for item in synthesize_visual_qa(artifact, category, fmt, per_format,
                                                 series=window_series)]
    assert items == expected
    assert per_format.prompts == once.prompts


def test_unknown_category_and_missing_backend_are_rejected(charted_windows):
    _index, window_series, artifact = charted_windows[0]
    with pytest.raises(VisualQAError, match="unknown category"):
        synthesize_visual_qa(artifact, "trend", FORMATS, series=window_series)
    with pytest.raises(VisualQAError, match="requires a backend"):
        synthesize_visual_qa(artifact, "forecasting", FORMATS, series=window_series)
