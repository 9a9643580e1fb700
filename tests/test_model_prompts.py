"""Every message list step mode and e2e mode send the model, pinned.

Step mode exists to show the model what an e2e run would show, so both
modes' prompts are recorded here on two cases and compared with
``tests/data/model_prompts_golden.json``:

- ``chained``: ``get_satellite_image``, then ``calculate_ndvi`` on ``obs_1``,
  then (step mode only) a gold step whose output is unavailable;
- ``cut``: an ``aqi_inquiry`` observation cut at a small byte cap that falls
  inside the two-byte ``µ``.

To re-record after an intended prompt change, run
``PYTHONPATH=src python tests/test_model_prompts.py`` and name the cause in
CHANGES.md.
"""

import json
from pathlib import Path
from unittest import mock

from gulfclimate.agent import serialization
from gulfclimate.agent.backend import ScriptedBackend
from gulfclimate.evalharness.runner import run_e2e_mode, run_step_mode
from gulfclimate.evalharness.model import BenchmarkInstance, GoldStep
from gulfclimate.toolkit.grammar import serialize_call
from gulfclimate.toolkit.types import ToolCall
from gulfclimate.tools.providers import ProviderConfig
from gulfclimate.tools.suite import build_registry

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "model_prompts_golden.json"
# Byte 112 of the aqi_inquiry line is the second byte of "µ" in "µg/m³".
CUT_CAP = 112

IMAGE = GoldStep("get_satellite_image", frozenset({"lat", "lon", "date"}),
                 {"lat": 25.29, "lon": 51.53, "date": "2020-01-15"})
NDVI = GoldStep("calculate_ndvi", frozenset({"image"}), {"image": "obs_1"})
AQI = GoldStep("aqi_inquiry", frozenset({"lat", "lon", "date"}),
               {"lat": 29.3759, "lon": 47.9774, "date": "2023-04-15"})

CASES = {
    "chained": (
        BenchmarkInstance(id="doha-ndvi", query="How green was Doha in January 2020?",
                          allowed_tools=("get_satellite_image", "calculate_ndvi"),
                          gold_trace=(IMAGE, NDVI, GoldStep("calculate_ndvi",
                                                            frozenset({"image"})))),
        (IMAGE, NDVI),
        "Mean NDVI was high in Doha [step 2].",
    ),
    "cut": (
        BenchmarkInstance(id="kuwait-aqi", query="What was the AQI in Kuwait City on 2023-04-15?",
                          allowed_tools=("aqi_inquiry",), gold_trace=(AQI,)),
        (AQI,),
        "The AQI was 134 [step 1].",
    ),
}


class MessageLog:
    """A scripted backend that keeps a copy of every message list it gets."""

    def __init__(self, emissions):
        self.inner = ScriptedBackend(emissions)
        self.calls = []

    def complete(self, messages):
        self.calls.append([dict(m) for m in messages])
        return self.inner.complete(messages)


def _call(step: GoldStep) -> str:
    return serialize_call(ToolCall(step.tool, step.arg_values or {"image": "obs_2"}))


def record() -> dict:
    """Each case's message lists, per mode, in the order the backend got them."""
    registry = build_registry(ProviderConfig(kind="fixture", fixture_root=ROOT / "fixtures"))
    recorded = {}
    for name, (instance, e2e_steps, final) in CASES.items():
        step = MessageLog([text for gold in instance.gold_trace
                           for text in (_call(gold), f"Ran {gold.tool}.")])
        e2e = MessageLog([_call(gold) for gold in e2e_steps] + [final])
        cap = CUT_CAP if name == "cut" else serialization.OBSERVATION_BYTE_CAP
        with mock.patch.object(serialization, "OBSERVATION_BYTE_CAP", cap):
            step_report = run_step_mode([instance], lambda _instance: step, registry)
            e2e_report = run_e2e_mode([instance], lambda _instance: e2e, registry)
        assert step_report.instance_rows == [] and e2e_report.instance_rows[0].failure is None
        assert step.inner.remaining == e2e.inner.remaining == 0
        recorded[name] = {"step": step.calls, "e2e": e2e.calls}
    return recorded


def test_step_and_e2e_prompts_are_byte_identical_to_the_recorded_ones():
    recorded = record()
    assert recorded == json.loads(GOLDEN.read_text(encoding="utf-8"))
    # The cut drops the partial "µ" and everything after it.
    cut = recorded["cut"]["e2e"][-1][-1]["content"]
    assert cut.endswith('"pollutant_unit": " …[truncated 194 bytes]')
    gold_ndvi = recorded["chained"]["step"][-3][-2]["content"]
    assert "\nobservation[obs_2] {" in gold_ndvi and '"index_name": "ndvi"' in gold_ndvi
    assert recorded["chained"]["step"][-1][-2]["content"] == \
        "observation[obs_3] (gold output unavailable)"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
