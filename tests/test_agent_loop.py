"""The act-observe-reason loop on the fixture registry with scripted emissions."""

import json
from pathlib import Path

import pytest

from gulfclimate.agent import runner as runner_module
from gulfclimate.agent.backend import ScriptedBackend
from gulfclimate.agent.runner import AgentSettings, run
from gulfclimate.toolkit import FENCE_CLOSE, FENCE_OPEN
from gulfclimate.toolkit import registry as registry_module
from gulfclimate.tools import ProviderConfig, build_registry

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
DOHA = {"lat": 25.2854, "lon": 51.531}


@pytest.fixture(scope="module")
def registry():
    return build_registry(ProviderConfig(kind="fixture", fixture_root=FIXTURES))


def call(tool: str, **args) -> str:
    return f"{FENCE_OPEN}\n{json.dumps({'tool': tool, 'args': args})}\n{FENCE_CLOSE}"


FORMAT_ERROR = f"{FENCE_OPEN}\nnot json\n{FENCE_CLOSE}"
UNKNOWN_TOOL = call("rain_gauge", **DOHA)
BAD_ARGS = call("rain_inquiry", lat=125.0, lon=51.531, date="2023-04-15")
NO_DATA = call("rain_inquiry", date="2019-04-15", **DOHA)
RAIN = call("rain_inquiry", date="2023-04-15", **DOHA)


class RecordingBackend(ScriptedBackend):
    """A scripted backend that keeps the last message of every prompt."""

    def __init__(self, emissions):
        super().__init__(emissions)
        self.last_messages: list[str] = []

    def complete(self, messages):
        self.last_messages.append(messages[-1]["content"])
        return super().complete(messages)


def ask(registry, emissions, budget=8):
    backend = RecordingBackend(emissions)
    answer, trajectory = run("What happened in Doha?", registry, backend,
                             settings=AgentSettings(budget=budget, route=False))
    return answer, trajectory, backend


def codes(trajectory):
    return [None if s.observation is None else s.observation.status.code
            for s in trajectory.steps]


def test_budget_exhaustion_gives_an_incomplete_digest(registry):
    answer, trajectory, backend = ask(
        registry, [call("geocode_mapping", region="Doha"), RAIN, RAIN], budget=2)
    assert len(trajectory.steps) == 2 and not trajectory.finished
    assert backend.remaining == 1
    assert answer.incomplete and answer.flagged
    assert answer.text == ("No final answer within the step budget. Usable observations: "
                           "step 1 (geocode_mapping); step 2 (rain_inquiry).")


def test_three_consecutive_invalid_emissions_end_the_run(registry):
    answer, trajectory, backend = ask(
        registry, [FORMAT_ERROR, UNKNOWN_TOOL, BAD_ARGS, "Never read [step 1]."])
    assert codes(trajectory) == ["format_error", "unknown_tool", "arg_error"]
    assert backend.remaining == 1
    assert answer.text == "No answer: the run produced no usable observations."
    assert answer.incomplete
    # Each invalid call is fed back to the model as an error observation.
    assert backend.last_messages[1].startswith('observation[obs_1] {"error_code": "format_error"')
    assert backend.last_messages[2].startswith('observation[obs_2] {"error_code": "unknown_tool"')


def test_executor_failure_resets_the_failure_count(registry):
    answer, trajectory, backend = ask(
        registry, [FORMAT_ERROR, BAD_ARGS, NO_DATA, UNKNOWN_TOOL, FORMAT_ERROR, RAIN,
                   "Doha got 12.0 mm [step 6]."])
    assert codes(trajectory) == ["format_error", "arg_error", "no_data_for_date",
                                 "unknown_tool", "format_error", None, None]
    assert trajectory.finished and backend.remaining == 0
    assert not answer.flagged


def test_obs_reference_passes_an_image_to_the_next_tool(registry):
    answer, trajectory, backend = ask(registry, [
        call("get_satellite_image", lat=25.29, lon=51.53, date="2020-01-15"),
        call("calculate_ndvi", image="obs_1"),
        "Done [step 2].",
    ])
    image, ndvi = (s.observation for s in trajectory.steps[:2])
    assert image.status.is_ok and ndvi.status.is_ok
    assert type(image.payload).__name__ == "RasterImage"
    assert type(ndvi.payload).__name__ == "IndexMap"
    assert backend.last_messages[2].startswith('observation[obs_2] {"location": {"lat": 25.29')
    assert '"type": "IndexMap"' in backend.last_messages[2]
    assert answer.citations == (2,) and not answer.flagged


def test_cited_failed_step_and_final_answer_ground_nothing(registry):
    # Step 1's error message names 2019-04-15; step 3 is the answer itself.
    answer, trajectory, _ = ask(
        registry, [NO_DATA, RAIN, "Doha got 12.0 mm, none in 2019 [step 1] [step 3]."])
    assert codes(trajectory) == ["no_data_for_date", None, None]
    assert answer.citations == (1, 3)
    assert answer.ungrounded == ("12.0", "2019")


def test_escaped_characters_of_an_observation_ground_no_digits(registry):
    # The observation holds "µg/m³"; its µ and ³ escapes must not
    # put 0, 5 or 3 into the grounding pool.
    aqi = call("aqi_inquiry", date="2023-04-15", **DOHA)
    answer, _, _ = ask(registry, [aqi, "The AQI in Doha was 5 [step 1]."])
    assert answer.ungrounded == ("5",)
    answer, _, _ = ask(registry, [aqi, "The AQI in Doha was 87 [step 1]."])
    assert answer.ungrounded == ()


def test_each_call_is_validated_once(registry, monkeypatch):
    calls = []
    validate = registry_module.validate_call

    def counting(call, registry):
        calls.append(call.tool)
        return validate(call, registry)

    monkeypatch.setattr(registry_module, "validate_call", counting)
    monkeypatch.setattr(runner_module, "validate_call", counting, raising=False)
    ask(registry, [UNKNOWN_TOOL, BAD_ARGS, RAIN, "Done."])
    assert calls == ["rain_gauge", "rain_inquiry", "rain_inquiry"]


def test_numeric_claims_reads_signed_decimal_and_exponent_tokens():
    from gulfclimate.agent.runner import numeric_claims

    assert numeric_claims("AQI 87, -4.5 and 1e3 on 2023-04-15") == [
        ("87", 87.0), ("-4.5", -4.5), ("1e3", 1000.0),
        ("2023", 2023.0), ("-04", -4.0), ("-15", -15.0)]
