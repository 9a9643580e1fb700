"""Golden observations of the 22-tool suite on the checked-in fixtures.

Each case runs one call through ``toolkit.execute`` and hashes its JSON
observation, so any change to what an executor returns, how it reads its
arguments or which error it raises shows up here. Regenerate the digests with
``PYTHONPATH=src python tests/test_tools_golden.py`` only when a change of
observation is intended.
"""

import hashlib
import json
from pathlib import Path

import pytest

from gulfclimate.agent.serialization import observation_to_jsonable
from gulfclimate.cli.main import main
from gulfclimate.toolkit.registry import execute
from gulfclimate.toolkit.types import ToolCall
from gulfclimate.tools.providers import ProviderConfig
from gulfclimate.tools.suite import build_registry

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN_PATH = ROOT / "tests" / "data" / "tools_golden.json"

DOHA = {"lat": 25.2854, "lon": 51.5310}
Q1 = {"start": "2023-01-01", "end": "2023-03-31"}
IMAGE = {"lat": 25.29, "lon": 51.53}

# label -> (tool, arguments); ``obs_1`` and ``obs_2`` name the two images.
CASES = {
    "get_satellite_image": ("get_satellite_image", {**IMAGE, "date": "2020-01-15"}),
    "calculate_ndvi": ("calculate_ndvi", {"image": "obs_1"}),
    "calculate_ndwi": ("calculate_ndwi", {"image": "obs_1"}),
    "desertification_analysis": ("desertification_analysis",
                                 {"image1": "obs_1", "image2": "obs_2"}),
    "detect_bird": ("detect_bird", {"audio_clip": "audio_0001"}),
    "detect_species": ("detect_species", {"image": "img_0001"}),
    "online_search": ("online_search", {"query": "heatwave preparedness Qatar Doha"}),
    "summarize": ("summarize", {"text": "First fact here. Second fact follows. "
                                        + "Padding sentence. " * 40}),
    "carbon_footprint_calculation": ("carbon_footprint_calculation",
                                     {"country": "Qatar", "industry": "energy",
                                      "year": 2022, "revenue": 100}),
    "aqi_inquiry": ("aqi_inquiry", {**DOHA, "date": "2023-04-15"}),
    "aqi_prediction": ("aqi_prediction", {**DOHA, "horizon": 3}),
    "aqi_analysis": ("aqi_analysis", {**DOHA, **Q1}),
    "pollen_forecast": ("pollen_forecast", DOHA),
    "pollen_forecast horizon": ("pollen_forecast", {**DOHA, "horizon": 5}),
    "uv_index_forecast": ("uv_index_forecast", DOHA),
    "uv_index_forecast horizon": ("uv_index_forecast", {**DOHA, "horizon": 6}),
    "weather_inquiry": ("weather_inquiry", {**DOHA, "date": "2023-04-15"}),
    "weather_forecast": ("weather_forecast", {**DOHA, "days": 4}),
    "weather_analysis": ("weather_analysis", {**DOHA, **Q1}),
    "rain_inquiry": ("rain_inquiry", {**DOHA, "date": "2023-04-15"}),
    "rain_prediction": ("rain_prediction", {**DOHA, "horizon": 2}),
    "rain_analysis": ("rain_analysis", {**DOHA, **Q1}),
    "river_discharge_check": ("river_discharge_check", {**DOHA, "date": "2023-04-15"}),
    "geocode_mapping": ("geocode_mapping", {"region": "Doha"}),
    "horizon_too_long": ("weather_forecast", {**DOHA, "days": 100}),
    "horizon_too_long default-horizon tool": ("uv_index_forecast", {**DOHA, "horizon": 100}),
    "empty_range inverted": ("rain_analysis", {**DOHA, "start": "2023-03-31",
                                               "end": "2023-01-01"}),
    "no_data_for_date": ("weather_inquiry", {**DOHA, "date": "1999-01-01"}),
}


def _observations() -> dict[str, dict]:
    registry = build_registry(ProviderConfig(kind="fixture", fixture_root=FIXTURES))
    refs = {
        name: execute(ToolCall("get_satellite_image", {**IMAGE, "date": day}), registry).payload
        for name, day in (("obs_1", "2020-01-15"), ("obs_2", "2023-01-15"))
    }
    return {label: observation_to_jsonable(execute(ToolCall(tool, args), registry, refs=refs))
            for label, (tool, args) in CASES.items()}


def _digest(observation: dict) -> str:
    return hashlib.sha256(json.dumps(observation, sort_keys=True, ensure_ascii=False)
                          .encode("utf-8")).hexdigest()


def _digests() -> dict[str, str]:
    return {label: _digest(obs) for label, obs in _observations().items()}


def test_every_tool_has_a_successful_case():
    observations = _observations()
    tools = {tool for tool, _ in CASES.values()}
    assert len(tools) == 22
    assert {tool: observations[tool]["status"] for tool in tools} == dict.fromkeys(tools, "ok")
    assert {label: obs.get("error_code") for label, obs in observations.items()
            if label not in tools} == {
        "pollen_forecast horizon": None,
        "uv_index_forecast horizon": None,
        "horizon_too_long": "horizon_too_long",
        "horizon_too_long default-horizon tool": "horizon_too_long",
        "empty_range inverted": "empty_range",
        "no_data_for_date": "no_data_for_date",
    }


def test_observations_match_the_golden_digests_twice_in_a_row():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert _digests() == golden
    assert _digests() == golden


@pytest.mark.parametrize("label", [label for label, (_, args) in CASES.items()
                                   if not any(str(v).startswith("obs_") for v in args.values())])
def test_tools_call_with_one_arg_per_value_prints_the_golden_observation(tmp_path, capsys,
                                                                         label):
    tool, args = CASES[label]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"provider": {"mode": "fixture",
                                               "fixture_root": str(FIXTURES)}}))
    argv = ["tools", "call", tool, "--config", str(config)]
    for key, value in args.items():
        argv += ["--arg", f"{key}={value}"]
    main(argv)
    observation = json.loads(capsys.readouterr().out)
    assert _digest(observation) == json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[label]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(_digests(), indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
