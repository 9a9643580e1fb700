import json
from pathlib import Path

import pytest

from gulfclimate.tools.providers import ProviderConfig
from gulfclimate.tools.suite import SIGNATURES, build_registry
from gulfclimate.tools.carbon import EmissionFactorTable, carbon_footprint
from gulfclimate.toolkit.registry import execute
from gulfclimate.toolkit.types import PARAM_TYPES, REF_TYPES, RETURN_TYPES, ToolCall

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def registry():
    return build_registry(ProviderConfig(kind="fixture", fixture_root=FIXTURES))


def run(registry, tool, **args):
    return execute(ToolCall(tool, args), registry)


def test_suite_has_22_tools_in_7_categories(registry):
    assert len(registry) == 22
    assert len({s.category for s in SIGNATURES}) == 7


def test_the_type_vocabulary_is_what_the_suite_uses():
    assert set(PARAM_TYPES) == {p.type for s in SIGNATURES for p in s.params}
    assert set(RETURN_TYPES) == {s.returns for s in SIGNATURES}
    assert set(REF_TYPES) <= set(PARAM_TYPES)


def test_rain_inquiry_fixture_value(registry):
    obs = run(registry, "rain_inquiry", lat=25.2854, lon=51.5310, date="2023-04-15")
    assert obs.status.is_ok
    assert obs.payload == 12.0
    assert obs.units == "mm"


def test_aqi_inquiry_fixture(registry):
    obs = run(registry, "aqi_inquiry", lat=25.2854, lon=51.5310, date="2023-04-15")
    assert obs.status.is_ok
    assert obs.payload["aqi"] == 87.0
    assert obs.payload["pollutants"]["pm10"] == 101.0


def test_point_inquiry_no_data_for_date(registry):
    obs = run(registry, "weather_inquiry", lat=25.2854, lon=51.5310, date="1999-01-01")
    assert obs.status.kind == "error"
    assert obs.status.code == "no_data_for_date"


def test_forecast_cardinality_matches_horizon(registry):
    for horizon in (1, 3, 7):
        obs = run(registry, "aqi_prediction", lat=25.2854, lon=51.5310, horizon=horizon)
        assert obs.status.is_ok, obs.status
        assert len(obs.payload) == horizon


def test_forecast_echoes_planted_sequence(registry):
    obs = run(registry, "aqi_prediction", lat=25.2854, lon=51.5310, horizon=3)
    assert obs.payload.values.tolist() == [90.0, 95.0, 88.0]
    timestamps = obs.payload.timestamps
    assert all(b > a for a, b in zip(timestamps, timestamps[1:]))


def test_forecast_horizon_too_long(registry):
    obs = run(registry, "weather_forecast", lat=25.2854, lon=51.5310, days=100)
    assert obs.status.code == "horizon_too_long"


def test_forecast_default_horizon_for_optional_param(registry):
    obs = run(registry, "uv_index_forecast", lat=25.2854, lon=51.5310)
    assert obs.status.is_ok
    assert len(obs.payload) == 3


def test_range_analysis_from_fixture(registry):
    obs = run(registry, "weather_analysis", lat=25.2854, lon=51.5310,
              start="2023-01-01", end="2023-03-31")
    assert obs.status.is_ok
    assert obs.payload.count == 90
    assert obs.payload.unit == "°C"


def test_range_analysis_empty_range(registry):
    obs = run(registry, "rain_analysis", lat=25.2854, lon=51.5310,
              start="1999-01-01", end="1999-02-01")
    assert obs.status.code == "empty_range"


def test_river_discharge_resolves_nearest_river_cell(registry):
    obs = run(registry, "river_discharge_check", lat=25.2854, lon=51.5310,
              date="2023-04-15")
    assert obs.status.is_ok
    assert obs.payload == 230.0
    assert obs.units == "m³/s"
    # Doha sits north-east of the masked cells; (2, 2) = (25.2, 51.5) wins.
    assert (obs.location.lat, obs.location.lon) == (25.2, 51.5)


def test_geocode_fixture_city(registry):
    obs = run(registry, "geocode_mapping", region="Doha")
    assert obs.status.is_ok
    assert (obs.payload.lat, obs.payload.lon) == (25.2854, 51.5310)


def test_geocode_case_and_space_variant(registry):
    a = run(registry, "geocode_mapping", region="Doha")
    b = run(registry, "geocode_mapping", region="  doha ")
    assert a.payload == b.payload


def test_geocode_unknown_region(registry):
    obs = run(registry, "geocode_mapping", region="Atlantis")
    assert obs.status.code == "unknown_region"


def test_satellite_fixture_and_round_trip_to_ndvi(registry):
    obs = run(registry, "get_satellite_image", lat=25.29, lon=51.53, date="2020-01-15")
    assert obs.status.is_ok
    image = obs.payload
    assert image.width == image.height == 4
    ndvi = execute(ToolCall("calculate_ndvi", {"image": "obs_1"}), registry,
                   refs={"obs_1": image})
    assert ndvi.status.is_ok
    assert ndvi.payload.stats.valid_fraction == 1.0


def test_satellite_uncovered_date(registry):
    obs = run(registry, "get_satellite_image", lat=25.29, lon=51.53, date="2021-06-01")
    assert obs.status.code == "no_imagery"


def test_detect_bird_planted_candidates(registry):
    obs = run(registry, "detect_bird", audio_clip="audio_0001")
    assert obs.status.is_ok
    assert obs.payload[0] == ["greater flamingo", 0.92]
    confidences = [c for _, c in obs.payload]
    assert confidences == sorted(confidences, reverse=True)


def test_detect_species_unknown_ref(registry):
    obs = run(registry, "detect_species", image="img_9999")
    assert obs.status.code == "unresolvable_reference"


def test_carbon_footprint_values(registry):
    obs = run(registry, "carbon_footprint_calculation",
              country="Qatar", industry="energy", year=2022, revenue=100)
    assert obs.status.is_ok
    assert obs.payload == 50.0
    zero = run(registry, "carbon_footprint_calculation",
               country="Qatar", industry="energy", year=2022, revenue=0)
    assert zero.payload == 0.0


def test_carbon_scales_linearly(registry):
    one = run(registry, "carbon_footprint_calculation",
              country="UAE", industry="energy", year=2022, revenue=13.5)
    two = run(registry, "carbon_footprint_calculation",
              country="UAE", industry="energy", year=2022, revenue=27.0)
    assert two.payload == pytest.approx(2 * one.payload)


def test_carbon_unknown_key(registry):
    obs = run(registry, "carbon_footprint_calculation",
              country="Qatar", industry="aviation", year=1950, revenue=10)
    assert obs.status.code == "unknown_factor_key"


def test_carbon_factor_table_rejects_nonpositive():
    with pytest.raises(Exception):
        EmissionFactorTable({("Qatar", "energy", 2022): 0.0})


def test_carbon_footprint_direct():
    table = EmissionFactorTable({("Qatar", "energy", 2022): 0.5})
    assert carbon_footprint(table, "qatar", "ENERGY", 2022, 100.0) == 50.0


def test_online_search_replays_in_order(registry):
    obs = run(registry, "online_search", query="heatwave preparedness Qatar Doha")
    assert obs.status.is_ok
    assert obs.payload[0]["url"] == "https://mecc.gov.qa/heatwave-plan"
    again = run(registry, "online_search", query="heatwave preparedness Qatar Doha")
    assert again.payload == obs.payload


def test_online_search_empty_query_rejected(registry):
    obs = run(registry, "online_search", query="   ")
    assert obs.status.kind == "error"


def test_online_search_has_no_live_provider():
    live = build_registry(ProviderConfig(kind="live_http"))
    obs = run(live, "online_search", query="heatwave preparedness Qatar Doha")
    assert (obs.status.code, obs.status.message) == (
        "provider_not_available", "online_search has no live provider; use fixture mode")


def test_summarize_without_backend_is_extractive(registry):
    text = "First fact here. Second fact follows. " + "Padding sentence. " * 40
    obs = run(registry, "summarize", text=text)
    assert obs.status.is_ok
    assert obs.payload.startswith("First fact here.")
    assert len(obs.payload.split()) <= 60


def test_summarize_scripted_backend_returns_planted_string():
    class Scripted:
        def complete(self, messages):
            return "Planted summary."

    registry = build_registry(ProviderConfig(kind="fixture", fixture_root=FIXTURES),
                              backend=Scripted())
    obs = execute(ToolCall("summarize", {"text": "anything at all"}), registry)
    assert obs.payload == "Planted summary."


def test_fixture_determinism_byte_for_byte(registry):
    import gulfclimate.agent.serialization as ser

    calls = [
        ToolCall("rain_inquiry", {"lat": 25.2854, "lon": 51.5310, "date": "2023-04-15"}),
        ToolCall("aqi_prediction", {"lat": 25.2854, "lon": 51.5310, "horizon": 5}),
        ToolCall("geocode_mapping", {"region": "Doha"}),
    ]
    for call in calls:
        first = ser.observation_to_jsonable(execute(call, registry))
        second = ser.observation_to_jsonable(execute(call, registry))
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

