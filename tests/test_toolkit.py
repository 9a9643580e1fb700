from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from gulfclimate.toolkit import (
    CallFormatError,
    FinalAnswer,
    ParamSpec,
    SignatureError,
    ToolCall,
    ToolSignature,
    execute,
    parse_call,
    render_tool_prompt,
    serialize_call,
    validate_call,
)
from gulfclimate.tools import ProviderConfig, build_registry

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def registry():
    return build_registry(ProviderConfig(kind="fixture", fixture_root=FIXTURES))


# -- grammar -------------------------------------------------------------------

def test_parse_well_formed_call():
    text = 'Checking rainfall.\n```tool_call\n{"tool": "weather_inquiry", "args": {"lat": 25.2, "lon": 51.5, "date": "2023-04-15"}}\n```'
    parsed = parse_call(text)
    assert isinstance(parsed, ToolCall)
    assert parsed.tool == "weather_inquiry"
    assert parsed.args["date"] == "2023-04-15"


def test_parse_unbalanced_delimiters():
    text = '```tool_call\n{"tool": "x", "args": {}}'
    assert isinstance(parse_call(text), CallFormatError)


def test_parse_plain_prose_is_final_answer():
    parsed = parse_call("The rainfall was 12.0 mm.")
    assert isinstance(parsed, FinalAnswer)
    assert "12.0" in parsed.text


def test_parse_bad_json_is_format_error():
    assert isinstance(parse_call('```tool_call\n{"tool": oops}\n```'), CallFormatError)


def test_parse_extra_fields_is_format_error():
    text = '```tool_call\n{"tool": "x", "args": {}, "id": 3}\n```'
    assert isinstance(parse_call(text), CallFormatError)


def test_parse_two_blocks_is_format_error():
    block = '```tool_call\n{"tool": "x", "args": {}}\n```'
    assert isinstance(parse_call(block + "\n" + block), CallFormatError)


def test_parse_nested_args_is_format_error():
    text = '```tool_call\n{"tool": "x", "args": {"point": {"lat": 1}}}\n```'
    assert isinstance(parse_call(text), CallFormatError)


@given(st.dictionaries(
    keys=st.text(alphabet="abcdefghij_", min_size=1, max_size=8),
    values=st.one_of(
        st.text(max_size=20), st.integers(-10**6, 10**6), st.booleans(),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    ),
    max_size=5,
))
def test_grammar_round_trip(args):
    call = ToolCall(tool="weather_inquiry", args=args)
    assert parse_call(serialize_call(call)) == call


# -- validation ----------------------------------------------------------------

def test_validate_ok(registry):
    verdict = validate_call(ToolCall("geocode_mapping", {"region": "Doha"}), registry)
    assert verdict.kind == "ok"


def test_validate_missing_required(registry):
    verdict = validate_call(ToolCall("rain_inquiry", {"lat": 25.2, "lon": 55.3}), registry)
    assert verdict.kind == "arg_error"
    assert any("missing: date" in d for d in verdict.details)


def test_validate_unknown_tool(registry):
    assert validate_call(ToolCall("fly_to_mars", {}), registry).kind == "unknown_tool"


def test_validate_unknown_extra_arg(registry):
    verdict = validate_call(
        ToolCall("geocode_mapping", {"region": "Doha", "zoom": 4}), registry)
    assert verdict.kind == "arg_error"
    assert any("unknown argument: zoom" in d for d in verdict.details)


def test_validate_collects_every_offending_field(registry):
    verdict = validate_call(
        ToolCall("rain_inquiry", {"lat": "north", "bogus": 1}), registry)
    assert verdict.kind == "arg_error"
    joined = " ".join(verdict.details)
    assert "lat" in joined and "bogus" in joined and "missing" in joined


def test_validate_numeric_string_coercion(registry):
    verdict = validate_call(
        ToolCall("rain_inquiry", {"lat": "25.2854", "lon": "51.5310", "date": "2023-04-15"}),
        registry)
    assert verdict.kind == "ok"
    assert verdict.coerced_args["lat"] == pytest.approx(25.2854)


def test_validate_horizon_minimum(registry):
    verdict = validate_call(
        ToolCall("aqi_prediction", {"lat": 25.2, "lon": 51.5, "horizon": 0}), registry)
    assert verdict.kind == "arg_error"


def test_validate_is_total_over_junk(registry):
    for args in ({}, {"lat": None}, {"lat": True}, {"date": 17}):
        verdict = validate_call(ToolCall("rain_inquiry", dict(args)), registry)
        assert verdict.kind in ("ok", "arg_error", "unknown_tool", "format_error")


# -- execution -----------------------------------------------------------------

def test_execute_normalizes_kelvin(registry):
    obs = execute(ToolCall("weather_inquiry",
                           {"lat": 25.2854, "lon": 51.531, "date": "2023-04-15"}), registry)
    assert obs.status.is_ok
    assert obs.payload["temperature"] == {"value": 32.0, "unit": "°C"}


def test_execute_timeout_becomes_error_observation():
    from gulfclimate.toolkit import ToolRegistry

    sig = ToolSignature("geocode_mapping", "geospatial",
                        (ParamSpec("region", "string"),), "geopoint", "test stub")

    def stalled(region):
        raise TimeoutError("provider timed out")

    registry = ToolRegistry({sig: stalled})
    obs = execute(ToolCall("geocode_mapping", {"region": "Doha"}), registry)
    assert obs.status.kind == "error"
    assert obs.status.code == "timeout"


def test_execute_never_crashes_on_executor_bug():
    from gulfclimate.toolkit import ToolRegistry

    sig = ToolSignature("summarize", "web", (ParamSpec("text", "string"),), "string", "stub")

    def broken(text):
        raise RuntimeError("boom")

    registry = ToolRegistry({sig: broken})
    obs = execute(ToolCall("summarize", {"text": "x"}), registry)
    assert obs.status.kind == "error"
    assert obs.status.code == "provider_failure"


def test_execute_invalid_call_yields_error_observation(registry):
    obs = execute(ToolCall("rain_inquiry", {}), registry)
    assert obs.status.kind == "error"
    assert obs.status.code == "arg_error"


# -- prompt rendering ------------------------------------------------------------

def test_prompt_has_seven_category_sections(registry):
    prompt = render_tool_prompt(registry)
    assert prompt.count("## ") == 7
    assert prompt.count("- ") == 22


def test_prompt_single_tool(registry):
    prompt = render_tool_prompt(registry, names=["geocode_mapping"])
    assert prompt.count("## ") == 1
    assert "geocode_mapping(region: string) -> geopoint" in prompt


def test_prompt_deterministic(registry):
    assert render_tool_prompt(registry) == render_tool_prompt(registry)


def test_signature_rejects_duplicate_params():
    with pytest.raises(SignatureError):
        ToolSignature("t", "web", (ParamSpec("a", "real"), ParamSpec("a", "real")),
                      "real", "dup")
