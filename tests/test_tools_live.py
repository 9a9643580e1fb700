"""``LiveClimateSource`` offline: each method on hand-written reply bodies.

The bodies follow the field names of Open-Meteo's published API documentation
(archive, forecast, air-quality and flood endpoints): a ``daily`` or
``hourly`` block holding ``time`` and one array per requested variable, with
the matching ``*_units`` block. A fake ``http`` object returns them, so no
request is made. Each method must hand back what the fixture source hands
back for the same tool: a ``ToolResult`` with the same payload layout and
units, or a ``CanonicalSeries`` of the same variable and unit.
"""

from datetime import date
from pathlib import Path

import pytest

from gulfclimate.core.geo import GeoPoint
from gulfclimate.core.records import CanonicalSeries
from gulfclimate.toolkit.types import ToolResult
from gulfclimate.tools.errors import HorizonTooLong, NoDataForDate
from gulfclimate.tools.providers import FixtureStore, ProviderConfig
from gulfclimate.tools.suite import SIGNATURES
from gulfclimate.tools.weather import (AIR_QUALITY, CLIMATE_TOOLS, FLOOD, POINT_METHODS,
                                       WEATHER_ARCHIVE, FixtureClimateSource,
                                       LiveClimateSource)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DOHA = (25.2854, 51.531)
DAY = date(2023, 4, 15)
HOURS = [f"2023-04-15T{h:02d}:00" for h in range(24)]


def archive_reply(units: dict, block: str = "daily", **columns) -> dict:
    """A reply in Open-Meteo's layout: location header, units, then columns."""
    return {
        "latitude": 25.3, "longitude": 51.5, "generationtime_ms": 0.42,
        "utc_offset_seconds": 0, "timezone": "UTC", "timezone_abbreviation": "UTC",
        "elevation": 10.0,
        f"{block}_units": {"time": "iso8601", **units},
        block: columns,
    }


class FakeHttp:
    """Stands in for ``HttpSession``: returns ``reply`` and logs each request."""

    def __init__(self, reply: dict):
        self.reply = reply
        self.requests: list[tuple[str, dict]] = []

    def get_json(self, url, params=None):
        self.requests.append((url, dict(params or {})))
        return self.reply


def live(reply: dict) -> LiveClimateSource:
    source = LiveClimateSource(ProviderConfig(kind="live_http"))
    source.http = FakeHttp(reply)
    return source


@pytest.fixture(scope="module")
def fixture_source():
    return FixtureClimateSource(FixtureStore(FIXTURES))


def layout(value):
    """The shape of a payload: its type, and for a dict its keys and the
    ``unit`` entries and layouts under them."""
    if isinstance(value, dict):
        return {k: (v if k in ("unit", "pollutant_unit") else layout(v))
                for k, v in value.items()}
    return type(value).__name__


def assert_same_result_shape(got: ToolResult, want: ToolResult) -> None:
    assert isinstance(got, ToolResult)
    assert layout(got.payload) == layout(want.payload)
    assert got.units == want.units
    assert isinstance(got.location, GeoPoint)


def assert_same_series_shape(got: CanonicalSeries, want: CanonicalSeries) -> None:
    assert isinstance(got, CanonicalSeries)
    assert (got.variable, got.unit) == (want.variable, want.unit)
    assert isinstance(got.location, GeoPoint)


def test_rain_inquiry(fixture_source):
    source = live(archive_reply({"precipitation_sum": "mm"},
                                time=["2023-04-15"], precipitation_sum=[12.0]))
    got = source.rain_inquiry(*DOHA, DAY)
    assert_same_result_shape(got, fixture_source.rain_inquiry(*DOHA, DAY))
    assert got.payload == 12.0
    assert got.timestamps == fixture_source.rain_inquiry(*DOHA, DAY).timestamps
    ((url, params),) = source.http.requests
    assert url == WEATHER_ARCHIVE
    assert (params["start_date"], params["end_date"]) == ("2023-04-15", "2023-04-15")
    assert params["daily"] == "precipitation_sum"
    assert params["timezone"] == "UTC"


def test_rain_inquiry_without_a_value_has_no_data():
    source = live(archive_reply({"precipitation_sum": "mm"},
                                time=["2023-04-15"], precipitation_sum=[None]))
    with pytest.raises(NoDataForDate):
        source.rain_inquiry(*DOHA, DAY)


def test_weather_inquiry(fixture_source):
    source = live(archive_reply(
        {"temperature_2m_mean": "°C", "windspeed_10m_max": "km/h",
         "relative_humidity_2m_mean": "%"},
        time=["2023-04-15"], temperature_2m_mean=[32.0], windspeed_10m_max=[15.1],
        relative_humidity_2m_mean=[38.0]))
    got = source.weather_inquiry(*DOHA, DAY)
    assert_same_result_shape(got, fixture_source.weather_inquiry(*DOHA, DAY))
    assert got.payload["temperature"]["value"] == 32.0
    assert got.payload["wind_speed"]["value"] == pytest.approx(15.1 / 3.6)


def test_aqi_inquiry(fixture_source):
    source = live(archive_reply(
        {"european_aqi": "EAQI", "pm2_5": "μg/m³", "pm10": "μg/m³",
         "nitrogen_dioxide": "μg/m³", "ozone": "μg/m³"}, block="hourly",
        time=HOURS, european_aqi=[60.0] * 23 + [87.0], pm2_5=[38.0] * 24,
        pm10=[101.0] * 24, nitrogen_dioxide=[22.0] * 24, ozone=[61.0] * 12 + [None] * 12))
    got = source.aqi_inquiry(*DOHA, DAY)
    assert_same_result_shape(got, fixture_source.aqi_inquiry(*DOHA, DAY))
    assert got.payload["aqi"] == 87.0
    assert got.payload["pollutants"] == {"pm25": 38.0, "pm10": 101.0, "no2": 22.0, "o3": 61.0}
    assert source.http.requests[0][0] == AIR_QUALITY


def test_river_discharge(fixture_source):
    when = date(2023, 4, 14)
    source = live(archive_reply({"river_discharge": "m³/s"},
                                time=["2023-04-14"], river_discharge=[210.0]))
    got = source.river_discharge(*DOHA, when)
    assert_same_result_shape(got, fixture_source.river_discharge(*DOHA, when))
    assert got.payload == 210.0
    ((url, params),) = source.http.requests
    assert url == FLOOD
    assert params["daily"] == "river_discharge"
    assert "timezone" not in params


def test_river_discharge_without_a_value_has_no_data():
    source = live(archive_reply({"river_discharge": "m³/s"},
                                time=["2023-04-14"], river_discharge=[None]))
    with pytest.raises(NoDataForDate):
        source.river_discharge(*DOHA, date(2023, 4, 14))


def test_the_climate_tool_table_covers_exactly_the_single_variable_climate_tools():
    climate = {sig.name: sig.returns for sig in SIGNATURES
               if sig.name in POINT_METHODS or sig.returns in ("series_ref", "analysis_report")}
    assert set(CLIMATE_TOOLS) == {name for name, returns in climate.items()
                                  if returns != "mapping"}
    assert len(CLIMATE_TOOLS) == 10
    # The reply tables below cover every forecast and range-analysis tool.
    assert set(FORECAST_REPLIES) == {n for n, r in climate.items() if r == "series_ref"}
    assert set(ANALYSIS_REPLIES) == {n for n, r in climate.items() if r == "analysis_report"}


# forecast tool -> (reply block, variable key, its unit in the reply)
FORECAST_REPLIES = {
    "weather_forecast": ("daily", "temperature_2m_mean", "°C"),
    "rain_prediction": ("daily", "precipitation_sum", "mm"),
    "uv_index_forecast": ("daily", "uv_index_max", ""),
    "aqi_prediction": ("hourly", "european_aqi", "EAQI"),
    "pollen_forecast": ("hourly", "grass_pollen", "grains/m³"),
}


def stamps(block: str, days: int) -> list[str]:
    """The ``time`` column of a reply block: ISO days, or ISO hours."""
    if block == "daily":
        return [f"2023-01-{d + 1:02d}" for d in range(days)]
    return [f"2023-01-{d + 1:02d}T{h:02d}:00" for d in range(days) for h in range(24)]


def day_values(block: str, days: int) -> list[float]:
    """Day ``d``'s values: ``d`` once, or 24 hours peaking at ``d`` at noon."""
    if block == "daily":
        return [float(d) for d in range(days)]
    return [d - abs(h - 12) / 24 for d in range(days) for h in range(24)]


def series_days(series: CanonicalSeries) -> list[str]:
    return [str(t)[:10] for t in series.timestamps]


@pytest.mark.parametrize("tool", sorted(FORECAST_REPLIES))
def test_forecast(fixture_source, tool):
    block, key, unit = FORECAST_REPLIES[tool]
    time = stamps(block, 4)
    source = live(archive_reply({key: unit}, block=block, time=time,
                                **{key: day_values(block, 4)}))
    got = source.forecast(tool, *DOHA, 3)
    want = fixture_source.forecast(tool, *DOHA, 3)
    assert isinstance(got, ToolResult)
    assert_same_series_shape(got.payload, want.payload)
    assert got.units == want.units
    # The reply starts today, 2023-01-01; the forecast is the three days after.
    assert got.payload.values.tolist() == [1.0, 2.0, 3.0]
    assert series_days(got.payload) == ["2023-01-02", "2023-01-03", "2023-01-04"]
    ((_, params),) = source.http.requests
    assert params[block] == key and params["forecast_days"] == 4
    with pytest.raises(HorizonTooLong):
        source.forecast(tool, *DOHA, len(time) + 1)


# analysis tool -> (reply block, variable key, its unit in the reply)
ANALYSIS_REPLIES = {
    "weather_analysis": ("daily", "temperature_2m_mean", "°C"),
    "rain_analysis": ("daily", "precipitation_sum", "mm"),
    "aqi_analysis": ("hourly", "european_aqi", "EAQI"),
}


@pytest.mark.parametrize("tool", sorted(ANALYSIS_REPLIES))
def test_analysis_series(fixture_source, tool):
    block, key, unit = ANALYSIS_REPLIES[tool]
    start, end = date(2023, 1, 1), date(2023, 1, 3)
    time = stamps(block, 3)
    values = ([24.0, None, 26.5] * 24)[:len(time)]
    source = live(archive_reply({key: unit}, block=block, time=time, **{key: values}))
    got = source.analysis_series(tool, *DOHA, start, end)
    assert_same_series_shape(got, fixture_source.analysis_series(tool, *DOHA, start, end))
    assert series_days(got) == ["2023-01-01", "2023-01-02", "2023-01-03"]
    if block == "daily":
        assert got.values.tolist()[::2] == [24.0, 26.5]
        assert sum(v != v for v in got.values.tolist()) == 1
    else:
        assert got.values.tolist() == [26.5] * 3
    ((_, params),) = source.http.requests
    assert (params["start_date"], params["end_date"]) == ("2023-01-01", "2023-01-03")
    assert params[block] == key
