"""The full tool suite: signatures and their provider-backed bindings."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..geoforge.inventory import CityInventory, UnknownRegion
from ..toolkit.registry import ToolRegistry
from ..toolkit.types import ParamSpec, ToolResult, ToolSignature
from .analysis import DEFAULT_AQI_EXCEEDANCE, DEFAULT_RAIN_EVENT_MM, DEFAULT_Z_THRESHOLD
from .biodiversity import make_detection_executor
from .carbon import EmissionFactorTable, carbon_footprint
from .errors import ProviderNotAvailable, RegionNotFound
from .providers import FixtureStore, ProviderConfig
from .raster import DEFAULT_DEGRADATION_DELTA
from .satellite import make_change_executor, make_satellite_executor, ndvi_executor, ndwi_executor
from .weather import (
    POINT_METHODS,
    FixtureClimateSource,
    LiveClimateSource,
    make_analysis_executor,
    make_forecast_executor,
    make_point_executor,
)
from .web import FixtureSearch, make_search_executor, make_summarize_executor


def _p(name: str, type_: str, required: bool = True, **kw) -> ParamSpec:
    return ParamSpec(name=name, type=type_, required=required, **kw)


_LAT = _p("lat", "real", minimum=-90, maximum=90)
_LON = _p("lon", "real", minimum=-180, maximum=180)

SIGNATURES: tuple[ToolSignature, ...] = (
    # Remote sensing and land surface
    ToolSignature("get_satellite_image", "remote_sensing",
                  (_LAT, _LON, _p("date", "date")), "image_ref",
                  "Retrieve a multispectral satellite image for a coordinate and date."),
    ToolSignature("calculate_ndvi", "remote_sensing",
                  (_p("image", "image_ref"),), "index_map",
                  "Compute the vegetation index map and summary stats from an image."),
    ToolSignature("calculate_ndwi", "remote_sensing",
                  (_p("image", "image_ref"),), "index_map",
                  "Compute the water/moisture index map and summary stats from an image."),
    ToolSignature("desertification_analysis", "remote_sensing",
                  (_p("image1", "image_ref"), _p("image2", "image_ref")), "change_report",
                  "Compare two images and report land-degradation indicators."),
    # Biodiversity and species
    ToolSignature("detect_bird", "biodiversity",
                  (_p("audio_clip", "audio_ref"),), "list",
                  "Recognize bird calls from audio, returning candidates with confidence."),
    ToolSignature("detect_species", "biodiversity",
                  (_p("image", "image_ref"),), "list",
                  "Classify plant or animal species from an image."),
    # Web retrieval and summarization
    ToolSignature("online_search", "web",
                  (_p("query", "string"),), "list",
                  "Targeted search for policies, reports, and event coverage."),
    ToolSignature("summarize", "web",
                  (_p("text", "string"),), "string",
                  "Produce a concise summary preserving key facts."),
    # Carbon and sustainability
    ToolSignature("carbon_footprint_calculation", "carbon",
                  (_p("country", "string"), _p("industry", "string"),
                   _p("year", "integer"), _p("revenue", "real", minimum=0)), "real",
                  "Estimate annual emissions for a country/industry/year given revenue."),
    # Air quality and health indices
    ToolSignature("aqi_inquiry", "air_quality",
                  (_LAT, _LON, _p("date", "date")), "mapping",
                  "Return AQI and pollutant values for a location and date."),
    ToolSignature("aqi_prediction", "air_quality",
                  (_LAT, _LON, _p("horizon", "integer", minimum=1)), "series_ref",
                  "Forecast AQI for a location over a horizon in days."),
    ToolSignature("aqi_analysis", "air_quality",
                  (_LAT, _LON, _p("start", "date"), _p("end", "date")), "analysis_report",
                  "Summarize AQI trends and exceedances over a date range."),
    ToolSignature("pollen_forecast", "air_quality",
                  (_LAT, _LON, _p("horizon", "integer", required=False, minimum=1)), "series_ref",
                  "Return forecast pollen levels for a location."),
    ToolSignature("uv_index_forecast", "air_quality",
                  (_LAT, _LON, _p("horizon", "integer", required=False, minimum=1)), "series_ref",
                  "Return the UV index forecast for a location."),
    # Weather, rainfall, and hydrology
    ToolSignature("weather_inquiry", "weather_hydrology",
                  (_LAT, _LON, _p("date", "date")), "mapping",
                  "Return historical weather variables for a location and date."),
    ToolSignature("weather_forecast", "weather_hydrology",
                  (_LAT, _LON, _p("days", "integer", minimum=1)), "series_ref",
                  "Return the weather forecast for the next n days."),
    ToolSignature("weather_analysis", "weather_hydrology",
                  (_LAT, _LON, _p("start", "date"), _p("end", "date")), "analysis_report",
                  "Compute summary statistics and anomalies over a date range."),
    ToolSignature("rain_inquiry", "weather_hydrology",
                  (_LAT, _LON, _p("date", "date")), "real",
                  "Return precipitation in millimetres for a location and date."),
    ToolSignature("rain_prediction", "weather_hydrology",
                  (_LAT, _LON, _p("horizon", "integer", minimum=1)), "series_ref",
                  "Forecast precipitation for a location over a horizon in days."),
    ToolSignature("rain_analysis", "weather_hydrology",
                  (_LAT, _LON, _p("start", "date"), _p("end", "date")), "analysis_report",
                  "Summarize rainfall patterns and extremes over a date range."),
    ToolSignature("river_discharge_check", "weather_hydrology",
                  (_LAT, _LON, _p("date", "date")), "real",
                  "Return simulated river discharge for the nearest river grid cell."),
    # Geospatial utility
    ToolSignature("geocode_mapping", "geospatial",
                  (_p("region", "string"),), "geopoint",
                  "Resolve a region or city name to coordinates."),
)


@dataclass(frozen=True)
class ToolSettings:
    """Configuration defaults documented as non-interface choices."""

    z_threshold: float = DEFAULT_Z_THRESHOLD
    aqi_exceedance: float = DEFAULT_AQI_EXCEEDANCE
    rain_event_mm: float = DEFAULT_RAIN_EVENT_MM
    degradation_delta: float = DEFAULT_DEGRADATION_DELTA
    forecast_default_horizon: int = 3
    search_top_k: int = 5
    summary_word_budget: int = 60


def make_geocode_executor(inventory: CityInventory):
    def run(region: str) -> ToolResult:
        try:
            entry = inventory.lookup(region)
        except UnknownRegion as exc:
            raise RegionNotFound(str(exc)) from exc
        return ToolResult(payload=entry.location, location=entry.location)
    return run


def make_carbon_executor(table: EmissionFactorTable):
    def run(country: str, industry: str, year: int, revenue: float) -> ToolResult:
        return ToolResult(payload=carbon_footprint(table, country, industry, year, revenue))
    return run


def _unavailable(tool: str):
    def run(**kwargs) -> ToolResult:
        raise ProviderNotAvailable(f"{tool} has no live provider; use fixture mode")
    return run


def build_registry(provider: ProviderConfig, settings: ToolSettings = ToolSettings(),
                   backend=None) -> ToolRegistry:
    """Bind all 22 tools to their provider-backed executors.

    ``backend`` is the optional LLM backend used by ``summarize``.
    """
    executors = {tool: _unavailable(tool) for tool in (
        "get_satellite_image", "detect_bird", "detect_species", "carbon_footprint_calculation",
        "online_search")}
    if provider.kind == "fixture":
        store = FixtureStore(provider.fixture_root)
        climate = FixtureClimateSource(store)
        executors["online_search"] = make_search_executor(FixtureSearch(store),
                                                          top_k=settings.search_top_k)
        executors["get_satellite_image"] = make_satellite_executor(store)
        executors["detect_bird"] = make_detection_executor(store, "detect_bird", "audio_clip")
        executors["detect_species"] = make_detection_executor(store, "detect_species", "image")
        factors_path = Path(provider.fixture_root) / "carbon_factors.csv"
        if factors_path.is_file():
            executors["carbon_footprint_calculation"] = make_carbon_executor(
                EmissionFactorTable.from_file(factors_path))
    else:
        climate = LiveClimateSource(provider)

    executors.update({
        "calculate_ndvi": ndvi_executor,
        "calculate_ndwi": ndwi_executor,
        "desertification_analysis": make_change_executor(settings.degradation_delta),
        "summarize": make_summarize_executor(backend, word_budget=settings.summary_word_budget),
        "geocode_mapping": make_geocode_executor(CityInventory.default()),
    })
    for sig in SIGNATURES:
        if sig.name in POINT_METHODS:
            executors[sig.name] = make_point_executor(climate, sig.name)
        elif sig.returns == "series_ref":
            executors[sig.name] = make_forecast_executor(climate, sig,
                                                         settings.forecast_default_horizon)
        elif sig.returns == "analysis_report":
            executors[sig.name] = make_analysis_executor(climate, sig.name, settings)
    return ToolRegistry({sig: executors[sig.name] for sig in SIGNATURES})
