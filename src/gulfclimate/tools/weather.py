"""Weather, rainfall, air-quality, and hydrology tool executors.

Each family is served by a climate source: the fixture source replays keyed
rows from the fixture root; the live source queries public open weather and
air-quality HTTP APIs. Payloads are normalized through the canonical unit and
timestamp machinery before leaving an executor.
"""

from __future__ import annotations

from datetime import date, datetime
from typing import NamedTuple

import numpy as np

from ..core.geo import GeoPoint, GridSpec
from ..core.records import TIMESTAMP_DTYPE, CanonicalSeries, RecordValidationError, value_column
from ..core.timeutil import midnight_utc
from ..core.units import default_table
from ..geoforge.gridmatch import nearest_grid_cell
from ..toolkit.types import ToolResult, ToolSignature
from .analysis import analyze_range
from .errors import EmptyRange, HorizonTooLong, NoDataForDate
from .providers import FixtureStore, HttpSession, ProviderConfig, nearest_row

# point-inquiry tool -> the climate-source method that answers it
POINT_METHODS = {
    "weather_inquiry": "weather_inquiry",
    "rain_inquiry": "rain_inquiry",
    "aqi_inquiry": "aqi_inquiry",
    "river_discharge_check": "river_discharge",
}
WEATHER_ARCHIVE = "https://archive-api.open-meteo.com/v1/archive"
WEATHER_FORECAST = "https://api.open-meteo.com/v1/forecast"
AIR_QUALITY = "https://air-quality-api.open-meteo.com/v1/air-quality"
FLOOD = "https://flood-api.open-meteo.com/v1/flood"


class ClimateTool(NamedTuple):
    variable: str  # canonical variable
    endpoint: str  # live endpoint
    column: str  # live reply column
    unit: str  # the reply column's unit


# single-variable climate tool -> its ClimateTool. The forecast tools return a
# series, the range-analysis tools a report whose kind is the tool name
# without ``_analysis``.
CLIMATE_TOOLS = {
    "rain_inquiry": ClimateTool("precipitation", WEATHER_ARCHIVE, "precipitation_sum", "mm"),
    "river_discharge_check": ClimateTool("discharge", FLOOD, "river_discharge", "m3/s"),
    "weather_forecast": ClimateTool("temperature", WEATHER_FORECAST, "temperature_2m_mean", "°C"),
    "rain_prediction": ClimateTool("precipitation", WEATHER_FORECAST, "precipitation_sum", "mm"),
    "aqi_prediction": ClimateTool("aqi", AIR_QUALITY, "european_aqi", "index"),
    "uv_index_forecast": ClimateTool("uv_index", WEATHER_FORECAST, "uv_index_max", "index"),
    "pollen_forecast": ClimateTool("pollen", AIR_QUALITY, "grass_pollen", "index"),
    "weather_analysis": ClimateTool("temperature", WEATHER_ARCHIVE, "temperature_2m_mean", "°C"),
    "rain_analysis": ClimateTool("precipitation", WEATHER_ARCHIVE, "precipitation_sum", "mm"),
    "aqi_analysis": ClimateTool("aqi", AIR_QUALITY, "european_aqi", "index"),
}


def _day_span(d: date) -> tuple[datetime, datetime]:
    start = midnight_utc(d)
    return (start, start)


def _normalize(value: float, unit: str, variable: str) -> tuple[float, str]:
    return default_table().normalize(value, unit, variable)


def _series(days: np.ndarray, values: np.ndarray, unit: str, variable: str,
            location: GeoPoint, city: str | None, source: str) -> CanonicalSeries:
    """The canonical series of a raw value column (see :func:`value_column`)
    on ``datetime64[D]`` days."""
    values, canonical = default_table().normalize_column(values, unit, variable)
    return CanonicalSeries(days.astype(TIMESTAMP_DTYPE), values, variable, canonical,
                           location, city, source)


def _reply_days(data: dict, key: str) -> tuple[list[str], list[float | None]]:
    """The ISO days of a reply's ``time`` column, in reply order, and each
    day's value of ``key``: the ``daily`` block's value, or the maximum of the
    day's ``hourly`` values (``None`` when the day has none)."""
    block = data.get("daily") or data.get("hourly") or {}
    days: dict[str, float | None] = {}
    for stamp, value in zip(block.get("time") or [], block.get(key) or []):
        best = days.setdefault(stamp[:10], value)
        if value is not None and (best is None or value > best):
            days[stamp[:10]] = value
    return list(days), list(days.values())


class FixtureClimateSource:
    """Deterministic file-backed stand-in for the live climate services."""

    def __init__(self, store: FixtureStore):
        self.store = store
        # (tool, lat, lon) of a row -> its day and value columns; see _record_columns.
        self._columns: dict[tuple[str, float, float], tuple[np.ndarray, ...]] = {}

    # -- point inquiries ---------------------------------------------------

    def rain_inquiry(self, lat: float, lon: float, when: date) -> ToolResult:
        row = self._point_row("rain_inquiry", lat, lon, when)
        value, unit = _normalize(float(row["value"]), row.get("unit", "mm"), "precipitation")
        return ToolResult(payload=value, units=unit, timestamps=_day_span(when),
                          location=GeoPoint(float(row["lat"]), float(row["lon"])))

    def weather_inquiry(self, lat: float, lon: float, when: date) -> ToolResult:
        row = self._point_row("weather_inquiry", lat, lon, when)
        units = row.get("units", {})
        payload: dict[str, dict[str, float | str]] = {}
        for variable, raw in row["values"].items():
            value, unit = _normalize(float(raw), units.get(variable, ""), variable)
            payload[variable] = {"value": value, "unit": unit}
        return ToolResult(payload=payload, timestamps=_day_span(when),
                          location=GeoPoint(float(row["lat"]), float(row["lon"])))

    def aqi_inquiry(self, lat: float, lon: float, when: date) -> ToolResult:
        row = self._point_row("aqi_inquiry", lat, lon, when)
        unit = row.get("pollutant_unit", "µg/m³")
        pollutants = {
            name: _normalize(float(v), unit, name)[0]
            for name, v in row.get("pollutants", {}).items()
        }
        payload = {
            "aqi": float(row["aqi"]),
            "pollutants": pollutants,
            "pollutant_unit": default_table().canonical_unit("pm25"),
        }
        return ToolResult(payload=payload, units="index", timestamps=_day_span(when),
                          location=GeoPoint(float(row["lat"]), float(row["lon"])))

    def river_discharge(self, lat: float, lon: float, when: date) -> ToolResult:
        doc = self.store.document("river_discharge_check")
        grid_doc = doc.get("grid", {})
        grid = GridSpec(lats=tuple(grid_doc["lats"]), lons=tuple(grid_doc["lons"]))
        mask = np.asarray(grid_doc["river_mask"], dtype=bool)
        i, j = nearest_grid_cell(GeoPoint(lat, lon), grid, valid_mask=mask)
        for row in doc.get("rows", []):
            if (int(row["i"]), int(row["j"])) == (i, j) and str(row["date"]) == when.isoformat():
                value, unit = _normalize(float(row["value"]), row.get("unit", "m³/s"), "discharge")
                return ToolResult(payload=value, units=unit, timestamps=_day_span(when),
                                  location=grid.point(i, j))
        raise NoDataForDate(f"no discharge for cell ({i}, {j}) on {when.isoformat()}")

    def _point_row(self, tool: str, lat: float, lon: float, when: date) -> dict:
        rows = nearest_row(self.store.rows(tool), lat, lon)
        if not rows:
            raise NoDataForDate(f"no {tool} fixture near ({lat}, {lon})")
        for row in rows:
            if str(row["date"]) == when.isoformat():
                return row
        raise NoDataForDate(f"{tool}: no data for {when.isoformat()}")

    # -- forecasts -----------------------------------------------------------

    def forecast(self, tool: str, lat: float, lon: float, horizon: int) -> ToolResult:
        variable = CLIMATE_TOOLS[tool].variable
        rows = nearest_row(self.store.rows(tool), lat, lon)
        if not rows:
            raise NoDataForDate(f"no {tool} fixture near ({lat}, {lon})")
        row = rows[0]
        values = row["values"]
        if horizon > len(values):
            raise HorizonTooLong(f"horizon {horizon} exceeds provider max {len(values)}")
        series = _series(
            np.datetime64(date.fromisoformat(row["start"]), "D") + np.arange(horizon),
            value_column(values[:horizon]), row.get("unit", ""), variable,
            GeoPoint(float(row["lat"]), float(row["lon"])), row.get("city"),
            source=f"fixture:{tool}",
        )
        return ToolResult(payload=series, units=series.unit,
                          timestamps=series.span(), location=series.location)

    # -- range analyses ------------------------------------------------------

    def analysis_series(self, tool: str, lat: float, lon: float,
                        start: date, end: date) -> CanonicalSeries:
        variable = CLIMATE_TOOLS[tool].variable
        rows = nearest_row(self.store.rows(tool), lat, lon)
        if not rows:
            raise EmptyRange(f"no {tool} fixture near ({lat}, {lon})")
        row = rows[0]
        days, values, missing = self._record_columns(tool, row)
        keep = (days >= np.datetime64(start, "D")) & (days <= np.datetime64(end, "D"))
        values = values[keep]
        if (np.isnan(values) != missing[keep]).any():
            raise RecordValidationError("non-finite value: nan (only None marks a missing value)")
        return _series(days[keep], values, row.get("unit", ""), variable,
                       GeoPoint(float(row["lat"]), float(row["lon"])),
                       row.get("city"), f"fixture:{tool}")

    def _record_columns(self, tool: str, row: dict) -> tuple[np.ndarray, ...]:
        """The ``datetime64[D]`` day column of a fixture row's records, its
        float64 value column (``None`` read as NaN) and the mask of its
        ``None`` values, read from the record dicts on the first call only.

        The fixture rows do not change, so the columns are kept per row. An
        entry is stored only once all three columns are built, so concurrent
        callers see a whole entry or none (and may both build it).
        """
        key = (tool, float(row["lat"]), float(row["lon"]))
        columns = self._columns.get(key)
        if columns is None:
            items = row["records"]
            raw = [item.get("value") for item in items]
            columns = (np.array([item["date"] for item in items], dtype="datetime64[D]"),
                       np.array(raw, dtype=np.float64),
                       np.array([value is None for value in raw], dtype=bool))
            self._columns[key] = columns
        return columns


class LiveClimateSource:
    """Public HTTP climate services (archive, forecast, air quality, flood)."""

    def __init__(self, config: ProviderConfig):
        self.http = HttpSession(config)

    def _days(self, tool: str, lat: float, lon: float,
              **params) -> tuple[list[str], list[float | None]]:
        """:func:`_reply_days` of ``tool``'s column at a point, read hourly from
        the air-quality endpoint and daily from the others, in UTC but for floods."""
        spec = CLIMATE_TOOLS[tool]
        params = {"latitude": lat, "longitude": lon, **params}
        params["hourly" if spec.endpoint == AIR_QUALITY else "daily"] = spec.column
        if spec.endpoint != FLOOD:
            params["timezone"] = "UTC"
        return _reply_days(self.http.get_json(spec.endpoint, params), spec.column)

    def _day_value(self, tool: str, lat: float, lon: float, when: date) -> ToolResult:
        """The canonical value of ``tool``'s column on one day."""
        spec = CLIMATE_TOOLS[tool]
        _, values = self._days(tool, lat, lon, start_date=when.isoformat(),
                               end_date=when.isoformat())
        if not values or values[0] is None:
            raise NoDataForDate(f"no {spec.variable} for {when.isoformat()}")
        value, unit = _normalize(float(values[0]), spec.unit, spec.variable)
        return ToolResult(payload=value, units=unit, timestamps=_day_span(when),
                          location=GeoPoint(lat, lon))

    def rain_inquiry(self, lat: float, lon: float, when: date) -> ToolResult:
        return self._day_value("rain_inquiry", lat, lon, when)

    def weather_inquiry(self, lat: float, lon: float, when: date) -> ToolResult:
        data = self.http.get_json(WEATHER_ARCHIVE, {
            "latitude": lat, "longitude": lon, "start_date": when.isoformat(),
            "end_date": when.isoformat(),
            "daily": "temperature_2m_mean,windspeed_10m_max,relative_humidity_2m_mean",
            "timezone": "UTC",
        })
        daily = data.get("daily", {})
        mapping = {"temperature": ("temperature_2m_mean", "°C"),
                   "wind_speed": ("windspeed_10m_max", "km/h"),
                   "humidity": ("relative_humidity_2m_mean", "%")}
        payload = {}
        for variable, (key, unit) in mapping.items():
            values = daily.get(key) or []
            if values and values[0] is not None:
                v, u = _normalize(float(values[0]), unit, variable)
                payload[variable] = {"value": v, "unit": u}
        if not payload:
            raise NoDataForDate(f"no weather for {when.isoformat()}")
        return ToolResult(payload=payload, timestamps=_day_span(when),
                          location=GeoPoint(lat, lon))

    def aqi_inquiry(self, lat: float, lon: float, when: date) -> ToolResult:
        data = self.http.get_json(AIR_QUALITY, {
            "latitude": lat, "longitude": lon, "start_date": when.isoformat(),
            "end_date": when.isoformat(),
            "hourly": "european_aqi,pm2_5,pm10,nitrogen_dioxide,ozone",
            "timezone": "UTC",
        })
        hourly = data.get("hourly", {})
        aqi_values = [v for v in (hourly.get("european_aqi") or []) if v is not None]
        if not aqi_values:
            raise NoDataForDate(f"no AQI for {when.isoformat()}")
        names = {"pm2_5": "pm25", "pm10": "pm10", "nitrogen_dioxide": "no2", "ozone": "o3"}
        pollutants = {}
        for key, variable in names.items():
            vals = [v for v in (hourly.get(key) or []) if v is not None]
            if vals:
                pollutants[variable] = _normalize(float(np.mean(vals)), "µg/m³", variable)[0]
        payload = {"aqi": float(max(aqi_values)), "pollutants": pollutants,
                   "pollutant_unit": "µg/m³"}
        return ToolResult(payload=payload, units="index", timestamps=_day_span(when),
                          location=GeoPoint(lat, lon))

    def river_discharge(self, lat: float, lon: float, when: date) -> ToolResult:
        return self._day_value("river_discharge_check", lat, lon, when)

    def forecast(self, tool: str, lat: float, lon: float, horizon: int) -> ToolResult:
        spec = CLIMATE_TOOLS[tool]
        # The reply starts today; the forecast is the ``horizon`` days after it.
        days, values = self._days(tool, lat, lon, forecast_days=horizon + 1)
        days, values = days[1:horizon + 1], values[1:horizon + 1]
        if len(values) < horizon:
            raise HorizonTooLong(f"provider returned {len(values)} of {horizon} days")
        series = _series(np.array(days, dtype="datetime64[D]"), value_column(values),
                         spec.unit, spec.variable, GeoPoint(lat, lon), None, source=f"live:{tool}")
        return ToolResult(payload=series, units=series.unit,
                          timestamps=series.span(), location=series.location)

    def analysis_series(self, tool: str, lat: float, lon: float,
                        start: date, end: date) -> CanonicalSeries:
        spec = CLIMATE_TOOLS[tool]
        days, values = self._days(tool, lat, lon, start_date=start.isoformat(),
                                  end_date=end.isoformat())
        return _series(np.array(days, dtype="datetime64[D]"), value_column(values),
                       spec.unit, spec.variable, GeoPoint(lat, lon), None,
                       source=f"live:{tool}")


def make_point_executor(source, tool: str):
    """Executor for the point-inquiry family.

    The method is looked up by name on every call, so a wrapper installed on
    the source class after binding (a profiler's) still sees the call.
    """
    method = POINT_METHODS[tool]

    def run(lat: float, lon: float, date: date) -> ToolResult:
        return getattr(source, method)(lat, lon, date)
    return run


def make_forecast_executor(source, signature: ToolSignature, default_horizon: int):
    """Executor for the forecast family.

    The horizon argument is the signature's integer parameter (``days`` or
    ``horizon``); an optional one that the call leaves out is
    ``default_horizon``.
    """
    tool = signature.name
    param = next(p.name for p in signature.params if p.type == "integer")

    def run(lat: float, lon: float, **horizon: int) -> ToolResult:
        return source.forecast(tool, lat, lon, horizon.get(param, default_horizon))
    return run


def make_analysis_executor(source, tool: str, settings):
    """Executor for the range-analysis family; thresholds come from the
    ``ToolSettings`` in ``settings``."""
    kind = tool.removesuffix("_analysis")

    def run(lat: float, lon: float, start: date, end: date) -> ToolResult:
        if not start < end:
            raise EmptyRange(f"start {start} must precede end {end}")
        series = source.analysis_series(tool, lat, lon, start, end)
        report = analyze_range(series, kind, z_threshold=settings.z_threshold,
                               aqi_exceedance=settings.aqi_exceedance,
                               rain_event_mm=settings.rain_event_mm)
        return ToolResult(payload=report, units=report.unit or None,
                          timestamps=(report.start, report.end),
                          location=series.location)
    return run
