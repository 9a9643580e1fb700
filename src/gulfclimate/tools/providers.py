"""Provider abstraction: deterministic fixture files or live HTTP services.

Fixture layout: one JSON document per tool under the fixture root, named
``<tool>.json``. Fixture providers are pure reads and fully deterministic.
Most documents are ``{"version": 1, "rows": [...]}``; a row holds the keys a
query is matched on, then its data:

- point inquiries (``rain_inquiry``, ``weather_inquiry``, ``aqi_inquiry``):
  ``lat``, ``lon`` and an ISO ``date``, then ``value`` and ``unit``;
  ``values`` and ``units`` keyed by variable; or ``aqi``, ``pollutants`` and
  ``pollutant_unit``;
- forecasts (``*_forecast``, ``*_prediction``): ``lat``, ``lon``, ``city``,
  ``start`` (the first ISO date), ``unit`` and one entry of ``values`` per day;
- range analyses (``*_analysis``): ``lat``, ``lon``, ``city``, ``unit`` and
  ``records`` of ``{"date", "value"}``, where ``value`` may be null;
- ``river_discharge_check``: a ``grid`` (``lats``, ``lons`` and a 0/1
  ``river_mask``; a ``resolution_deg`` key is accepted and ignored) beside
  daily rows of ``i``, ``j``, ``date``, ``value`` and ``unit`` for one grid
  cell;
- ``get_satellite_image``: ``lat``, ``lon``, ``date``, ``width``, ``height``,
  ``pixel_size_m`` and ``bands`` (``red``, ``green``, ``nir``, each a list of
  pixel rows);
- ``detect_bird``, ``detect_species``: ``ref`` and ``candidates`` as
  ``[name, confidence]`` pairs.

Climate rows answer the query point through :func:`nearest_row` (at most
0.25 degrees away), imagery rows the point rounded to 0.01 degrees.
``online_search.json`` has no rows. It is an object whose ``queries`` object
maps the ``query_key`` of a query to an object ``{"query", "results",
"retrieved_at"}``, with ``results`` an array of result objects (each a
``title``, a string ``url`` and a ``snippet``) and ``retrieved_at`` a string
or null, and whose ``pages`` object maps a URL to an object
``{"content_type", "text"}`` with ``text`` a string; a document, table,
entry or field of another shape is a ``ProviderFailure`` when a search reads
it. ``carbon_factors.csv`` holds the
emission factors: a header naming ``country``, ``industry``, ``year`` and
``factor``, then one row per factor, with an integer year and a number above 0
as its factor; a file of another shape raises ``FactorTableError`` naming its
line when the registry is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..errors import ConfigError
from ..httpjson import BadResponse, HttpStatusError, request_json
from .errors import ProviderFailure

PROVIDER_KINDS = ("fixture", "live_http")

# Farthest a climate fixture row may sit from the query point, in degrees of
# latitude or longitude.
NEAREST_ROW_MAX_DEG = 0.25


@dataclass(frozen=True)
class ProviderConfig:
    """Where tool data comes from: fixture files under ``fixture_root``, or the
    public HTTP services ``LiveClimateSource`` calls, each request bounded by
    ``timeout_s``."""

    kind: str = "fixture"
    fixture_root: Path | None = None
    timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in PROVIDER_KINDS:
            raise ConfigError(f"unknown provider kind {self.kind!r}")
        if self.kind == "fixture" and self.fixture_root is None:
            raise ConfigError("fixture provider requires fixture_root")


class FixtureStore:
    """Lazy, cached access to per-tool fixture documents."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        if not self.root.is_dir():
            raise ConfigError(f"fixture root {self.root} is not a directory")
        self._cache: dict[str, Any] = {}

    def document(self, name: str) -> Any:
        if name not in self._cache:
            path = self.root / f"{name}.json"
            if not path.is_file():
                raise ProviderFailure(f"no fixture file for {name!r} under {self.root}")
            try:
                self._cache[name] = json.loads(path.read_text(encoding="utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:  # JSON is UTF-8
                raise ProviderFailure(f"fixture {path} is not valid JSON: {exc}") from exc
        return self._cache[name]

    def rows(self, name: str) -> list[dict]:
        doc = self.document(name)
        rows = doc.get("rows") if isinstance(doc, dict) else None
        if not isinstance(rows, list):
            raise ProviderFailure(f"fixture {name!r} has no 'rows' array")
        return rows


class HttpSession:
    """Thin wrapper so live providers share timeout and error mapping.

    ``get_json`` raises ``TimeoutError`` on a timeout and ``ProviderFailure``
    on any other failure. Each call opens its own connection through
    ``opener`` (``urllib.request.urlopen`` unless a test injects another), so
    a live tool may be executed from several harness threads at once.
    """

    def __init__(self, config: ProviderConfig, opener: Callable | None = None):
        self.config = config
        self.opener = opener

    def get_json(self, url: str, params: dict | None = None) -> Any:
        try:
            return request_json(url, timeout=self.config.timeout_s, params=params,
                                opener=self.opener)
        except (HttpStatusError, ConnectionError, BadResponse) as exc:
            raise ProviderFailure(str(exc)) from exc


def nearest_row(rows: list[dict], lat: float, lon: float) -> list[dict]:
    """Fixture rows whose planted coordinates sit nearest to the query point.

    Returns every row sharing the winning location (callers then filter by
    date or other keys); empty when nothing lies within ``NEAREST_ROW_MAX_DEG``.
    """
    best: tuple[float, float] | None = None
    best_d = NEAREST_ROW_MAX_DEG
    for row in rows:
        d = max(abs(float(row["lat"]) - lat), abs(float(row["lon"]) - lon))
        if d <= best_d:
            best_d = d
            best = (float(row["lat"]), float(row["lon"]))
    if best is None:
        return []
    return [r for r in rows if (float(r["lat"]), float(r["lon"])) == best]
