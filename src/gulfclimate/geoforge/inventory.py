"""Gulf city inventory: name -> coordinates, with fuzzy lookup."""

from __future__ import annotations

import csv
import difflib
import io
import re
from dataclasses import dataclass
from importlib import resources

from ..core import GeoPoint
from ..errors import GulfClimateError

GULF_COUNTRIES = ("Bahrain", "Kuwait", "Oman", "Qatar", "Saudi Arabia", "UAE")

# Generous box around the six Gulf states (lat_min, lat_max, lon_min, lon_max).
GULF_BOUNDING_BOX = (15.0, 33.0, 34.0, 61.0)

# Lowest name similarity a fuzzy lookup accepts.
SIMILARITY_FLOOR = 0.8


class InventoryError(GulfClimateError, ValueError):
    pass


class UnknownRegion(GulfClimateError, KeyError):
    """No inventory entry matches the requested region name."""


@dataclass(frozen=True)
class CityEntry:
    city: str
    country: str
    location: GeoPoint


def _normalize_name(name: str) -> str:
    return re.sub(r"\s+", " ", name.strip().casefold())


class CityInventory:
    """Named Gulf locations, validated against a bounding box."""

    def __init__(self, entries: list[CityEntry]):
        lat_min, lat_max, lon_min, lon_max = GULF_BOUNDING_BOX
        seen: set[tuple[str, str]] = set()
        for e in entries:
            if e.country not in GULF_COUNTRIES:
                raise InventoryError(f"{e.city}: country {e.country!r} not in the Gulf set")
            key = (_normalize_name(e.city), e.country)
            if key in seen:
                raise InventoryError(f"duplicate city {e.city!r} in {e.country}")
            seen.add(key)
            p = e.location
            if not (lat_min <= p.lat <= lat_max and lon_min <= p.lon <= lon_max):
                raise InventoryError(f"{e.city}: {p} outside the Gulf bounding box")
        self._entries = tuple(entries)
        self._by_name = {_normalize_name(e.city): e for e in entries}

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    @classmethod
    def default(cls) -> "CityInventory":
        """The packaged ``cities.csv`` (``city,country,lat,lon``)."""
        text = resources.files("gulfclimate.geoforge.data").joinpath("cities.csv").read_text("utf-8")
        return cls([
            CityEntry(city=row["city"], country=row["country"],
                      location=GeoPoint(lat=float(row["lat"]), lon=float(row["lon"])))
            for row in csv.DictReader(io.StringIO(text))
        ])

    def lookup(self, region: str) -> CityEntry:
        """Resolve a region name, tolerating case/spacing and small typos."""
        if not region or not region.strip():
            raise UnknownRegion("empty region name")
        wanted = _normalize_name(region)
        hit = self._by_name.get(wanted)
        if hit is not None:
            return hit
        best_name, best_score = None, 0.0
        for name in self._by_name:
            score = difflib.SequenceMatcher(None, wanted, name).ratio()
            if score > best_score:
                best_name, best_score = name, score
        if best_name is not None and best_score >= SIMILARITY_FLOOR:
            return self._by_name[best_name]
        raise UnknownRegion(region)
