"""Coordinate and grid geometry types."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from ..errors import GulfClimateError


class GeoValidationError(GulfClimateError, ValueError):
    """Coordinates or grid axes violate their invariants."""


@dataclass(frozen=True)
class GeoPoint:
    """A latitude/longitude pair in degrees, validated at construction."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        lat = float(self.lat)
        lon = float(self.lon)
        if not (math.isfinite(lat) and math.isfinite(lon)):
            raise GeoValidationError(f"non-finite coordinates: ({self.lat}, {self.lon})")
        if not -90.0 <= lat <= 90.0:
            raise GeoValidationError(f"latitude out of range [-90, 90]: {lat}")
        if not -180.0 <= lon <= 180.0:
            raise GeoValidationError(f"longitude out of range [-180, 180]: {lon}")
        object.__setattr__(self, "lat", lat)
        object.__setattr__(self, "lon", lon)


def _validated_axis(values: Iterable[float], name: str) -> tuple[float, ...]:
    axis = tuple(float(v) for v in values)
    if not axis:
        raise GeoValidationError(f"{name} axis is empty")
    for a, b in zip(axis, axis[1:]):
        if not b > a:
            raise GeoValidationError(f"{name} axis not strictly increasing near {a}")
    if not all(math.isfinite(v) for v in axis):
        raise GeoValidationError(f"{name} axis contains non-finite values")
    return axis


@dataclass(frozen=True)
class GridSpec:
    """Axes of a regular lat/lon product grid.

    ``lats`` and ``lons`` are the cell-center coordinates, strictly increasing
    and never empty. Products may carry slightly irregular axes, so no spacing
    is enforced.
    """

    lats: tuple[float, ...]
    lons: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lats", _validated_axis(self.lats, "lat"))
        object.__setattr__(self, "lons", _validated_axis(self.lons, "lon"))

    def point(self, i: int, j: int) -> GeoPoint:
        return GeoPoint(lat=self.lats[i], lon=self.lons[j])
