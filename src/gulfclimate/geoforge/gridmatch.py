"""Nearest-grid-cell retrieval for gridded climate products."""

from __future__ import annotations

import numpy as np

from ..core import GeoPoint, GridSpec
from ..errors import GulfClimateError

# Mean Earth radius in kilometres.
EARTH_RADIUS_KM = 6371.0088


class EmptyGrid(GulfClimateError, ValueError):
    """Grid has no candidate cells (empty axes or an all-false mask)."""


def _distance_matrix(city: GeoPoint, grid: GridSpec) -> np.ndarray:
    """Great-circle distance in kilometres from ``city`` to every grid cell."""
    lat = np.radians(grid.lat_array())[:, None]
    lon = np.radians(grid.lon_array())[None, :]
    clat = np.radians(city.lat)
    clon = np.radians(city.lon)
    dlat = np.abs(lat - clat)
    dlon = np.abs(lon - clon)
    h = np.sin(dlat / 2.0) ** 2 + np.cos(clat) * np.cos(lat) * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(h))


def nearest_grid_cell(city: GeoPoint, grid: GridSpec,
                      valid_mask: np.ndarray | None = None) -> tuple[int, int]:
    """Indices ``(i, j)`` of the grid cell nearest to ``city``.

    Distance ties break toward the lexicographically smallest ``(i, j)``.
    ``valid_mask`` (same shape as the grid) restricts candidates, e.g. to
    river cells of a hydrology product.
    """
    if not grid.lats or not grid.lons:
        raise EmptyGrid("grid has empty axes")
    dist = _distance_matrix(city, grid)
    if valid_mask is not None:
        mask = np.asarray(valid_mask, dtype=bool)
        if mask.shape != dist.shape:
            raise ValueError(f"mask shape {mask.shape} != grid shape {dist.shape}")
        if not mask.any():
            raise EmptyGrid("mask excludes every grid cell")
        dist = np.where(mask, dist, np.inf)
    best = np.min(dist)
    # argwhere scans in row-major order, so the first hit is the smallest (i, j)
    i, j = np.argwhere(dist == best)[0]
    return int(i), int(j)
