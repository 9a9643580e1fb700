"""Multispectral rasters and normalized-difference index computation."""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Mapping

import numpy as np

from ..core.geo import GeoPoint
from ..errors import GulfClimateError
from .errors import MissingBand, ShapeMismatch

DEFAULT_DEGRADATION_DELTA = -0.1


class RasterValidationError(GulfClimateError, ValueError):
    pass


@dataclass(frozen=True)
class RasterImage:
    """A small multispectral scene with named reflectance bands in [0, 1]."""

    width: int
    height: int
    bands: Mapping[str, np.ndarray]
    acquired: datetime
    location: GeoPoint
    pixel_size_m: float

    def __post_init__(self) -> None:
        bands = {name: np.asarray(arr, dtype=np.float64) for name, arr in self.bands.items()}
        for name, arr in bands.items():
            if arr.shape != (self.height, self.width):
                raise RasterValidationError(
                    f"band {name!r} shape {arr.shape} != ({self.height}, {self.width})"
                )
            if np.any(~np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0:
                raise RasterValidationError(f"band {name!r} outside reflectance range [0, 1]")
            arr.setflags(write=False)
        object.__setattr__(self, "bands", bands)

    def band(self, name: str) -> np.ndarray:
        try:
            return self.bands[name]
        except KeyError:
            raise MissingBand(f"band {name!r} absent (have {sorted(self.bands)})") from None


@dataclass(frozen=True)
class IndexStats:
    vmin: float
    vmax: float
    mean: float
    valid_fraction: float


@dataclass(frozen=True)
class IndexMap:
    """Per-pixel normalized-difference index; invalid pixels stored as NaN."""

    values: np.ndarray
    index_name: str
    stats: IndexStats = field(init=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        finite = values[np.isfinite(values)]
        if finite.size:
            stats = IndexStats(vmin=float(finite.min()), vmax=float(finite.max()),
                               mean=float(finite.mean()),
                               valid_fraction=float(finite.size / values.size))
        else:
            stats = IndexStats(vmin=float("nan"), vmax=float("nan"),
                               mean=float("nan"), valid_fraction=0.0)
        object.__setattr__(self, "stats", stats)


@dataclass(frozen=True)
class ChangeReport:
    """Vegetation-index change between two acquisitions of the same scene."""

    delta_map: np.ndarray
    mean_ndvi_delta: float
    degraded_area_fraction: float
    degradation_threshold: float


def _normalized_difference(image: RasterImage, plus: str, minus: str, name: str) -> IndexMap:
    a = image.band(plus)
    b = image.band(minus)
    denom = a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(denom == 0.0, np.nan, (a - b) / denom)
    return IndexMap(values=values, index_name=name)


def calculate_ndvi(image: RasterImage) -> IndexMap:
    """(nir - red) / (nir + red); zero-denominator pixels are invalid."""
    return _normalized_difference(image, "nir", "red", "ndvi")


def calculate_ndwi(image: RasterImage) -> IndexMap:
    """(green - nir) / (green + nir); zero-denominator pixels are invalid."""
    return _normalized_difference(image, "green", "nir", "ndwi")


def desertification_analysis(image1: RasterImage, image2: RasterImage,
                             threshold: float = DEFAULT_DEGRADATION_DELTA) -> ChangeReport:
    """Compare NDVI between two same-scene images.

    ``delta_map`` is ``ndvi(image2) - ndvi(image1)`` on pixels valid in both;
    the degraded area fraction counts valid pixels with delta below
    ``threshold``.
    """
    if (image1.width, image1.height) != (image2.width, image2.height):
        raise ShapeMismatch(
            f"images differ in shape: {image1.width}x{image1.height} vs "
            f"{image2.width}x{image2.height}"
        )
    before = calculate_ndvi(image1).values
    after = calculate_ndvi(image2).values
    delta = after - before  # NaN propagates where either side is invalid
    valid = np.isfinite(delta)
    if valid.any():
        mean_delta = float(delta[valid].mean())
        degraded = float(np.count_nonzero(delta[valid] < threshold) / valid.sum())
    else:
        mean_delta = float("nan")
        degraded = 0.0
    delta.setflags(write=False)
    return ChangeReport(delta_map=delta, mean_ndvi_delta=mean_delta,
                        degraded_area_fraction=degraded, degradation_threshold=threshold)
