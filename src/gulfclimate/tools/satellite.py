"""Satellite retrieval and index-computation executors."""

from __future__ import annotations

from ..core.geo import GeoPoint
from ..core.timeutil import midnight_utc
from ..toolkit.types import ToolResult
from .errors import NoImagery, UnresolvableReference
from .providers import FixtureStore
from .raster import (
    RasterImage,
    calculate_ndvi,
    calculate_ndwi,
    desertification_analysis,
)


def make_satellite_executor(store: FixtureStore):
    """Fixture imagery keyed by (point rounded to 0.01 degrees, date)."""
    def run(lat: float, lon: float, date) -> ToolResult:
        when = date.isoformat()
        key = (round(lat, 2), round(lon, 2))
        for row in store.rows("get_satellite_image"):
            row_key = (round(float(row["lat"]), 2), round(float(row["lon"]), 2))
            if row_key == key and str(row["date"]) == when:
                image = RasterImage(
                    width=int(row["width"]), height=int(row["height"]),
                    bands={name: arr for name, arr in row["bands"].items()},
                    acquired=midnight_utc(date),
                    location=GeoPoint(float(row["lat"]), float(row["lon"])),
                    pixel_size_m=float(row.get("pixel_size_m", 10.0)),
                )
                return ToolResult(payload=image, timestamps=(image.acquired, image.acquired),
                                  location=image.location)
        raise NoImagery(f"no imagery for ({lat}, {lon}) on {when}")
    return run


def _require_image(value, param: str) -> RasterImage:
    if isinstance(value, RasterImage):
        return value
    raise UnresolvableReference(
        f"{param} must resolve to a retrieved image; got {type(value).__name__}"
    )


def ndvi_executor(image) -> ToolResult:
    img = _require_image(image, "image")
    return ToolResult(payload=calculate_ndvi(img), units="1",
                      timestamps=(img.acquired, img.acquired), location=img.location)


def ndwi_executor(image) -> ToolResult:
    img = _require_image(image, "image")
    return ToolResult(payload=calculate_ndwi(img), units="1",
                      timestamps=(img.acquired, img.acquired), location=img.location)


def make_change_executor(degradation_threshold: float):
    def run(image1, image2) -> ToolResult:
        img1 = _require_image(image1, "image1")
        img2 = _require_image(image2, "image2")
        report = desertification_analysis(img1, img2, threshold=degradation_threshold)
        return ToolResult(payload=report, units="1",
                          timestamps=(img1.acquired, img2.acquired),
                          location=img1.location)
    return run
