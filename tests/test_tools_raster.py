from datetime import datetime, timezone

import numpy as np
import pytest

from gulfclimate.core.geo import GeoPoint
from gulfclimate.tools.errors import MissingBand, ShapeMismatch
from gulfclimate.tools.raster import (
    RasterImage,
    RasterValidationError,
    calculate_ndvi,
    calculate_ndwi,
    desertification_analysis,
)

ACQUIRED = datetime(2023, 1, 15, tzinfo=timezone.utc)
DOHA = GeoPoint(25.29, 51.53)


def make_image(bands):
    first = next(iter(bands.values()))
    arr = np.asarray(first, dtype=float)
    return RasterImage(width=arr.shape[1], height=arr.shape[0], bands=bands,
                       acquired=ACQUIRED, location=DOHA, pixel_size_m=10.0)


def test_ndvi_matches_hand_formula():
    image = make_image({
        "red": [[0.1, 0.2], [0.3, 0.0]],
        "nir": [[0.5, 0.2], [0.6, 0.0]],
    })
    result = calculate_ndvi(image)
    assert result.values[0, 0] == pytest.approx((0.5 - 0.1) / (0.5 + 0.1), abs=1e-9)
    assert result.values[0, 0] == pytest.approx(0.6666666666666667, abs=1e-9)
    assert result.values[0, 1] == pytest.approx(0.0, abs=1e-9)
    assert result.values[1, 0] == pytest.approx(0.3 / 0.9, abs=1e-9)


def test_nir_equals_red_gives_all_zero():
    plane = np.full((4, 4), 0.25)
    image = make_image({"red": plane, "nir": plane.copy()})
    result = calculate_ndvi(image)
    assert np.allclose(result.values, 0.0)
    assert result.stats.mean == 0.0


def test_zero_denominator_pixel_excluded_from_stats():
    image = make_image({
        "red": [[0.0, 0.1], [0.2, 0.3]],
        "nir": [[0.0, 0.3], [0.4, 0.3]],
    })
    result = calculate_ndvi(image)
    assert np.isnan(result.values[0, 0])
    valid = [(0.3 - 0.1) / 0.4, (0.4 - 0.2) / 0.6, 0.0]
    assert result.stats.valid_fraction == pytest.approx(3 / 4)
    assert result.stats.mean == pytest.approx(np.mean(valid), abs=1e-9)
    assert result.stats.vmin == pytest.approx(min(valid), abs=1e-9)
    assert result.stats.vmax == pytest.approx(max(valid), abs=1e-9)


def test_ndwi_uses_green_and_nir():
    image = make_image({
        "green": [[0.4]],
        "nir": [[0.1]],
    })
    result = calculate_ndwi(image)
    assert result.index_name == "ndwi"
    assert result.values[0, 0] == pytest.approx(0.3 / 0.5, abs=1e-9)


def test_ndvi_missing_band():
    image = make_image({"red": [[0.1]], "green": [[0.1]]})
    with pytest.raises(MissingBand):
        calculate_ndvi(image)


def test_index_values_always_in_unit_interval():
    rng = np.random.default_rng(42)
    red = rng.uniform(0, 1, size=(16, 16))
    nir = rng.uniform(0, 1, size=(16, 16))
    result = calculate_ndvi(make_image({"red": red, "nir": nir}))
    finite = result.values[np.isfinite(result.values)]
    assert finite.min() >= -1.0 and finite.max() <= 1.0
    assert result.stats.mean == pytest.approx(finite.mean(), abs=1e-9)


def test_identity_change_report():
    rng = np.random.default_rng(3)
    image = make_image({
        "red": rng.uniform(0.05, 0.5, (4, 4)),
        "nir": rng.uniform(0.05, 0.9, (4, 4)),
    })
    report = desertification_analysis(image, image)
    assert np.allclose(report.delta_map[np.isfinite(report.delta_map)], 0.0)
    assert report.degraded_area_fraction == 0.0
    assert report.mean_ndvi_delta == 0.0


def test_vegetation_loss_flags_full_area():
    vegetated = make_image({
        "red": np.full((4, 4), 0.1),
        "nir": np.full((4, 4), 0.6),
    })
    bare = make_image({
        "red": np.full((4, 4), 0.3),
        "nir": np.full((4, 4), 0.32),
    })
    report = desertification_analysis(vegetated, bare)
    assert report.degraded_area_fraction == 1.0
    assert report.mean_ndvi_delta < -0.1


def test_shape_mismatch():
    a = make_image({"red": np.full((4, 4), 0.1), "nir": np.full((4, 4), 0.5)})
    b = make_image({"red": np.full((5, 5), 0.1), "nir": np.full((5, 5), 0.5)})
    with pytest.raises(ShapeMismatch):
        desertification_analysis(a, b)


def test_band_dimension_consistency_enforced():
    with pytest.raises(RasterValidationError):
        RasterImage(width=2, height=2,
                    bands={"red": np.zeros((2, 2)), "nir": np.zeros((3, 2))},
                    acquired=ACQUIRED, location=DOHA, pixel_size_m=10.0)


def test_reflectance_range_enforced():
    with pytest.raises(RasterValidationError):
        make_image({"red": [[1.5]], "nir": [[0.2]]})
