import pytest
from hypothesis import given, strategies as st

from gulfclimate.core.units import (UnitTable, UnitTableError, UnknownUnit, UnknownVariable,
                                   default_table)


def test_kelvin_to_celsius():
    value, unit = default_table().normalize(300.0, "K", "temperature")
    assert value == pytest.approx(26.85)
    assert unit == "°C"


def test_metres_to_millimetres():
    assert default_table().normalize(1.0, "m", "precipitation") == (1000.0, "mm")


def test_identity_case():
    assert default_table().normalize(5.0, "mm", "precipitation") == (5.0, "mm")


def test_unknown_unit():
    with pytest.raises(UnknownUnit):
        default_table().normalize(1.0, "furlongs", "precipitation")


def test_unknown_variable():
    with pytest.raises(UnknownVariable):
        default_table().normalize(1.0, "mm", "snark")


def test_fahrenheit_to_celsius():
    value, unit = default_table().normalize(77.0, "°F", "temperature")
    assert value == pytest.approx(25.0)
    assert unit == "°C"


@given(
    value=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    case=st.sampled_from([
        ("temperature", "K", lambda v: v - 273.15, "°C"),
        ("temperature", "°F", lambda v: (v - 32.0) * 5.0 / 9.0, "°C"),
        ("precipitation", "in", lambda v: v * 25.4, "mm"),
        ("wind_speed", "km/h", lambda v: v / 3.6, "m/s"),
        ("pm25", "mg/m3", lambda v: v * 1000.0, "µg/m³"),
        ("discharge", "cfs", lambda v: v * 0.028316846592, "m³/s"),
    ]),
)
def test_normalize_matches_the_physical_conversion(value, case):
    variable, unit, convert, canonical = case
    got, got_unit = default_table().normalize(value, unit, variable)
    assert got == pytest.approx(convert(value), rel=1e-9, abs=1e-9)
    assert got_unit == canonical


def test_zero_factor_is_rejected():
    with pytest.raises(UnitTableError, match="zero factor"):
        UnitTable.from_text("speed,m/s,1,0\nspeed,stopped,0,0\n")


def test_first_entry_must_be_identity():
    with pytest.raises(Exception):
        UnitTable.from_text("temperature,K,1,-273.15\n")


def test_table_from_text_roundtrip():
    table = UnitTable.from_text("speed,m/s,1,0\nspeed,km/h,0.2777777777777778,0\n")
    assert table.canonical_unit("speed") == "m/s"
    assert table.normalize(36.0, "km/h", "speed")[0] == pytest.approx(10.0)
