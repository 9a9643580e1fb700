import pytest
from hypothesis import given, strategies as st

from gulfclimate.core.units import UnitTable, UnknownUnit, UnknownVariable, default_table


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


def test_fahrenheit_round_trip():
    table = default_table()
    canon, _ = table.normalize(77.0, "°F", "temperature")
    assert canon == pytest.approx(25.0)
    assert table.denormalize(canon, "°F", "temperature") == pytest.approx(77.0)


@given(
    value=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    case=st.sampled_from([
        ("temperature", "K"), ("temperature", "°F"), ("precipitation", "in"),
        ("wind_speed", "km/h"), ("pm25", "mg/m3"), ("discharge", "cfs"),
    ]),
)
def test_conversions_invertible(value, case):
    variable, unit = case
    table = default_table()
    canon, _ = table.normalize(value, unit, variable)
    back = table.denormalize(canon, unit, variable)
    assert back == pytest.approx(value, rel=1e-9, abs=1e-9)


def test_every_table_unit_invertible():
    table = default_table()
    for variable in table.variables:
        for unit in table.units_for(variable):
            canon, _ = table.normalize(123.456, unit, variable)
            assert table.denormalize(canon, unit, variable) == pytest.approx(123.456, rel=1e-9)


def test_first_entry_must_be_identity():
    with pytest.raises(Exception):
        UnitTable.from_text("temperature,K,1,-273.15\n")


def test_table_from_text_roundtrip():
    table = UnitTable.from_text("speed,m/s,1,0\nspeed,km/h,0.2777777777777778,0\n")
    assert table.canonical_unit("speed") == "m/s"
    assert table.normalize(36.0, "km/h", "speed")[0] == pytest.approx(10.0)
