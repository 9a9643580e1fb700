"""The exact error text of malformed gridded fixtures: one bad body row, and
header axes that ``float`` cannot read."""

import json
from itertools import permutations
from pathlib import Path

import pytest

from gulfclimate.cli.main import EXIT_CONFIG, main
from gulfclimate.core.geo import GeoPoint
from gulfclimate.geoforge.gridded import GriddedFormatError, GriddedProduct

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# A 2 x 2 grid; the first body row is line 8.
HEADER = ["# gridded-fixture v1", "variable: temperature", "unit: K", "cadence: daily",
          "lats: 25.0,25.1", "lons: 51.0,51.1", "---"]
NEAR = GeoPoint(25.0, 51.0)


@pytest.mark.parametrize("row, message", [
    ("2022-01-01,0,0", "expected date,i,j,value"),
    ("2022-01-01,0,0,1.0,2", "expected date,i,j,value"),
    ("2022-13-01,0,0,1.0", "bad date '2022-13-01'"),
    ("2022-01-01,x,0,1.0", "bad cell index 'x'"),
    ("2022-01-01,0,1.5,1.0", "bad cell index '1.5'"),
    ("2022-01-01,5,0,1.0", "cell (5, 0) outside grid"),
    ("2022-01-01,0,-1,1.0", "cell (0, -1) outside grid"),
    ("2022-01-01,99999999999999999999,0,1.0",
     "cell (99999999999999999999, 0) outside grid"),
    ("2022-01-01,0,0,abc", "bad value 'abc'"),
    ("2022-01-01,0,0,nan", "non-finite value 'nan'"),
    ("2022-01-01,0,0,-inf", "non-finite value '-inf'"),
    ("2022-01-01,5,0,abc", "cell (5, 0) outside grid"),
    ("2022-01-01,x,y,1.0", "bad cell index 'x'"),
    ("2022-01-01,y,x,1.0", "bad cell index 'y'"),
    ("x,y,z,abc", "bad date 'x'"),
], ids=["short", "long", "date", "i", "j", "i_range", "j_range", "huge_i", "value",
        "nan", "inf", "range_before_value", "x_y", "y_x", "date_first"])
def test_a_bad_row_is_named_with_its_line(row, message):
    with pytest.raises(GriddedFormatError) as raised:
        GriddedProduct.from_text("\n".join(HEADER + [row]) + "\n", NEAR)
    assert str(raised.value) == f"line 8: {message}"


def test_a_row_with_two_bad_indices_names_its_first():
    # A set of two strings iterates in an order that follows the hash seed,
    # so one pair alone can pass for a parser that converts the keys as a set.
    for i, j in permutations(["x", "y", "z", "u", "v", "w"], 2):
        with pytest.raises(GriddedFormatError) as raised:
            GriddedProduct.from_text("\n".join(HEADER + [f"2022-01-01,{i},{j},1.0"]), NEAR)
        assert str(raised.value) == f"line 8: bad cell index {i!r}"


@pytest.mark.parametrize("axis, value", [
    ("lats", "25.0,x"), ("lats", ""), ("lons", "51.0,,51.2")])
def test_an_unreadable_header_axis_is_a_format_error(tmp_path, capsys, axis, value):
    lines = [f"{axis}: {value}" if line.startswith(f"{axis}:") else line for line in HEADER]
    with pytest.raises(GriddedFormatError) as raised:
        GriddedProduct.from_text("\n".join(lines) + "\n", NEAR)
    message = f"bad header field {axis!r}: {value!r}"
    assert str(raised.value) == message

    path = tmp_path / "grid.txt"
    path.write_text("\n".join(lines) + "\n2022-01-01,0,0,1.0\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"provider": {"fixture_root": str(FIXTURES)},
                                  "output_dir": "out"}), encoding="utf-8")
    argv = ["forge", "visual", "--config", str(config), "--gridded", str(path),
            "--city", "Doha", "--variable", "temperature"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()
