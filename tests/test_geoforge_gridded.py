"""The block-wise gridded parser against the row-per-iteration reference kept here.

The reference is the loop the package parsed gridded bodies with before it read
them in blocks: ``splitlines`` on the whole text, then per row ``strip``,
``split``, ``date.fromisoformat``, two ``int`` calls and a ``float`` call. Its
changes are that a row's bare ``ValueError`` is tagged with the row's line, as
the package now does, and that a value beyond ``MAX_MAGNITUDE`` is rejected.
The reference groups the rows of every cell with a plain dict (the later row
of a day wins); the package, which keeps only the cell nearest the place it
loads for, is loaded once for each cell's center.
"""

import math
import re
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gulfclimate.core.geo import GridSpec
from gulfclimate.geoforge import gridded
from gulfclimate.geoforge.gridded import GriddedFormatError, GriddedProduct
from perfbench.gen import make_grid


class RefRowError(ValueError):
    """A bad row: its line, and the message when the reference loop named one
    (it raised a bare ``ValueError`` for a bad date, index or value)."""

    def __init__(self, lineno, message=None):
        super().__init__(lineno, message)
        self.lineno, self.message = lineno, message


def ref_cells(text, n_lats, n_lons):
    """(i, j) -> (day strings, value reprs) from the reference row loop."""
    lines = text.splitlines()
    body_start = next(k for k, line in enumerate(lines) if line.strip() == "---") + 1
    by_cell: dict = {}
    for lineno, line in enumerate(lines[body_start:], start=body_start + 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split(",")
        if len(parts) != 4:
            raise RefRowError(lineno, "expected date,i,j,value")
        try:
            day = date.fromisoformat(parts[0])
            i, j = int(parts[1]), int(parts[2])
        except ValueError:
            raise RefRowError(lineno) from None
        if not (0 <= i < n_lats and 0 <= j < n_lons):
            raise RefRowError(lineno, f"cell ({i}, {j}) outside grid")
        if parts[3] == "":
            value = math.nan
        else:
            try:
                value = float(parts[3])
            except ValueError:
                raise RefRowError(lineno) from None
            if not math.isfinite(value):
                raise RefRowError(lineno, f"non-finite value {parts[3]!r}")
            if abs(value) > gridded.MAX_MAGNITUDE:
                raise RefRowError(lineno, f"value {parts[3]!r} beyond 1e+150 in magnitude")
        by_cell.setdefault((i, j), {})[day] = value
    return {cell: ([d.isoformat() for d in sorted(days)], [repr(days[d]) for d in sorted(days)])
            for cell, days in by_cell.items()}


def as_ref(product):
    out = {}
    for cell, (days, values) in product.cells.items():
        assert days.dtype == np.dtype("datetime64[D]") and values.dtype == np.float64
        out[cell] = (days.astype(str).tolist(), [repr(v) for v in values.tolist()])
    return out


def grid_of(n_lats, n_lons):
    return GridSpec(lats=tuple(25.0 + k / 10 for k in range(n_lats)),
                    lons=tuple(51.0 + k / 10 for k in range(n_lons)))


def header(n_lats, n_lons):
    grid = grid_of(n_lats, n_lons)
    return ["# gridded-fixture v1", "variable: temperature", "unit: K", "cadence: daily",
            "lats: " + ",".join(map(str, grid.lats)),
            "lons: " + ",".join(map(str, grid.lons)), "---"]


# The center of cell (0, 0) of every grid ``header`` writes.
NEAR = grid_of(1, 1).point(0, 0)


def assert_same(text, n_lats, n_lons):
    """Load ``text`` for each cell's center and compare that cell, or the
    error, with the reference."""
    grid = grid_of(n_lats, n_lons)
    try:
        expected = ref_cells(text, n_lats, n_lons)
    except RefRowError as exc:
        for cell in np.ndindex(n_lats, n_lons):
            with pytest.raises(GriddedFormatError) as raised:
                GriddedProduct.from_text(text, grid.point(*cell))
            assert int(re.match(r"line (\d+): ", str(raised.value)).group(1)) == exc.lineno
            if exc.message is not None:
                assert str(raised.value) == f"line {exc.lineno}: {exc.message}"
        return
    for cell in np.ndindex(n_lats, n_lons):
        product = GriddedProduct.from_text(text, grid.point(*cell))
        assert product.cell == cell
        assert as_ref(product) == {key: expected[key] for key in [cell] if key in expected}


HEADER_LINES = len(header(1, 1))
START = date(2021, 12, 25).toordinal()
PAD = st.sampled_from(["", " ", "\t", "  \t "])
FILLER = st.sampled_from(["", "   ", "\t", "# a comment", "  # 1,2,3", "#", "#,,,"])
BAD_FIELDS = {
    "date": ["2022-02-30", "x", "2022-13-01", "", "2022-01-01 "],
    "index": ["x", "1.5", "", "-1", "9", "99999999999999999999"],
    "value": ["abc", "nan", "-inf", "Infinity", "1e999", "1.0.0", "1.5e150", "-1e308"],
}


@st.composite
def grid_texts(draw, malformed=False):
    n_lats, n_lons = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lines = header(n_lats, n_lons)
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(FILLER))
            continue
        day = date.fromordinal(START + draw(st.integers(0, 12))).isoformat()
        i = draw(st.sampled_from([str(k) for k in range(n_lats)] + [" 0", "+0", "00"]))
        j = draw(st.sampled_from([str(k) for k in range(n_lons)] + ["0 ", "-0"]))
        value = draw(st.one_of(
            st.just(""),
            st.floats(allow_nan=False, allow_infinity=False).map(repr),
            st.floats(-400, 400, allow_nan=False).map(lambda v: f"{v:.2f}"),
            st.sampled_from(["1e3", " 7", "+2.5", "-0.0", "1_000.5", ".5"])))
        lines.append(draw(PAD) + ",".join([day, i, j, value]) + draw(PAD))
    if malformed:
        for _ in range(draw(st.integers(1, 2))):
            fields = ["2022-01-01", "0", "0", "1.0"]
            kind = draw(st.sampled_from(["commas", "date", "index", "value"]))
            if kind == "commas":
                fields = draw(st.sampled_from([fields[:3], fields + ["2"], fields[:1]]))
            elif kind == "date":
                fields[0] = draw(st.sampled_from(BAD_FIELDS["date"]))
            else:
                fields[draw(st.sampled_from([1, 2])) if kind == "index" else 3] = \
                    draw(st.sampled_from(BAD_FIELDS[kind]))
            lines.insert(draw(st.integers(HEADER_LINES, len(lines))), ",".join(fields))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending])), n_lats, n_lons


BLOCK_SIZES = st.sampled_from([1, 2, 3, 5, 8, gridded.BLOCK_LINES])


@settings(max_examples=300, deadline=None)
@given(grid_texts(), BLOCK_SIZES)
def test_block_parse_matches_the_row_loop(case, block_lines):
    with mock.patch.object(gridded, "BLOCK_LINES", block_lines):
        assert_same(*case)


@settings(max_examples=300, deadline=None)
@given(grid_texts(malformed=True), BLOCK_SIZES)
def test_malformed_rows_fail_on_the_same_line(case, block_lines):
    with mock.patch.object(gridded, "BLOCK_LINES", block_lines):
        assert_same(*case)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_rows_on_both_sides_of_a_block_boundary(extra):
    # Body lines fill a whole block, give or take one, at the real block size;
    # blank and comment lines count towards a block but are not rows.
    lines = header(2, 2)
    n_body = gridded.BLOCK_LINES + extra
    for k in range(n_body):
        d = date.fromordinal(date(2000, 1, 1).toordinal() + k // 5)
        lines.append("# c" if k % 97 == 1 else f"{d.isoformat()},{k % 2},{k % 3 % 2},{k % 11}.5")
    text = "\n".join(lines) + "\n"
    assert_same(text, 2, 2)
    last = max(k for k, line in enumerate(lines) if not line.startswith("#"))
    for bad in (lines[HEADER_LINES].replace(",0,", ",x,", 1), lines[last] + ",9"):
        for k in (HEADER_LINES, last):
            bad_lines = lines[:k] + [bad] + lines[k + 1:]
            with pytest.raises(GriddedFormatError, match=f"line {k + 1}: "):
                GriddedProduct.from_text("\n".join(bad_lines) + "\n", NEAR)
            assert_same("\n".join(bad_lines) + "\n", 2, 2)


def test_a_short_row_and_a_long_row_do_not_make_up_two_rows():
    # Joined, the two rows split into eight valid fields; each row is still
    # checked for exactly three commas on its own.
    text = "\n".join(header(1, 1) + ["2022-01-01,0,0", "1,2022-01-02,0,0,5"])
    with pytest.raises(GriddedFormatError, match="line 8: expected date,i,j,value"):
        GriddedProduct.from_text(text, NEAR)


def test_from_file_on_a_benchmark_grid_matches_the_row_loop(tmp_path):
    meta = make_grid(tmp_path, seed=5, years=3)
    text = Path(meta["grid"]).read_text(encoding="utf-8")
    expected = ref_cells(text, 5, 5)
    assert len(expected) == 25
    grid = GriddedProduct.from_text(text, NEAR).grid
    for cell in expected:
        near = grid.point(*cell)
        assert as_ref(GriddedProduct.from_file(meta["grid"], near)) == {cell: expected[cell]}
        assert as_ref(GriddedProduct.from_text(text, near)) == {cell: expected[cell]}


def test_only_line_feeds_and_carriage_returns_end_a_line():
    # ``splitlines`` also splits on \x0c, \x85, U+2028 and the like; a file
    # read line by line does not, so such a character stays inside its row.
    text = "\n".join(header(1, 1)) + "\n2022-01-01,0,0,1.0\x0c2022-01-02,0,0,2.0\n"
    with pytest.raises(GriddedFormatError, match="line 8: expected date,i,j,value"):
        GriddedProduct.from_text(text, NEAR)
    # At either end of a row it is whitespace, which ``strip`` removes.
    text = "\n".join(header(1, 1)) + "\n\x0c2022-01-01,0,0,1.0 \n"
    assert as_ref(GriddedProduct.from_text(text, NEAR)) == {(0, 0): (["2022-01-01"], ["1.0"])}


def test_an_unreadable_retrieved_time_and_a_huge_value_are_named():
    lines = header(1, 1)
    for retrieved in ("", "yesterday"):
        text = "\n".join(lines[:-1] + [f"retrieved: {retrieved}", "---"])
        with pytest.raises(GriddedFormatError) as raised:
            GriddedProduct.from_text(text, NEAR)
        assert str(raised.value) == f"bad header field 'retrieved': {retrieved!r}"
    for value in ("1.2e154", "-1.0000001e150"):
        with pytest.raises(GriddedFormatError) as raised:
            GriddedProduct.from_text("\n".join(lines + [f"2022-01-01,0,0,{value}"]), NEAR)
        assert str(raised.value) == f"line 8: value {value!r} beyond 1e+150 in magnitude"
    product = GriddedProduct.from_text("\n".join(lines + ["2022-01-01,0,0,-1e150"]), NEAR)
    assert product.cells[(0, 0)][1].tolist() == [-1e150]


def test_header_errors_are_unchanged():
    lines = header(1, 1)
    with pytest.raises(GriddedFormatError, match="missing format tag"):
        GriddedProduct.from_text("", NEAR)
    with pytest.raises(GriddedFormatError, match="missing '---' separator"):
        GriddedProduct.from_text("\n".join(lines[:-1]) + "\n", NEAR)
    with pytest.raises(GriddedFormatError, match=re.escape("bad header line: '  no colon '")):
        GriddedProduct.from_text("\n".join(lines[:2] + ["  no colon "] + lines[2:]), NEAR)
    product = GriddedProduct.from_text("\n".join(lines), NEAR)
    assert product.cells == {} and product.cell == (0, 0) and product.grid.lats == (25.0,)
