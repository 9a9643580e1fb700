"""The block-wise gridded parser against the row-per-iteration reference kept here.

The reference is the loop the package parsed gridded bodies with before it read
them in blocks: ``splitlines`` on the whole text, then per row ``strip``,
``split``, ``date.fromisoformat``, two ``int`` calls and a ``float`` call. Its
only change is that a row's bare ``ValueError`` is tagged with the row's line,
as the package now does. The reference groups rows with a plain dict (the later
row of a day wins), not with the package's ``_cells``.
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
        by_cell.setdefault((i, j), {})[day] = value
    return {cell: ([d.isoformat() for d in sorted(days)], [repr(days[d]) for d in sorted(days)])
            for cell, days in by_cell.items()}


def as_ref(product):
    out = {}
    for cell, (days, values) in product.cells.items():
        assert days.dtype == np.dtype("datetime64[D]") and values.dtype == np.float64
        out[cell] = (days.astype(str).tolist(), [repr(v) for v in values.tolist()])
    return out


def header(n_lats, n_lons):
    return ["# gridded-fixture v1", "variable: temperature", "unit: K", "cadence: daily",
            "lats: " + ",".join(str(25.0 + k / 10) for k in range(n_lats)),
            "lons: " + ",".join(str(51.0 + k / 10) for k in range(n_lons)), "---"]


def assert_same(text, n_lats, n_lons):
    try:
        expected = ref_cells(text, n_lats, n_lons)
    except RefRowError as exc:
        with pytest.raises(GriddedFormatError) as raised:
            GriddedProduct.from_text(text)
        assert int(re.match(r"line (\d+): ", str(raised.value)).group(1)) == exc.lineno
        if exc.message is not None:
            assert str(raised.value) == f"line {exc.lineno}: {exc.message}"
        return
    assert as_ref(GriddedProduct.from_text(text)) == expected


HEADER_LINES = len(header(1, 1))
START = date(2021, 12, 25).toordinal()
PAD = st.sampled_from(["", " ", "\t", "  \t "])
FILLER = st.sampled_from(["", "   ", "\t", "# a comment", "  # 1,2,3", "#", "#,,,"])
BAD_FIELDS = {
    "date": ["2022-02-30", "x", "2022-13-01", "", "2022-01-01 "],
    "index": ["x", "1.5", "", "-1", "9", "99999999999999999999"],
    "value": ["abc", "nan", "-inf", "Infinity", "1e999", "1.0.0"],
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
                GriddedProduct.from_text("\n".join(bad_lines) + "\n")
            assert_same("\n".join(bad_lines) + "\n", 2, 2)


def test_a_short_row_and_a_long_row_do_not_make_up_two_rows():
    # Joined, the two rows split into eight valid fields; each row is still
    # checked for exactly three commas on its own.
    text = "\n".join(header(1, 1) + ["2022-01-01,0,0", "1,2022-01-02,0,0,5"])
    with pytest.raises(GriddedFormatError, match="line 8: expected date,i,j,value"):
        GriddedProduct.from_text(text)


def test_from_file_on_a_benchmark_grid_matches_the_row_loop(tmp_path):
    meta = make_grid(tmp_path, seed=5, years=3)
    text = Path(meta["grid"]).read_text(encoding="utf-8")
    expected = ref_cells(text, 5, 5)
    assert len(expected) == 25
    assert as_ref(GriddedProduct.from_file(meta["grid"])) == expected
    assert as_ref(GriddedProduct.from_text(text)) == expected


def test_only_line_feeds_and_carriage_returns_end_a_line():
    # ``splitlines`` also splits on \x0c, \x85, U+2028 and the like; a file
    # read line by line does not, so such a character stays inside its row.
    text = "\n".join(header(1, 1)) + "\n2022-01-01,0,0,1.0\x0c2022-01-02,0,0,2.0\n"
    with pytest.raises(GriddedFormatError, match="line 8: expected date,i,j,value"):
        GriddedProduct.from_text(text)
    # At either end of a row it is whitespace, which ``strip`` removes.
    text = "\n".join(header(1, 1)) + "\n\x0c2022-01-01,0,0,1.0 \n"
    assert as_ref(GriddedProduct.from_text(text)) == {(0, 0): (["2022-01-01"], ["1.0"])}


def test_header_errors_are_unchanged():
    lines = header(1, 1)
    with pytest.raises(GriddedFormatError, match="missing format tag"):
        GriddedProduct.from_text("")
    with pytest.raises(GriddedFormatError, match="missing '---' separator"):
        GriddedProduct.from_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(GriddedFormatError, match=re.escape("bad header line: '  no colon '")):
        GriddedProduct.from_text("\n".join(lines[:2] + ["  no colon "] + lines[2:]))
    product = GriddedProduct.from_text("\n".join(lines))
    assert product.cells == {} and product.grid.lats == (25.0,)
