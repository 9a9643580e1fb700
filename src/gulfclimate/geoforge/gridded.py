"""Gridded-product fixture files and per-cell series extraction.

Format (``gridded-fixture v1``): the line ``# gridded-fixture v1``, a header
of ``key: value`` lines (variable, unit, cadence, source, retrieved, grid
axes), a ``---`` separator, then the body. Lines end at ``\n``, ``\r\n`` or
``\r`` only. Each body line is stripped of surrounding whitespace; blank lines
and lines starting with ``#`` are skipped, and every other line is one row
``date,i,j,value`` with exactly three commas:

- ``date`` is anything ``date.fromisoformat`` reads, such as ``2022-01-31``;
- ``i`` and ``j`` are integers as ``int`` reads them, with ``0 <= i < len(lats)``
  and ``0 <= j < len(lons)``;
- ``value`` is empty, an explicitly missing timestep, or anything ``float``
  reads as a finite number.

Rows may come in any order; where a cell has two rows for one day, the later
row wins. Every row of every cell is checked at load, and the first bad row
raises :class:`GriddedFormatError` naming its 1-based file line. The body is
read ``BLOCK_LINES`` lines at a time and parsed column by column, so only one
block's lines are held as strings. The extraction math is identical whatever
product the file stands in for.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from datetime import date, datetime
from itertools import islice, repeat
from pathlib import Path
from typing import Iterator, NoReturn

import numpy as np

from ..core import (
    TIMESTAMP_DTYPE,
    CanonicalSeries,
    GridSpec,
    Provenance,
    default_table,
    parse_utc,
)
from ..errors import GulfClimateError

FORMAT_TAG = "gridded-fixture v1"

# v1 rows are date-keyed, so only daily cadence is representable.
CADENCES = {"daily": np.timedelta64(1, "D")}

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()

# Body lines parsed per block: enough to amortise the per-block column work,
# few enough that only one block's line strings are alive at a time.
BLOCK_LINES = 8192

# The day, cell-id and value columns of a block without rows.
_NO_ROWS = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))


class GriddedFormatError(GulfClimateError, ValueError):
    pass


class VariableAbsent(GulfClimateError, KeyError):
    """The product does not carry the requested variable."""


@dataclass(frozen=True)
class GriddedProduct:
    """One variable of one product on one grid, loaded fully in memory."""

    variable: str
    unit: str
    cadence: str
    grid: GridSpec
    source: str
    retrieved_at: datetime
    # (i, j) -> (days, values): ``datetime64[D]`` days, strictly increasing,
    # and float64 values in ``unit``, NaN where a row's value is empty.
    cells: dict

    @classmethod
    def from_text(cls, text: str) -> "GriddedProduct":
        """Parse a file's text; a header without ``source`` names the
        product ``gridded-fixture``."""
        return cls._from_lines(io.StringIO(text, newline=None), "gridded-fixture")

    @classmethod
    def from_file(cls, path: str | Path) -> "GriddedProduct":
        path = Path(path)
        with path.open(encoding="utf-8") as lines:
            return cls._from_lines(lines, path.stem)

    @classmethod
    def _from_lines(cls, lines: Iterator[str], source_name: str) -> "GriddedProduct":
        if next(lines, "").strip() != f"# {FORMAT_TAG}":
            raise GriddedFormatError(f"missing format tag '# {FORMAT_TAG}'")
        header: dict[str, str] = {}
        for lineno, line in enumerate(lines, start=2):
            stripped = line.strip()
            if stripped == "---":
                break
            if not stripped or stripped.startswith("#"):
                continue
            if ":" not in stripped:
                line = line.removesuffix("\n")
                raise GriddedFormatError(f"bad header line: {line!r}")
            key, _, value = stripped.partition(":")
            header[key.strip()] = value.strip()
        else:
            raise GriddedFormatError("missing '---' separator")
        for required in ("variable", "unit", "cadence", "lats", "lons"):
            if required not in header:
                raise GriddedFormatError(f"missing header field {required!r}")
        if header["cadence"] not in CADENCES:
            raise GriddedFormatError(f"unsupported cadence {header['cadence']!r}")
        grid = GridSpec(
            lats=tuple(float(v) for v in header["lats"].split(",")),
            lons=tuple(float(v) for v in header["lons"].split(",")),
            resolution_deg=float(header.get("resolution_deg", "0.1")),
        )
        cells = _cells(*_read_body(lines, lineno, len(grid.lats), len(grid.lons)), len(grid.lons))
        retrieved = header.get("retrieved", "1970-01-01T00:00:00Z")
        return cls(
            variable=header["variable"], unit=header["unit"],
            cadence=header["cadence"], grid=grid,
            source=header.get("source", source_name),
            retrieved_at=parse_utc(retrieved),
            cells=cells,
        )

    def provenance(self, cell: tuple[int, int]) -> Provenance:
        return Provenance(
            retrieved_at=self.retrieved_at,
            query=f"{self.source}/{self.variable}/cell{cell}",
            title=f"{self.source} {self.variable} grid cell {cell}",
            organization=self.source,
        )


def _read_body(lines: Iterator[str], lineno: int, n_lats: int, n_lons: int) -> tuple:
    """The day, cell-id and value columns of the body rows after line ``lineno``.

    Lines are read ``BLOCK_LINES`` at a time, and each distinct date or index
    string is converted once for the whole file.
    """
    day_of: dict[str, int] = {}
    index_of: dict[str, int] = {}
    blocks = [_NO_ROWS]
    while block := list(islice(lines, BLOCK_LINES)):
        columns = _block_columns(block, day_of, index_of, n_lats, n_lons)
        if columns is None:
            _raise_first_bad_row(block, lineno, n_lats, n_lons)
        blocks.append(columns)
        lineno += len(block)
    days, cell_ids, values = (np.concatenate(column) for column in zip(*blocks))
    return days.view("datetime64[D]"), cell_ids, values


def _block_columns(block: list[str], day_of: dict, index_of: dict,
                   n_lats: int, n_lons: int) -> tuple | None:
    """Days since the epoch, cell ids and values of the rows in ``block``, or
    None when any row fails a check of :func:`_row_problem`."""
    rows = list(filter(None, map(str.strip, block)))
    text = ",".join(rows)
    if "#" in text:  # a comment line; a '#' inside a row fails a later check
        rows = [row for row in rows if row[0] != "#"]
        text = ",".join(rows)
    if not rows:
        return _NO_ROWS
    if set(map(str.count, rows, repeat(","))) != {3}:
        return None
    n = len(rows)
    fields = text.split(",")
    dates, i_keys, j_keys, raw = fields[0::4], fields[1::4], fields[2::4], fields[3::4]
    i_set, j_set = set(i_keys), set(j_keys)
    n_empty = raw.count("")
    try:
        for key in set(dates).difference(day_of):
            day_of[key] = date.fromisoformat(key).toordinal() - _EPOCH_ORDINAL
        for key in (i_set | j_set).difference(index_of):
            index_of[key] = int(key)
        values = np.fromiter(map(float, [v or "nan" for v in raw] if n_empty else raw),
                             np.float64, n)
    except ValueError:
        return None
    if not (all(0 <= index_of[key] < n_lats for key in i_set)
            and all(0 <= index_of[key] < n_lons for key in j_set)):
        return None
    # Every empty value is NaN, so one NaN more means a non-empty "nan".
    if np.isinf(values).any() or np.count_nonzero(np.isnan(values)) != n_empty:
        return None
    cell_ids = (np.fromiter(map(index_of.__getitem__, i_keys), np.int64, n) * n_lons
                + np.fromiter(map(index_of.__getitem__, j_keys), np.int64, n))
    return np.fromiter(map(day_of.__getitem__, dates), np.int64, n), cell_ids, values


def _raise_first_bad_row(block: list[str], lineno: int, n_lats: int, n_lons: int) -> NoReturn:
    """Raise the error of the first row in ``block``, which follows line
    ``lineno``, that fails a check."""
    for lineno, line in enumerate(block, start=lineno + 1):
        row = line.strip()
        if row and not row.startswith("#") and (problem := _row_problem(row, n_lats, n_lons)):
            raise GriddedFormatError(f"line {lineno}: {problem}")
    raise AssertionError("a block was rejected but none of its rows fails a check")


def _row_problem(row: str, n_lats: int, n_lons: int) -> str | None:
    """What is wrong with one stripped body row, or None if it is valid."""
    parts = row.split(",")
    if len(parts) != 4:
        return "expected date,i,j,value"
    day, *index_keys, value = parts
    try:
        date.fromisoformat(day)
    except ValueError:
        return f"bad date {day!r}"
    cell = []
    for key in index_keys:
        try:
            cell.append(int(key))
        except ValueError:
            return f"bad cell index {key!r}"
    i, j = cell
    if not (0 <= i < n_lats and 0 <= j < n_lons):
        return f"cell ({i}, {j}) outside grid"
    if value:
        try:
            number = float(value)
        except ValueError:
            return f"bad value {value!r}"
        if not math.isfinite(number):
            return f"non-finite value {value!r}"
    return None


def _cells(days: np.ndarray, cell_ids: np.ndarray, values: np.ndarray, n_lons: int) -> dict:
    """Group rows, given as columns, into day and value columns per cell.

    ``cell_ids`` holds ``i * n_lons + j``. Rows may come in any order; where a
    cell has two rows for one day, the later row in the file wins.
    """
    if not len(days):
        return {}
    order = np.lexsort((days, cell_ids))  # stable: file order among equal keys
    days, cell_ids, values = days[order], cell_ids[order], values[order]
    cell_end = np.append(cell_ids[1:] != cell_ids[:-1], True)
    kept = cell_end | np.append(days[1:] != days[:-1], True)  # the last row of each day
    splits = (np.flatnonzero(cell_end[kept]) + 1)[:-1]
    return dict(zip((divmod(cell, n_lons) for cell in cell_ids[cell_end].tolist()),
                    zip(np.split(days[kept], splits), np.split(values[kept], splits))))


def extract_series(product: GriddedProduct, cell: tuple[int, int], variable: str,
                   city: str | None = None) -> CanonicalSeries:
    """The unit/time-normalized series at one grid cell.

    Covers the full calendar between the cell's first and last observations
    at the product cadence; timesteps without data become explicit-missing
    (NaN) values so completeness fractions stay computable.
    """
    if variable != product.variable:
        raise VariableAbsent(
            f"product carries {product.variable!r}, not {variable!r}"
        )
    observed = product.cells.get(tuple(cell))
    if observed is None:
        raise VariableAbsent(f"cell {tuple(cell)} has no data")
    days, raw = observed
    step = CADENCES[product.cadence]
    calendar = np.arange(days[0], days[-1] + step, step)
    values = np.full(len(calendar), np.nan)
    values[(days - days[0]) // step] = raw
    values, canonical_unit = default_table().normalize_column(values, product.unit, variable)
    return CanonicalSeries(
        timestamps=calendar.astype(TIMESTAMP_DTYPE),
        values=values,
        variable=variable,
        unit=canonical_unit,
        location=product.grid.point(cell[0], cell[1]),
        city=city,
        source=product.source,
    )
