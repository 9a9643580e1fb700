"""Gridded-product fixture files and the series of the grid cell nearest a place.

Format (``gridded-fixture v1``): the line ``# gridded-fixture v1``, a header
of ``key: value`` lines (variable, unit, cadence, source, retrieved, grid
axes), a ``---`` separator, then the body. Rows are date-keyed, so ``cadence``
must be ``daily``; ``lats`` and ``lons`` are comma-separated numbers as
``float`` reads them; ``retrieved``, if present, is an ISO-8601 time; a
``resolution_deg`` line is accepted and ignored. Lines end at ``\n``,
``\r\n`` or ``\r`` only. Each body line is stripped of surrounding
whitespace; blank lines and lines starting with ``#`` are skipped, and every
other line is one row ``date,i,j,value``. A row is checked in this order, and
the first check it fails names the error:

1. field count: exactly three commas;
2. date: anything ``date.fromisoformat`` reads, such as ``2022-01-31``;
3. cell index: ``i``, then ``j``, integers as ``int`` reads them;
4. cell range: ``0 <= i < len(lats)`` and ``0 <= j < len(lons)``;
5. value: empty, an explicitly missing timestep, or anything ``float`` reads;
6. range: a non-empty value is a finite number within ``MAX_MAGNITUDE``
   (1e150) of zero, so the squares that a series' statistics sum stay finite.

A file is loaded for one place: after the header, the loader picks the grid
cell nearest that place, and keeps only that cell's days and values. Every
row of every cell is still checked, and the first bad row raises
:class:`GriddedFormatError` naming its 1-based file line. Rows may come in any
order; where the kept cell has two rows for one day, the later row wins. The
body is read ``BLOCK_LINES`` lines at a time and parsed column by column, so
only one block's lines are held as strings; the same parser, run on each line
of a block that fails, finds the bad line. The extraction math is identical
whatever product the file stands in for.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from datetime import date, datetime
from itertools import compress, islice, repeat
from pathlib import Path
from typing import Iterator

import numpy as np

from ..core.geo import GeoPoint, GridSpec
from ..core.records import TIMESTAMP_DTYPE, CanonicalSeries, Provenance
from ..core.timeutil import UnparseableTimestamp, parse_utc
from ..core.units import default_table
from ..errors import GulfClimateError
from .gridmatch import nearest_grid_cell

FORMAT_TAG = "gridded-fixture v1"

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()

# Body lines parsed per block: enough to amortise the per-block column work,
# few enough that only one block's line strings are alive at a time.
BLOCK_LINES = 8192

MAX_MAGNITUDE = 1e150  # rule 6 of the module docstring

# The day and value columns of a block without rows of the kept cell.
_NO_ROWS = (np.empty(0, np.int64), np.empty(0))


class GriddedFormatError(GulfClimateError, ValueError):
    pass


class VariableAbsent(GulfClimateError, KeyError):
    """The product does not carry the requested variable."""


@dataclass(frozen=True)
class GriddedProduct:
    """One variable of one product at the grid cell nearest a place."""

    variable: str
    unit: str
    grid: GridSpec
    source: str
    retrieved_at: datetime
    # The (i, j) of the grid cell nearest the place the file was loaded for.
    cell: tuple[int, int]
    # cell -> (days, values), or empty where the file has no row of ``cell``:
    # ``datetime64[D]`` days, strictly increasing, and float64 values in
    # ``unit``, NaN where a row's value is empty.
    cells: dict

    @classmethod
    def from_text(cls, text: str, near: GeoPoint) -> "GriddedProduct":
        """Parse a file's text for the cell nearest ``near``; a header without
        ``source`` names the product ``gridded-fixture``."""
        return cls._from_lines(io.StringIO(text, newline=None), "gridded-fixture", near)

    @classmethod
    def from_file(cls, path: str | Path, near: GeoPoint) -> "GriddedProduct":
        path = Path(path)
        try:
            with path.open(encoding="utf-8") as lines:
                return cls._from_lines(lines, path.stem, near)
        except UnicodeDecodeError as exc:
            raise GriddedFormatError(f"{path}: not UTF-8: {exc}") from exc

    @classmethod
    def _from_lines(cls, lines: Iterator[str], source_name: str,
                    near: GeoPoint) -> "GriddedProduct":
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
        if header["cadence"] != "daily":
            raise GriddedFormatError(f"unsupported cadence {header['cadence']!r}")
        axes = {}
        for axis in ("lats", "lons"):
            try:
                axes[axis] = tuple(map(float, header[axis].split(",")))
            except ValueError:
                raise GriddedFormatError(f"bad header field {axis!r}: {header[axis]!r}") from None
        grid = GridSpec(**axes)
        cell = nearest_grid_cell(near, grid)
        days, values = _read_body(lines, lineno, len(grid.lats), len(grid.lons), cell)
        retrieved = header.get("retrieved", "1970-01-01T00:00:00Z")
        try:
            retrieved_at = parse_utc(retrieved)
        except UnparseableTimestamp:
            raise GriddedFormatError(f"bad header field 'retrieved': {retrieved!r}") from None
        return cls(
            variable=header["variable"], unit=header["unit"], grid=grid,
            source=header.get("source", source_name),
            retrieved_at=retrieved_at,
            cell=cell,
            cells={cell: (days, values)} if len(days) else {},
        )

    def provenance(self) -> Provenance:
        return Provenance(
            retrieved_at=self.retrieved_at,
            query=f"{self.source}/{self.variable}/cell{self.cell}",
            title=f"{self.source} {self.variable} grid cell {self.cell}",
            organization=self.source,
        )


def _read_body(lines: Iterator[str], lineno: int, n_lats: int, n_lons: int,
               cell: tuple[int, int]) -> tuple:
    """The day and value columns of ``cell``'s rows after line ``lineno``,
    one row per day, where the later row in the file wins.

    Lines are read ``BLOCK_LINES`` at a time, and each distinct date or index
    string is converted once for the whole file. A block that fails is parsed
    again one line at a time, and the first line that fails names the error.
    """
    day_of: dict[str, int] = {}
    index_of: dict[str, int] = {}
    blocks = [_NO_ROWS]
    while block := list(islice(lines, BLOCK_LINES)):
        try:
            blocks.append(_block_columns(block, day_of, index_of, n_lats, n_lons, cell))
        except GriddedFormatError:
            for lineno, line in enumerate(block, start=lineno + 1):
                try:
                    _block_columns([line], day_of, index_of, n_lats, n_lons, cell)
                except GriddedFormatError as exc:
                    raise GriddedFormatError(f"line {lineno}: {exc}") from None
            raise
        lineno += len(block)
    days, values = (np.concatenate(column)[::-1] for column in zip(*blocks))
    # The first row of a day in reversed file order is its last row in the file.
    days, first = np.unique(days, return_index=True)
    return days.view("datetime64[D]"), values[first]


def _block_columns(block: list[str], day_of: dict, index_of: dict,
                   n_lats: int, n_lons: int, cell: tuple[int, int]) -> tuple:
    """Days since the epoch and values of the rows of ``cell`` in ``block``.

    Raises :class:`GriddedFormatError` naming the first check, in the order
    of the module docstring, that a row fails; for a one-line block that row's
    first bad field.
    """
    rows = list(filter(None, map(str.strip, block)))
    text = ",".join(rows)
    if "#" in text:  # a comment line; a '#' inside a row fails a later check
        rows = [row for row in rows if row[0] != "#"]
        text = ",".join(rows)
    if not rows:
        return _NO_ROWS
    if set(map(str.count, rows, repeat(","))) != {3}:
        raise GriddedFormatError("expected date,i,j,value")
    n = len(rows)
    fields = text.split(",")
    dates, i_keys, j_keys, raw = fields[0::4], fields[1::4], fields[2::4], fields[3::4]
    for key in set(dates).difference(day_of):
        try:
            day_of[key] = date.fromisoformat(key).toordinal() - _EPOCH_ORDINAL
        except ValueError:
            raise GriddedFormatError(f"bad date {key!r}") from None
    i_set, j_set = set(i_keys), set(j_keys)
    for keys in (i_set, j_set):  # i before j, so a row names its first bad index
        for key in keys.difference(index_of):
            try:
                index_of[key] = int(key)
            except ValueError:
                raise GriddedFormatError(f"bad cell index {key!r}") from None
    if not (all(0 <= index_of[key] < n_lats for key in i_set)
            and all(0 <= index_of[key] < n_lons for key in j_set)):
        i, j = next((i, j) for i, j in zip(map(index_of.get, i_keys), map(index_of.get, j_keys))
                    if not (0 <= i < n_lats and 0 <= j < n_lons))
        raise GriddedFormatError(f"cell ({i}, {j}) outside grid")
    n_empty = raw.count("")
    try:
        values = np.fromiter(map(float, [v or "nan" for v in raw] if n_empty else raw),
                             np.float64, n)
    except ValueError:
        for value in filter(None, raw):
            try:
                float(value)
            except ValueError:
                raise GriddedFormatError(f"bad value {value!r}") from None
        raise
    # NaN, infinite or too large; every empty value is NaN, so one more is bad.
    bad = ~(np.abs(values) <= MAX_MAGNITUDE)
    if np.count_nonzero(bad) != n_empty:
        value = next(v for v, is_bad in zip(raw, bad.tolist()) if v and is_bad)
        if not np.isfinite(float(value)):
            raise GriddedFormatError(f"non-finite value {value!r}")
        raise GriddedFormatError(f"value {value!r} beyond {MAX_MAGNITUDE:g} in magnitude")
    # The index strings that name the kept cell, such as "1", "01" and "+1".
    i_hits = {key for key in i_set if index_of[key] == cell[0]}
    j_hits = {key for key in j_set if index_of[key] == cell[1]}
    kept = np.fromiter(map(i_hits.__contains__, i_keys), bool, n)
    kept &= np.fromiter(map(j_hits.__contains__, j_keys), bool, n)
    days = np.fromiter(map(day_of.__getitem__, compress(dates, kept.tolist())), np.int64)
    return days, values[kept]


def extract_series(product: GriddedProduct, variable: str,
                   city: str | None = None) -> CanonicalSeries:
    """The unit/time-normalized series at the product's grid cell.

    Covers every day between the cell's first and last observations; days
    without data become explicit-missing (NaN) values so completeness
    fractions stay computable.
    """
    if variable != product.variable:
        raise VariableAbsent(
            f"product carries {product.variable!r}, not {variable!r}"
        )
    observed = product.cells.get(product.cell)
    if observed is None:
        raise VariableAbsent(f"cell {product.cell} has no data")
    days, raw = observed
    calendar = np.arange(days[0], days[-1] + 1)
    values = np.full(len(calendar), np.nan)
    values[(days - days[0]).astype(np.int64)] = raw
    values, canonical_unit = default_table().normalize_column(values, product.unit, variable)
    return CanonicalSeries(
        timestamps=calendar.astype(TIMESTAMP_DTYPE),
        values=values,
        variable=variable,
        unit=canonical_unit,
        location=product.grid.point(*product.cell),
        city=city,
        source=product.source,
    )
