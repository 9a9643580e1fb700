"""Gridded-product fixture files and per-cell series extraction.

Format (``gridded-fixture v1``): the line ``# gridded-fixture v1``, a header
of ``key: value`` lines (variable, unit, cadence, source, retrieved, grid
axes), a ``---`` separator, then the body. Rows are date-keyed, so ``cadence``
must be ``daily``; ``lats`` and ``lons`` are comma-separated numbers as
``float`` reads them; a ``resolution_deg`` line is accepted and ignored. Lines
end at ``\n``, ``\r\n`` or ``\r`` only. Each body line is stripped of
surrounding whitespace; blank lines and lines starting with ``#`` are skipped,
and every other line is one row ``date,i,j,value``. A row is checked in this
order, and the first check it fails names the error:

1. field count: exactly three commas;
2. date: anything ``date.fromisoformat`` reads, such as ``2022-01-31``;
3. cell index: ``i``, then ``j``, integers as ``int`` reads them;
4. cell range: ``0 <= i < len(lats)`` and ``0 <= j < len(lons)``;
5. value: empty, an explicitly missing timestep, or anything ``float`` reads;
6. finiteness: a non-empty value is a finite number.

Rows may come in any order; where a cell has two rows for one day, the later
row wins. Every row of every cell is checked at load, and the first bad row
raises :class:`GriddedFormatError` naming its 1-based file line. The body is
read ``BLOCK_LINES`` lines at a time and parsed column by column, so only one
block's lines are held as strings; the same parser, run on each line of a
block that fails, finds the bad line. The extraction math is identical
whatever product the file stands in for.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from datetime import date, datetime
from itertools import islice, repeat
from pathlib import Path
from typing import Iterator

import numpy as np

from ..core.geo import GridSpec
from ..core.records import TIMESTAMP_DTYPE, CanonicalSeries, Provenance
from ..core.timeutil import parse_utc
from ..core.units import default_table
from ..errors import GulfClimateError

FORMAT_TAG = "gridded-fixture v1"

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
        try:
            with path.open(encoding="utf-8") as lines:
                return cls._from_lines(lines, path.stem)
        except UnicodeDecodeError as exc:
            raise GriddedFormatError(f"{path}: not UTF-8: {exc}") from exc

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
        if header["cadence"] != "daily":
            raise GriddedFormatError(f"unsupported cadence {header['cadence']!r}")
        axes = {}
        for axis in ("lats", "lons"):
            try:
                axes[axis] = tuple(map(float, header[axis].split(",")))
            except ValueError:
                raise GriddedFormatError(f"bad header field {axis!r}: {header[axis]!r}") from None
        grid = GridSpec(**axes)
        cells = _cells(*_read_body(lines, lineno, len(grid.lats), len(grid.lons)), len(grid.lons))
        retrieved = header.get("retrieved", "1970-01-01T00:00:00Z")
        return cls(
            variable=header["variable"], unit=header["unit"], grid=grid,
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
    string is converted once for the whole file. A block that fails is parsed
    again one line at a time, and the first line that fails names the error.
    """
    day_of: dict[str, int] = {}
    index_of: dict[str, int] = {}
    blocks = [_NO_ROWS]
    while block := list(islice(lines, BLOCK_LINES)):
        try:
            blocks.append(_block_columns(block, day_of, index_of, n_lats, n_lons))
        except GriddedFormatError:
            for lineno, line in enumerate(block, start=lineno + 1):
                try:
                    _block_columns([line], day_of, index_of, n_lats, n_lons)
                except GriddedFormatError as exc:
                    raise GriddedFormatError(f"line {lineno}: {exc}") from None
            raise
        lineno += len(block)
    days, cell_ids, values = (np.concatenate(column) for column in zip(*blocks))
    return days.view("datetime64[D]"), cell_ids, values


def _block_columns(block: list[str], day_of: dict, index_of: dict,
                   n_lats: int, n_lons: int) -> tuple:
    """Days since the epoch, cell ids and values of the rows in ``block``.

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
    # Every empty value is NaN, so one NaN more means a non-empty "nan".
    if np.isinf(values).any() or np.count_nonzero(np.isnan(values)) != n_empty:
        value = next(v for v, finite in zip(raw, np.isfinite(values).tolist()) if v and not finite)
        raise GriddedFormatError(f"non-finite value {value!r}")
    cell_ids = (np.fromiter(map(index_of.__getitem__, i_keys), np.int64, n) * n_lons
                + np.fromiter(map(index_of.__getitem__, j_keys), np.int64, n))
    return np.fromiter(map(day_of.__getitem__, dates), np.int64, n), cell_ids, values


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

    Covers every day between the cell's first and last observations; days
    without data become explicit-missing (NaN) values so completeness
    fractions stay computable.
    """
    if variable != product.variable:
        raise VariableAbsent(
            f"product carries {product.variable!r}, not {variable!r}"
        )
    observed = product.cells.get(tuple(cell))
    if observed is None:
        raise VariableAbsent(f"cell {tuple(cell)} has no data")
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
        location=product.grid.point(cell[0], cell[1]),
        city=city,
        source=product.source,
    )
