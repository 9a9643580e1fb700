"""Gridded-product fixture files and per-cell series extraction.

Format (``gridded-fixture v1``): a plain-text header of ``key: value`` lines
(variable, unit, cadence, source, retrieved, grid axes), a ``---`` separator,
then one row per observation ``date,i,j,value`` where an empty value marks an
explicitly missing timestep; any other value must parse as a finite float.
The extraction math is identical whatever product the file stands in for.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from datetime import date, datetime
from itertools import islice
from pathlib import Path

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
    def from_text(cls, text: str, source_name: str = "gridded-fixture") -> "GriddedProduct":
        lines = text.splitlines()
        if not lines or lines[0].strip() != f"# {FORMAT_TAG}":
            raise GriddedFormatError(f"missing format tag '# {FORMAT_TAG}'")
        header: dict[str, str] = {}
        body_start = None
        for idx, line in enumerate(lines[1:], start=1):
            stripped = line.strip()
            if stripped == "---":
                body_start = idx + 1
                break
            if not stripped or stripped.startswith("#"):
                continue
            if ":" not in stripped:
                raise GriddedFormatError(f"bad header line: {line!r}")
            key, _, value = stripped.partition(":")
            header[key.strip()] = value.strip()
        if body_start is None:
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
        # One typed column per field, so a row costs 24 bytes and no objects;
        # the appends are bound once, as this loop runs once per row.
        ordinals, cell_ids, raw = array("q"), array("q"), array("d")
        add_ordinal, add_cell, add_value = ordinals.append, cell_ids.append, raw.append
        n_lats, n_lons = len(grid.lats), len(grid.lons)
        for lineno, line in enumerate(islice(lines, body_start, None), start=body_start + 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split(",")
            if len(parts) != 4:
                raise GriddedFormatError(f"line {lineno}: expected date,i,j,value")
            add_ordinal(date.fromisoformat(parts[0]).toordinal())
            i, j = int(parts[1]), int(parts[2])
            if not (0 <= i < n_lats and 0 <= j < n_lons):
                raise GriddedFormatError(f"line {lineno}: cell ({i}, {j}) outside grid")
            add_cell(i * n_lons + j)
            if parts[3] == "":
                add_value(math.nan)
            elif math.isfinite(value := float(parts[3])):
                add_value(value)
            else:
                raise GriddedFormatError(f"line {lineno}: non-finite value {parts[3]!r}")
        del lines  # the columns hold the rows now; free the text lines first
        days = (np.frombuffer(ordinals, dtype=np.int64) - _EPOCH_ORDINAL).astype("datetime64[D]")
        cells = _cells(days, np.frombuffer(cell_ids, dtype=np.int64), np.frombuffer(raw), n_lons)
        retrieved = header.get("retrieved", "1970-01-01T00:00:00Z")
        return cls(
            variable=header["variable"], unit=header["unit"],
            cadence=header["cadence"], grid=grid,
            source=header.get("source", source_name),
            retrieved_at=parse_utc(retrieved),
            cells=cells,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "GriddedProduct":
        path = Path(path)
        return cls.from_text(path.read_text(encoding="utf-8"), source_name=path.stem)

    def provenance(self, cell: tuple[int, int]) -> Provenance:
        return Provenance(
            retrieved_at=self.retrieved_at,
            query=f"{self.source}/{self.variable}/cell{cell}",
            title=f"{self.source} {self.variable} grid cell {cell}",
            organization=self.source,
        )


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
