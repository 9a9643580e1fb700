"""Factor-based emission estimation."""

from __future__ import annotations

import csv
from pathlib import Path

from ..errors import GulfClimateError
from ..jsoninput import finite_number
from .errors import UnknownFactorKey


class FactorTableError(GulfClimateError, ValueError):
    pass


_COLUMNS = ("country", "industry", "year", "factor")


class EmissionFactorTable:
    """(country, industry, year) -> tCO2e per revenue unit."""

    def __init__(self, entries: dict[tuple[str, str, int], float]):
        for key, factor in entries.items():
            if not (finite_number(factor) and factor > 0):
                raise FactorTableError(f"factor for {key} must be a finite number above 0")
        self._entries = {
            (c.casefold(), i.casefold(), y): f for (c, i, y), f in entries.items()
        }

    def __len__(self) -> int:
        return len(self._entries)

    @classmethod
    def from_file(cls, path: str | Path) -> "EmissionFactorTable":
        """Read a UTF-8 CSV file whose header names the ``country``,
        ``industry``, ``year`` and ``factor`` columns. A missing column, a
        short row, a year that is not an integer or a factor that is not a
        number raises :class:`FactorTableError` naming the file line, and a
        factor that is not finite and above 0 one naming its key."""
        entries: dict[tuple[str, str, int], float] = {}
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            try:
                missing = [c for c in _COLUMNS if c not in (reader.fieldnames or ())]
                if missing:
                    raise FactorTableError(f"missing columns {missing}")
                for row in reader:
                    if None in row.values():
                        raise FactorTableError(f"short row {row}")
                    entries[(row["country"], row["industry"], int(row["year"]))] = \
                        float(row["factor"])
            except (csv.Error, ValueError) as exc:  # UnicodeDecodeError is a ValueError
                raise FactorTableError(f"{path}:{reader.line_num}: {exc}") from exc
        return cls(entries)

    def factor(self, country: str, industry: str, year: int) -> float:
        key = (country.casefold(), industry.casefold(), year)
        try:
            return self._entries[key]
        except KeyError:
            raise UnknownFactorKey(f"no factor for {country}/{industry}/{year}") from None


def carbon_footprint(table: EmissionFactorTable, country: str, industry: str,
                     year: int, revenue: float) -> float:
    """Annual emissions in tCO2e: exactly ``revenue * factor``."""
    if revenue < 0:
        raise FactorTableError(f"revenue must be non-negative: {revenue}")
    return revenue * table.factor(country, industry, year)
