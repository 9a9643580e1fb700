"""Factor-based emission estimation."""

from __future__ import annotations

import csv
from pathlib import Path

from ..errors import GulfClimateError
from .errors import UnknownFactorKey


class FactorTableError(GulfClimateError, ValueError):
    pass


class EmissionFactorTable:
    """(country, industry, year) -> tCO2e per revenue unit."""

    def __init__(self, entries: dict[tuple[str, str, int], float]):
        for key, factor in entries.items():
            if not factor > 0:
                raise FactorTableError(f"factor for {key} must be strictly positive")
        self._entries = {
            (c.casefold(), i.casefold(), y): f for (c, i, y), f in entries.items()
        }

    def __len__(self) -> int:
        return len(self._entries)

    @classmethod
    def from_file(cls, path: str | Path) -> "EmissionFactorTable":
        entries: dict[tuple[str, str, int], float] = {}
        with open(path, encoding="utf-8", newline="") as handle:
            for row in csv.DictReader(handle):
                entries[(row["country"], row["industry"], int(row["year"]))] = float(row["factor"])
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
