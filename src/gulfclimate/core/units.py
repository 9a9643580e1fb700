"""Canonical units per variable and affine unit conversion.

The conversion table lives in a plain-text config file, one line per
``variable,unit,factor,offset`` entry where
``canonical_value = value * factor + offset``. The first entry for each
variable names its canonical unit and must be the identity conversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from ..errors import GulfClimateError


class UnknownVariable(GulfClimateError, KeyError):
    """Variable absent from the unit table."""


class UnknownUnit(GulfClimateError, KeyError):
    """Unit absent from the conversion table for its variable."""


class UnitTableError(GulfClimateError, ValueError):
    """Malformed unit table file."""


@dataclass(frozen=True)
class _Conversion:
    factor: float
    offset: float


class UnitTable:
    """Per-variable unit conversions into a fixed canonical unit."""

    def __init__(self) -> None:
        self._canonical: dict[str, str] = {}
        self._conversions: dict[str, dict[str, _Conversion]] = {}

    @classmethod
    def from_text(cls, text: str) -> "UnitTable":
        table = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 4:
                raise UnitTableError(f"line {lineno}: expected 4 comma-separated fields: {raw!r}")
            variable, unit, factor_s, offset_s = parts
            try:
                conv = _Conversion(factor=float(factor_s), offset=float(offset_s))
            except ValueError as exc:
                raise UnitTableError(f"line {lineno}: bad factor/offset: {raw!r}") from exc
            if conv.factor == 0:
                raise UnitTableError(f"line {lineno}: zero factor is not invertible")
            if variable not in table._canonical:
                if conv.factor != 1.0 or conv.offset != 0.0:
                    raise UnitTableError(
                        f"line {lineno}: first entry for {variable!r} must be the identity"
                    )
                table._canonical[variable] = unit
                table._conversions[variable] = {}
            table._conversions[variable][unit] = conv
        return table

    @classmethod
    def default(cls) -> "UnitTable":
        text = resources.files("gulfclimate.core.data").joinpath("units.cfg").read_text("utf-8")
        return cls.from_text(text)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(self._canonical)

    def canonical_unit(self, variable: str) -> str:
        try:
            return self._canonical[variable]
        except KeyError:
            raise UnknownVariable(variable) from None

    def canonical_units(self) -> frozenset[str]:
        return frozenset(self._canonical.values())

    def units_for(self, variable: str) -> tuple[str, ...]:
        if variable not in self._conversions:
            raise UnknownVariable(variable)
        return tuple(self._conversions[variable])

    def _conversion(self, unit: str, variable: str) -> _Conversion:
        if variable not in self._conversions:
            raise UnknownVariable(variable)
        try:
            return self._conversions[variable][unit]
        except KeyError:
            raise UnknownUnit(f"{unit!r} for variable {variable!r}") from None

    def normalize(self, value: float, from_unit: str, variable: str) -> tuple[float, str]:
        """Convert ``value`` from ``from_unit`` into the variable's canonical unit."""
        conv = self._conversion(from_unit, variable)
        return value * conv.factor + conv.offset, self._canonical[variable]

    def normalize_column(self, values: np.ndarray, from_unit: str,
                         variable: str) -> tuple[np.ndarray, str]:
        """:meth:`normalize` over a float64 column: one ``values * factor +
        offset``, which leaves NaN (missing) as NaN. A column with no value
        is returned as it is, without looking ``from_unit`` up."""
        if np.isnan(values).all():
            return values, self.canonical_unit(variable)
        conv = self._conversion(from_unit, variable)
        return values * conv.factor + conv.offset, self._canonical[variable]

    def denormalize(self, value: float, to_unit: str, variable: str) -> float:
        """Convert a canonical value back into ``to_unit`` (inverse affine map)."""
        conv = self._conversion(to_unit, variable)
        return (value - conv.offset) / conv.factor


_DEFAULT: UnitTable | None = None


def default_table() -> UnitTable:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = UnitTable.default()
    return _DEFAULT
