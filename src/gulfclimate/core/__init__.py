"""Shared domain types: coordinates, canonical units/time, the universal CSV.

perfbench imports the names below through this package root; they go when it
imports them from their own modules."""

from .records import CanonicalSeries, Provenance
from .timeutil import parse_utc

__all__ = ["CanonicalSeries", "Provenance", "parse_utc"]
