"""Implementations of the 22-tool climate suite behind provider abstractions.

perfbench imports the name below through this package root; it goes when
perfbench imports it from its own module."""

from .suite import build_registry

__all__ = ["build_registry"]
