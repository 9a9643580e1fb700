"""Implementations of the 22-tool climate suite behind provider abstractions."""

from .providers import ProviderConfig
from .suite import SIGNATURES, ToolSettings, build_registry

__all__ = ["ProviderConfig", "SIGNATURES", "ToolSettings", "build_registry"]
