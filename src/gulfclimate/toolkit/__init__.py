"""Tool binding layer: signatures, call grammar, validation, execution.

perfbench imports the names below through this package root; they go when it
imports them from their own modules."""

from .grammar import serialize_call
from .types import ToolCall

__all__ = ["ToolCall", "serialize_call"]
