"""Tool binding layer: signatures, call grammar, validation, execution."""

from .grammar import FENCE_CLOSE, FENCE_OPEN, parse_call, serialize_call
from .registry import ToolRegistry, execute, render_tool_prompt, validate_call
from .types import (
    CATEGORIES,
    CallFormatError,
    FinalAnswer,
    ParamSpec,
    SignatureError,
    ToolCall,
    ToolSignature,
)

__all__ = [
    "CATEGORIES",
    "CallFormatError",
    "FENCE_CLOSE",
    "FENCE_OPEN",
    "FinalAnswer",
    "ParamSpec",
    "SignatureError",
    "ToolCall",
    "ToolRegistry",
    "ToolSignature",
    "execute",
    "parse_call",
    "render_tool_prompt",
    "serialize_call",
    "validate_call",
]
