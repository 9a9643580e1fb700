"""The wire grammar for tool calls.

A call is a fenced block whose info string is ``tool_call``, containing one
JSON object with exactly the fields ``tool`` (string) and ``args`` (object of
scalar values). One call per emission. Anything with a call fence that does
not parse is a format error; an emission with no call fence is a final
answer. In full, as :func:`parse_call` applies it:

- The emission is split into lines on LF only (a U+2028 inside a JSON string
  does not end a line). A line that is ```` ```tool_call ```` once stripped
  opens the block; the first later line that is ```` ``` ```` once stripped
  closes it. Text outside the block is ignored.
- No opening line: the whole emission is a final answer. Two or more opening
  lines, an opening line with no closing line, or an empty block is a format
  error.
- The block is one JSON object whose keys are exactly ``tool`` and ``args``.
  ``tool`` is a non-empty string; ``args`` is an object whose values are
  strings, numbers or booleans (no null, array or object).

:func:`serialize_call` writes the canonical form: the opening line, the
object on one line with sorted keys and non-ASCII characters as themselves,
and the closing line.
"""

from __future__ import annotations

import json
from typing import Any

from .types import CallFormatError, FinalAnswer, ToolCall

FENCE_OPEN = "```tool_call"
FENCE_CLOSE = "```"

_SCALARS = (str, int, float, bool)


def parse_call(text: str) -> ToolCall | FinalAnswer | CallFormatError:
    """Classify a raw model emission as a call, an answer, or a format error."""
    # LF is the only line separator the grammar recognizes; splitlines() would
    # also split on Unicode breaks that may legally appear inside JSON strings.
    lines = text.split("\n")
    openers = [i for i, line in enumerate(lines) if line.strip() == FENCE_OPEN]
    if not openers:
        return FinalAnswer(text=text)
    if len(openers) > 1:
        return CallFormatError(reason="multiple call blocks in one emission")
    start = openers[0]
    close = None
    for i in range(start + 1, len(lines)):
        if lines[i].strip() == FENCE_CLOSE:
            close = i
            break
    if close is None:
        return CallFormatError(reason="unbalanced call-block delimiters")
    body = "\n".join(lines[start + 1:close]).strip()
    if not body:
        return CallFormatError(reason="empty call block")
    try:
        obj = json.loads(body)
    except json.JSONDecodeError as exc:
        return CallFormatError(reason=f"call block is not valid JSON: {exc.msg}")
    if not isinstance(obj, dict):
        return CallFormatError(reason="call block must contain a JSON object")
    if set(obj) != {"tool", "args"}:
        return CallFormatError(reason="call object must have exactly the fields 'tool' and 'args'")
    tool = obj["tool"]
    args = obj["args"]
    if not isinstance(tool, str) or not tool:
        return CallFormatError(reason="'tool' must be a non-empty string")
    if not isinstance(args, dict):
        return CallFormatError(reason="'args' must be an object")
    for key, value in args.items():
        if not isinstance(value, _SCALARS):
            return CallFormatError(reason=f"argument {key!r} must be a scalar value")
    return ToolCall(tool=tool, args=args)


def serialize_call(call: ToolCall) -> str:
    """Render a call in the wire grammar; inverse of :func:`parse_call`."""
    payload: dict[str, Any] = {"tool": call.tool, "args": dict(call.args)}
    body = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return f"{FENCE_OPEN}\n{body}\n{FENCE_CLOSE}"
