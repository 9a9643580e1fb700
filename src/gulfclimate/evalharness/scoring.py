"""Per-step scoring against gold and the three-way error taxonomy."""

from __future__ import annotations

from ..toolkit.types import CallFormatError, FinalAnswer, ToolCall, ValidationVerdict
from .model import GoldStep


def score_step(parsed: ToolCall | FinalAnswer | CallFormatError, summary: str,
               gold: GoldStep) -> tuple[int, int, int, int]:
    """Score one aligned step as ``(inst, tool, arg, summ)``.

    A step that is not a well-formed tool call scores zero everywhere (a
    malformed or prose step grounds nothing downstream). For well-formed
    calls: tool is name equality, arg is exact argument-name-set equality
    against gold, and summ requires every gold summary fact to hold in the
    model's step ``summary``.
    """
    if not isinstance(parsed, ToolCall):
        return (0, 0, 0, 0)
    tool = 1 if parsed.tool == gold.tool else 0
    arg = 1 if frozenset(parsed.args) == gold.arg_names else 0
    summ = 1 if all(f.satisfied_by(summary) for f in gold.summary_facts) else 0
    return (1, tool, arg, summ)


def classify_error(parsed: ToolCall | FinalAnswer | CallFormatError,
                   verdict: ValidationVerdict | None, gold: GoldStep | None) -> str:
    """Classify a failed step: format_err > arg_err > na > none.

    ``format_err``: the call structure did not parse. ``arg_err``: a parsed
    call that is not executable schema-complete (unknown tool counts as a
    schema failure, not a format one); ``verdict`` is the call's validation,
    ``None`` unless ``parsed`` is a call. ``na``: prose where gold requires a
    call. ``none``: executable and schema-complete.
    """
    if isinstance(parsed, CallFormatError):
        return "format_err"
    if isinstance(parsed, ToolCall):
        if verdict is not None and not verdict.is_ok:
            return "arg_err"
        return "none"
    # FinalAnswer
    if gold is not None:
        return "na"
    return "none"
