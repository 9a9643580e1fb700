"""Per-step scoring against gold and the three-way error taxonomy."""

from __future__ import annotations

from dataclasses import dataclass

from ..toolkit.types import CallFormatError, FinalAnswer, ToolCall, ValidationVerdict
from .model import GoldStep


@dataclass(frozen=True)
class PredictedStep:
    """What the model produced for one step, parsed and validated."""

    parsed: ToolCall | FinalAnswer | CallFormatError
    verdict: ValidationVerdict | None  # None unless parsed is a ToolCall
    summary: str = ""


@dataclass(frozen=True)
class StepScore:
    inst: int
    tool: int
    arg: int
    summ: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.inst, self.tool, self.arg, self.summ)


def score_step(pred: PredictedStep, gold: GoldStep) -> StepScore:
    """Score one aligned step on the four step-mode dimensions.

    A step that is not a well-formed tool call scores zero everywhere (a
    malformed or prose step grounds nothing downstream). For well-formed
    calls: tool is name equality, arg is exact argument-name-set equality
    against gold, and summ requires every gold summary fact to hold in the
    model's step summary.
    """
    if not isinstance(pred.parsed, ToolCall):
        return StepScore(inst=0, tool=0, arg=0, summ=0)
    inst = 1
    tool = 1 if pred.parsed.tool == gold.tool else 0
    arg = 1 if frozenset(pred.parsed.args) == gold.arg_names else 0
    summ = 1 if all(f.satisfied_by(pred.summary) for f in gold.summary_facts) else 0
    return StepScore(inst=inst, tool=tool, arg=arg, summ=summ)


def classify_error(pred: PredictedStep, gold: GoldStep | None) -> str:
    """Classify a failed step: format_err > arg_err > na > none.

    ``format_err``: the call structure did not parse. ``arg_err``: a parsed
    call that is not executable schema-complete (unknown tool counts as a
    schema failure, not a format one). ``na``: prose where gold requires a
    call. ``none``: executable and schema-complete.
    """
    if isinstance(pred.parsed, CallFormatError):
        return "format_err"
    if isinstance(pred.parsed, ToolCall):
        if pred.verdict is not None and not pred.verdict.is_ok:
            return "arg_err"
        return "none"
    # FinalAnswer
    if gold is not None:
        return "na"
    return "none"
