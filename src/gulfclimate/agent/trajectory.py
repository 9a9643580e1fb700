"""The (action, observation) history of one agent run."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..errors import GulfClimateError
from ..toolkit.types import FinalAnswer, Observation, ToolCall
from .serialization import dumps_stable, observation_to_jsonable, write_text_escaped


class TrajectoryError(GulfClimateError, ValueError):
    pass


@dataclass(frozen=True)
class TrajectoryStep:
    index: int  # 1-based
    action: ToolCall | FinalAnswer
    observation: Observation | None
    emission: str  # the raw model output that produced the action


@dataclass
class Trajectory:
    """Ordered steps of one run, bounded by the step budget.

    At most one final answer may appear, and only as the last action.
    """

    query: str
    budget: int
    steps: list[TrajectoryStep] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise TrajectoryError(f"budget must be >= 1, got {self.budget}")

    def append(self, action: ToolCall | FinalAnswer, observation: Observation | None,
               emission: str) -> TrajectoryStep:
        if len(self.steps) >= self.budget:
            raise TrajectoryError("step budget exhausted")
        if self.steps and isinstance(self.steps[-1].action, FinalAnswer):
            raise TrajectoryError("cannot extend past a final answer")
        step = TrajectoryStep(index=len(self.steps) + 1, action=action,
                              observation=observation, emission=emission)
        self.steps.append(step)
        return step

    @property
    def finished(self) -> bool:
        return bool(self.steps) and isinstance(self.steps[-1].action, FinalAnswer)

    def ok_observations(self) -> list[TrajectoryStep]:
        return [s for s in self.steps
                if s.observation is not None and s.observation.status.is_ok]

    def step(self, index: int) -> TrajectoryStep:
        return self.steps[index - 1]

    def to_jsonable(self) -> dict:
        steps = []
        for s in self.steps:
            if isinstance(s.action, FinalAnswer):
                action = {"kind": "final_answer", "text": s.action.text}
            else:
                action = {"kind": "tool_call", "tool": s.action.tool,
                          "args": dict(sorted(s.action.args.items()))}
            steps.append({
                "index": s.index,
                "action": action,
                "observation": None if s.observation is None
                else observation_to_jsonable(s.observation),
                "emission": s.emission,
            })
        return {"query": self.query, "budget": self.budget, "steps": steps}

    def write(self, path: str | Path) -> None:
        write_text_escaped(path, dumps_stable(self.to_jsonable()))
