"""The act-observe-reason control loop and grounded answer synthesis."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..toolkit.grammar import FENCE_CLOSE, FENCE_OPEN, parse_call
from ..toolkit.registry import ToolRegistry, execute, render_tool_prompt, validate_call
from ..toolkit.types import CallFormatError, FinalAnswer, Observation, ObservationStatus, ToolCall
from ..core import CanonicalSeries
from .backend import BackendFailure, LLMBackend
from .intent import Intent, route_intent
from .serialization import observation_to_jsonable, render_observation
from .trajectory import Trajectory

_CITATION_RE = re.compile(r"\[step\s+(\d+)\]")
_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")

GROUNDING_REL_TOL = 1e-6

# Two consecutive invalid emissions are tolerated; a third ends the run.
MAX_CONSECUTIVE_FAILURES = 2

DEFAULT_BUDGET = 8


@dataclass(frozen=True)
class AgentSettings:
    budget: int = DEFAULT_BUDGET
    route: bool = True
    images_enabled: bool = False
    observation_byte_cap: int = 4000


@dataclass(frozen=True)
class AgentAnswer:
    """A final response with per-claim citations into the trajectory."""

    text: str
    citations: tuple[int, ...] = ()
    charts: tuple = ()
    incomplete: bool = False
    ungrounded: tuple[str, ...] = ()

    @property
    def flagged(self) -> bool:
        return self.incomplete or bool(self.ungrounded)


_SYSTEM_TEMPLATE = """You are a climate analysis agent for the Gulf region.

To call a tool, reply with exactly one fenced block:
{fence_open}
{{"tool": "<name>", "args": {{"<param>": <scalar>, ...}}}}
{fence_close}
One call per reply. Observations come back as observation[obs_N] lines; pass
an obs_N id wherever a tool expects a reference to an earlier result. When you
can answer, reply in plain prose with no fenced block, citing the steps that
ground each claim as [step N].

Available tools:
{tools}"""


def _system_prompt(registry: ToolRegistry, intent: Intent | None) -> str:
    categories = intent.routed_categories if intent is not None else None
    tools = render_tool_prompt(registry, categories=categories)
    return _SYSTEM_TEMPLATE.format(fence_open=FENCE_OPEN, fence_close=FENCE_CLOSE,
                                   tools=tools)


def run(query: str, registry: ToolRegistry, backend: LLMBackend,
        budget: int = DEFAULT_BUDGET, *, settings: AgentSettings | None = None
        ) -> tuple[AgentAnswer, Trajectory]:
    """Drive the loop: backend emits, calls validate and execute, observations
    feed back, until a final answer or budget exhaustion.

    Validation failures are recorded as error observations and fed back so the
    model can retry; after ``MAX_CONSECUTIVE_FAILURES`` consecutive failures
    the run terminates. All failure modes land in the trajectory, never as
    exceptions.
    """
    if settings is None:
        settings = AgentSettings(budget=budget)
    trajectory = Trajectory(query=query, budget=settings.budget)

    intent: Intent | None = None
    if settings.route:
        intent = route_intent(query, backend)

    messages: list[dict[str, str]] = [
        {"role": "system", "content": _system_prompt(registry, intent)},
        {"role": "user", "content": query},
    ]
    refs: dict[str, Any] = {}
    consecutive_failures = 0

    while len(trajectory.steps) < settings.budget:
        try:
            emission = backend.complete(messages)
        except BackendFailure as exc:
            trajectory.append(
                action=ToolCall(tool="", args={}),
                observation=Observation(tool="", payload=None,
                                        status=ObservationStatus.error("backend_failure", str(exc))),
                emission="",
            )
            break
        parsed = parse_call(emission)
        messages.append({"role": "assistant", "content": emission})

        if isinstance(parsed, FinalAnswer):
            trajectory.append(action=parsed, observation=None, emission=emission)
            break

        if isinstance(parsed, CallFormatError):
            observation = Observation(tool="", payload=None,
                                      status=ObservationStatus.error("format_error", parsed.reason))
            step = trajectory.append(action=ToolCall(tool="", args={}),
                                     observation=observation, emission=emission)
            consecutive_failures += 1
        else:
            verdict = validate_call(parsed, registry)
            if not verdict.is_ok:
                observation = Observation(
                    tool=parsed.tool, payload=None,
                    status=ObservationStatus.error(verdict.kind, "; ".join(verdict.details)))
                step = trajectory.append(action=parsed, observation=observation,
                                         emission=emission)
                consecutive_failures += 1
            else:
                observation = execute(parsed, registry, refs=refs)
                step = trajectory.append(action=parsed, observation=observation,
                                         emission=emission)
                consecutive_failures = 0
                if observation.status.is_ok:
                    refs[f"obs_{step.index}"] = observation.payload
        messages.append({
            "role": "user",
            "content": render_observation(observation, step.index,
                                          settings.observation_byte_cap),
        })
        if consecutive_failures > MAX_CONSECUTIVE_FAILURES:
            break

    answer = synthesize(trajectory, images_enabled=settings.images_enabled)
    return answer, trajectory


def synthesize(trajectory: Trajectory, backend: LLMBackend | None = None, *,
               images_enabled: bool = False) -> AgentAnswer:
    """Build the grounded answer from a trajectory.

    The answer text is the final-answer emission when one exists, otherwise a
    deterministic digest of the collected observations flagged incomplete.
    Every numeric claim must appear in a cited observation; numbers that do
    not are reported in ``ungrounded`` (the answer is still returned).
    """
    ok_steps = trajectory.ok_observations()
    if not trajectory.finished and not ok_steps:
        if not trajectory.steps:
            raise ValueError("cannot synthesize from an empty trajectory")
        return AgentAnswer(text="No answer: the run produced no usable observations.",
                           incomplete=True)

    if trajectory.finished:
        text = trajectory.steps[-1].action.text
        incomplete = False
    else:
        digest = "; ".join(
            f"step {s.index} ({s.observation.tool})" for s in ok_steps
        )
        text = (f"No final answer within the step budget. "
                f"Usable observations: {digest}.")
        incomplete = True

    cited = _citations(text, trajectory)
    pool_steps = cited if cited else tuple(s.index for s in ok_steps)
    pool = _number_pool(trajectory, pool_steps)
    ungrounded = _ungrounded_numbers(text, pool)

    charts: tuple = ()
    if images_enabled:
        charts = _charts_for(trajectory, pool_steps)

    return AgentAnswer(text=text, citations=cited, charts=charts,
                       incomplete=incomplete, ungrounded=ungrounded)


def _citations(text: str, trajectory: Trajectory) -> tuple[int, ...]:
    found = []
    for m in _CITATION_RE.finditer(text):
        idx = int(m.group(1))
        if 1 <= idx <= len(trajectory.steps) and idx not in found:
            found.append(idx)
    return tuple(sorted(found))


def _number_pool(trajectory: Trajectory, step_indices: Sequence[int]) -> set[float]:
    pool: set[float] = set()
    for idx in step_indices:
        step = trajectory.step(idx)
        if step.observation is None or not step.observation.status.is_ok:
            continue
        rendered = json.dumps(observation_to_jsonable(step.observation), sort_keys=True)
        for token in _NUMBER_RE.findall(rendered):
            try:
                pool.add(float(token))
            except ValueError:
                continue
    return pool


def _ungrounded_numbers(text: str, pool: set[float]) -> tuple[str, ...]:
    bare = _CITATION_RE.sub(" ", text)
    missing: list[str] = []
    for token in _NUMBER_RE.findall(bare):
        value = float(token)
        if any(_close(value, p) for p in pool):
            continue
        if token not in missing:
            missing.append(token)
    return tuple(missing)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= GROUNDING_REL_TOL * max(1.0, abs(a), abs(b))


def _charts_for(trajectory: Trajectory, step_indices: Sequence[int]) -> tuple:
    from ..geoforge.charts import chart_for_series

    charts = []
    for idx in step_indices:
        step = trajectory.step(idx)
        obs = step.observation
        if obs is None or not obs.status.is_ok:
            continue
        if isinstance(obs.payload, CanonicalSeries) and len(obs.payload.present()):
            charts.append(chart_for_series(obs.payload, chart_id=f"step{idx}"))
    return tuple(charts)
