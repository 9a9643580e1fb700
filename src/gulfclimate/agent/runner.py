"""The act-observe-reason control loop and grounded answer synthesis."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..toolkit.grammar import FENCE_CLOSE, FENCE_OPEN, parse_call
from ..toolkit.registry import INVALID_CALL_CODES, ToolRegistry, execute, render_tool_prompt
from ..toolkit.types import CallFormatError, FinalAnswer, Observation, ObservationStatus, ToolCall
from ..core.records import CanonicalSeries
from .backend import BackendFailure, LLMBackend
from .intent import route_intent
from .serialization import observation_message, render_observation
from .trajectory import Trajectory

_CITATION_RE = re.compile(r"\[step\s+(\d+)\]")
_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")

GROUNDING_REL_TOL = 1e-6

# Two consecutive invalid emissions are tolerated; a third ends the run.
MAX_CONSECUTIVE_FAILURES = 2
_INVALID_EMISSION_CODES = INVALID_CALL_CODES | {"format_error"}

DEFAULT_BUDGET = 8


@dataclass(frozen=True)
class AgentSettings:
    budget: int = DEFAULT_BUDGET
    route: bool = True
    images_enabled: bool = False


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


def opening_messages(query: str, registry: ToolRegistry,
                     categories: tuple[str, ...] | None) -> list[dict[str, str]]:
    """The messages a run of ``query`` over ``registry`` opens with: the
    system message (the call grammar and the tools, only those of
    ``categories`` when given), then the query."""
    tools = render_tool_prompt(registry, categories=categories)
    system = _SYSTEM_TEMPLATE.format(fence_open=FENCE_OPEN, fence_close=FENCE_CLOSE,
                                     tools=tools)
    return [{"role": "system", "content": system}, {"role": "user", "content": query}]


def show_observation(observation: Observation, index: int,
                     refs: dict[str, Any]) -> tuple[str, str]:
    """What the model is shown of step ``index``'s executed ``observation``,
    in the agent loop and in step mode's gold context alike: its
    ``observation[obs_N]`` line, and the part of its encoded body that the
    line shows, which grounding checks claims against. An ok payload is kept
    in ``refs`` as ``obs_N`` for later calls to refer to.
    """
    line, shown = observation_message(render_observation(observation), index)
    if observation.status.is_ok:
        refs[f"obs_{index}"] = observation.payload
    return line, shown


def run(query: str, registry: ToolRegistry, backend: LLMBackend, *,
        settings: AgentSettings) -> tuple[AgentAnswer, Trajectory]:
    """Drive the loop: backend emits, calls execute, observations feed back,
    until a final answer or budget exhaustion.

    Malformed emissions and calls that fail validation are recorded as error
    observations and fed back so the model can retry; after
    ``MAX_CONSECUTIVE_FAILURES`` consecutive ones the run terminates. An
    executor failure resets that count. All failure modes land in the
    trajectory, never as exceptions.
    """
    trajectory = Trajectory(query=query, budget=settings.budget)

    categories = route_intent(query, backend) if settings.route else None
    messages = opening_messages(query, registry, categories)
    refs: dict[str, Any] = {}
    bodies: dict[int, str] = {}
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
            action = ToolCall(tool="", args={})
            observation = Observation(tool="", payload=None,
                                      status=ObservationStatus.error("format_error", parsed.reason))
        else:
            action, observation = parsed, execute(parsed, registry, refs=refs)
        step = trajectory.append(action=action, observation=observation, emission=emission)
        line, shown = show_observation(observation, step.index, refs)
        if observation.status.is_ok:
            bodies[step.index] = shown
        if observation.status.code in _INVALID_EMISSION_CODES:
            consecutive_failures += 1
        else:
            consecutive_failures = 0
        messages.append({"role": "user", "content": line})
        if consecutive_failures > MAX_CONSECUTIVE_FAILURES:
            break

    answer = synthesize(trajectory, bodies, images_enabled=settings.images_enabled)
    return answer, trajectory


def synthesize(trajectory: Trajectory, bodies: Mapping[int, str], *,
               images_enabled: bool = False) -> AgentAnswer:
    """Build the grounded answer from a trajectory.

    The answer text is the final-answer emission when one exists, otherwise a
    deterministic digest of the collected observations flagged incomplete.
    Every numeric claim of a final answer must appear in a cited observation;
    numbers that do not are reported in ``ungrounded`` (the answer is still
    returned). The digest's step numbers are not claims and are not checked.
    ``bodies`` maps the index of each ok observation to the part of its
    encoded body (:func:`render_observation`) that its observation line
    showed the model, the text the claims are checked against.
    """
    ok_steps = trajectory.ok_observations()
    if not trajectory.finished and not ok_steps:
        if not trajectory.steps:
            raise ValueError("cannot synthesize from an empty trajectory")
        return AgentAnswer(text="No answer: the run produced no usable observations.",
                           incomplete=True)

    incomplete = not trajectory.finished
    if incomplete:
        digest = "; ".join(f"step {s.index} ({s.observation.tool})" for s in ok_steps)
        text = f"No final answer within the step budget. Usable observations: {digest}."
    else:
        text = trajectory.steps[-1].action.text

    cited = _citations(text, trajectory)
    pool_steps = cited if cited else tuple(s.index for s in ok_steps)
    ungrounded: tuple[str, ...] = ()
    if not incomplete:  # the digest is the program's own text and claims no number
        # A cited failed call or final answer has no body and grounds nothing.
        pool = {value for idx in pool_steps if idx in bodies
                for _, value in numeric_claims(bodies[idx])}
        ungrounded = _ungrounded_numbers(text, pool)

    charts: tuple = ()
    if images_enabled:
        charts = _charts_for(trajectory, pool_steps)

    return AgentAnswer(text=text, citations=cited, charts=charts,
                       incomplete=incomplete, ungrounded=ungrounded)


def numeric_claims(text: str) -> list[tuple[str, float]]:
    """Every number written in ``text`` as (token, value), in order.

    A token is an optional minus sign, digits, an optional fraction and an
    optional exponent, so the date 2023-04-15 reads as 2023, -04 and -15.
    """
    return [(token, float(token)) for token in _NUMBER_RE.findall(text)]


def _citations(text: str, trajectory: Trajectory) -> tuple[int, ...]:
    found = []
    for m in _CITATION_RE.finditer(text):
        idx = int(m.group(1))
        if 1 <= idx <= len(trajectory.steps) and idx not in found:
            found.append(idx)
    return tuple(sorted(found))


def _ungrounded_numbers(text: str, pool: set[float]) -> tuple[str, ...]:
    bare = _CITATION_RE.sub(" ", text)
    missing: list[str] = []
    for token, value in numeric_claims(bare):
        # A finite value is close to itself; a non-finite one, such as
        # ``1e999``, is close to nothing.
        if value in pool and math.isfinite(value) or any(_close(value, p) for p in pool):
            continue
        if token not in missing:
            missing.append(token)
    return tuple(missing)


def _close(a: float, b: float) -> bool:
    """Whether two finite values agree within ``GROUNDING_REL_TOL``; an
    infinity would be within any relative tolerance of every finite value."""
    return (math.isfinite(a) and math.isfinite(b)
            and abs(a - b) <= GROUNDING_REL_TOL * max(1.0, abs(a), abs(b)))


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
