"""Benchmark drivers: teacher-forced step mode and free-running end-to-end mode."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter, thread_time
from typing import Any, Callable, Sequence, TypeVar

from ..agent.backend import BackendFailure, LLMBackend
from ..agent.runner import AgentSettings, run as agent_run
from ..agent.serialization import observation_message, render_observation
from ..toolkit.grammar import parse_call, serialize_call
from ..toolkit.registry import ToolRegistry, execute, render_tool_prompt, validate_call
from ..toolkit.types import ToolCall
from .model import BenchmarkInstance, GoldStep, InstanceError
from .scoring import PredictedStep, StepScore, classify_error, score_step

BackendFactory = Callable[[BenchmarkInstance], LLMBackend]
R = TypeVar("R")

MAX_WORKERS = 8  # the most instances in flight when the backend wait justifies threads


@dataclass(frozen=True)
class StepRow:
    instance_id: str
    step_index: int  # position within the gold trace, 0-based
    inst: int
    tool: int
    arg: int
    summ: int
    error_class: str


@dataclass(frozen=True)
class InstanceRow:
    instance_id: str
    answered: int | None = None  # 1/0 once e2e ran
    answered_with_images: int | None = None
    chart_ok: bool | None = None
    missed_facts: tuple[str, ...] = ()
    failure: str | None = None


@dataclass
class MetricReport:
    """Headline metrics plus the per-step/per-instance rows they aggregate."""

    mode: str  # "step" | "e2e"
    inst_acc: float | None = None
    tool_acc: float | None = None
    arg_acc: float | None = None
    summ_acc: float | None = None
    ans_acc: float | None = None
    ans_acc_i: float | None = None
    format_err_pct: float | None = None
    arg_err_pct: float | None = None
    na_pct: float | None = None
    step_rows: list[StepRow] = field(default_factory=list)
    instance_rows: list[InstanceRow] = field(default_factory=list)


class _TimedBackend:
    """Forwards to ``inner`` and adds the time ``complete`` spent waiting to
    ``clock``: its wall time minus the calling thread's CPU time, so a backend
    that computes (or a wrapper that counts bytes) adds next to nothing, and
    one that sleeps or blocks on a socket adds its wait."""

    def __init__(self, inner: LLMBackend, clock: list[float]):
        self.inner = inner
        self.clock = clock

    def complete(self, messages) -> str:
        t0, cpu0 = perf_counter(), thread_time()
        try:
            return self.inner.complete(messages)
        finally:
            self.clock[0] += (perf_counter() - t0) - (thread_time() - cpu0)


def _map_instances(instances: Sequence[BenchmarkInstance], factory: BackendFactory,
                   run: Callable[[BenchmarkInstance, LLMBackend], R]) -> list[R | Exception]:
    """``run(instance, factory(instance))`` for every instance, in instance order.

    An exception from the factory or the run takes the place of the
    instance's result. Instances run on the calling thread while the backend
    wait measured so far (see :class:`_TimedBackend`) stays under a third of
    the elapsed time. Once it is more, the instances left run on
    ``round(elapsed / (elapsed - waited))`` threads, at most ``MAX_WORKERS``
    and at most one per instance left, which keeps about that many backend
    calls in flight; a backend that never waits never starts a thread.
    """
    waited = [0.0]

    def attempt(instance: BenchmarkInstance, make: BackendFactory) -> R | Exception:
        try:
            return run(instance, make(instance))
        except Exception as exc:  # instance-level isolation
            return exc

    results: list[R | Exception] = []
    start = perf_counter()
    for instance in instances:
        results.append(attempt(instance, lambda inst: _TimedBackend(factory(inst), waited)))
        elapsed = perf_counter() - start
        busy = elapsed - waited[0]
        width = round(elapsed / busy) if busy > 0 else MAX_WORKERS
        workers = min(MAX_WORKERS, width, len(instances) - len(results))
        if workers >= 2:
            with ThreadPoolExecutor(workers) as pool:
                results += pool.map(lambda inst: attempt(inst, factory),
                                    instances[len(results):])
            break
    return results


def aggregate_step_rows(rows: Sequence[StepRow]) -> dict[str, float]:
    """Mean-over-steps x100 for the four step metrics and the error rates."""
    n = len(rows)
    if n == 0:
        return {}
    out = {
        "inst_acc": 100.0 * sum(r.inst for r in rows) / n,
        "tool_acc": 100.0 * sum(r.tool for r in rows) / n,
        "arg_acc": 100.0 * sum(r.arg for r in rows) / n,
        "summ_acc": 100.0 * sum(r.summ for r in rows) / n,
        "format_err_pct": 100.0 * sum(r.error_class == "format_err" for r in rows) / n,
        "arg_err_pct": 100.0 * sum(r.error_class == "arg_err" for r in rows) / n,
        "na_pct": 100.0 * sum(r.error_class == "na" for r in rows) / n,
    }
    return out


def aggregate_instance_rows(rows: Sequence[InstanceRow]) -> dict[str, float]:
    answered = [r.answered for r in rows if r.answered is not None]
    out: dict[str, float] = {}
    if answered:
        out["ans_acc"] = 100.0 * sum(answered) / len(answered)
    with_images = [r.answered_with_images for r in rows
                   if r.answered_with_images is not None]
    if with_images:
        out["ans_acc_i"] = 100.0 * sum(with_images) / len(with_images)
    return out


def run_step_mode(instances: Sequence[BenchmarkInstance], factory: BackendFactory,
                  registry: ToolRegistry) -> MetricReport:
    """Teacher-forced evaluation of every gold step.

    At step t the context holds the gold prefix (gold calls and their real
    tool outputs, an ``obs_N`` argument resolved to gold step N's payload);
    the backend emits the step action and, after seeing the real output, a
    one-line step summary. Per-instance failures are recorded, never raised.

    ``factory`` is called once per instance, and the backend it returns
    serves that instance alone. Once the measured backend wait is a third of
    wall time or more, instances run on worker threads, so factories,
    backends and tool executors may be called from several threads at once.
    Rows come out in instance order whatever order instances finish in.
    """
    if not instances:
        raise InstanceError("instance list must be non-empty")
    report = MetricReport(mode="step")
    outcomes = _map_instances(instances, factory, lambda instance, backend:
                              _step_mode_instance(instance, backend, registry))
    for instance, rows in zip(instances, outcomes):
        if isinstance(rows, Exception):
            report.instance_rows.append(InstanceRow(instance_id=instance.id,
                                                    failure=f"{type(rows).__name__}: {rows}"))
            rows = [StepRow(instance_id=instance.id, step_index=i,
                            inst=0, tool=0, arg=0, summ=0, error_class="na")
                    for i in range(len(instance.gold_trace))]
        report.step_rows.extend(rows)
    for key, value in aggregate_step_rows(report.step_rows).items():
        setattr(report, key, value)
    return report


def _step_mode_instance(instance: BenchmarkInstance, backend: LLMBackend,
                        registry: ToolRegistry) -> list[StepRow]:
    sub = registry.subset([t for t in instance.allowed_tools if t in registry.names()])
    messages = [
        {"role": "system", "content": render_tool_prompt(registry, names=instance.allowed_tools)},
        {"role": "user", "content": instance.query},
    ]
    rows: list[StepRow] = []
    refs: dict[str, Any] = {}  # gold step payloads by obs_N id
    for t, gold in enumerate(instance.gold_trace):
        try:
            emission = backend.complete(messages)
        except BackendFailure:
            rows.append(StepRow(instance.id, t, 0, 0, 0, 0, "na"))
            continue
        parsed = parse_call(emission)
        verdict = validate_call(parsed, sub) if isinstance(parsed, ToolCall) else None
        messages.append({"role": "assistant", "content": emission})

        # Teacher forcing: the context continues from the GOLD call and its
        # real output, regardless of what the model predicted.
        observation_text = _gold_observation_text(gold, sub, t, refs)
        messages.append({"role": "user", "content": observation_text})

        summary = ""
        try:
            summary = backend.complete(messages + [
                {"role": "user", "content": "Summarize this step's result in one line."},
            ])
        except BackendFailure:
            summary = ""
        messages.append({"role": "assistant", "content": summary})

        pred = PredictedStep(emission=emission, parsed=parsed, verdict=verdict,
                             summary=summary)
        score = score_step(pred, gold)
        rows.append(StepRow(instance.id, t, *score.as_tuple(),
                            classify_error(pred, gold)))
    return rows


def _gold_observation_text(gold: GoldStep, registry: ToolRegistry, index: int,
                           refs: dict[str, Any]) -> str:
    """Execute gold step ``index`` and render its observation.

    An ``obs_N`` reference argument resolves through ``refs`` to gold step
    N's payload; an ok payload of this step is stored there as
    ``obs_{index + 1}``.
    """
    if gold.arg_values is None:
        return f"observation[obs_{index + 1}] (gold output unavailable)"
    call = ToolCall(tool=gold.tool, args=gold.arg_values)
    observation = execute(call, registry, refs=refs)
    if observation.status.is_ok:
        refs[f"obs_{index + 1}"] = observation.payload
    return (f"Gold step executed: {serialize_call(call)}\n"
            + observation_message(render_observation(observation), index + 1))


def run_e2e_mode(instances: Sequence[BenchmarkInstance], factory: BackendFactory,
                 registry: ToolRegistry, images_enabled: bool = False,
                 budget: int = 8) -> MetricReport:
    """Free-running evaluation of the full execution outcome.

    An instance scores 1 iff every gold answer fact holds in the final
    answer; with images enabled, chart-requiring instances additionally need
    an emitted chart whose metadata variable matches a gold fact label.

    Concurrency is as in :func:`run_step_mode`: one ``factory`` call per
    instance, backends possibly used from worker threads, and rows in
    instance order.
    """
    if not instances:
        raise InstanceError("instance list must be non-empty")
    report = MetricReport(mode="e2e")
    outcomes = _map_instances(instances, factory, lambda instance, backend:
                              _e2e_instance(instance, backend, registry, images_enabled, budget))
    for instance, row in zip(instances, outcomes):
        if isinstance(row, Exception):
            row = InstanceRow(instance_id=instance.id, answered=0,
                              answered_with_images=0 if images_enabled else None,
                              failure=f"{type(row).__name__}: {row}")
        report.instance_rows.append(row)
    for key, value in aggregate_instance_rows(report.instance_rows).items():
        setattr(report, key, value)
    return report


def _e2e_instance(instance: BenchmarkInstance, backend: LLMBackend,
                  registry: ToolRegistry, images_enabled: bool,
                  budget: int) -> InstanceRow:
    sub = registry.subset([t for t in instance.allowed_tools if t in registry.names()])
    settings = AgentSettings(budget=budget, route=False, images_enabled=images_enabled)
    answer, _trajectory = agent_run(instance.query, sub, backend, settings=settings)

    missed = tuple(
        f.label or str(f.value) for f in instance.answer_facts
        if not f.satisfied_by(answer.text)
    )
    answered = 1 if not missed else 0

    chart_ok: bool | None = None
    answered_i: int | None = None
    if images_enabled:
        if instance.requires_chart:
            chart_ok = any(_chart_matches(c, instance) for c in answer.charts)
            answered_i = 1 if (answered and chart_ok) else 0
        else:
            chart_ok = None
            answered_i = answered
    return InstanceRow(instance_id=instance.id, answered=answered,
                       answered_with_images=answered_i, chart_ok=chart_ok,
                       missed_facts=missed)


def _chart_matches(chart, instance: BenchmarkInstance) -> bool:
    variable = chart.metadata.variable.casefold()
    if not variable:
        return False
    for fact in instance.answer_facts:
        label = fact.label.casefold()
        if label and (variable in label or label in variable):
            return True
    return False
