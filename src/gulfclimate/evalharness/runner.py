"""Benchmark drivers: teacher-forced step mode and free-running end-to-end mode."""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter, thread_time
from typing import Any, Callable, Sequence, TypeVar

try:
    from resource import RUSAGE_THREAD, getrusage
except ImportError:  # no per-thread resource usage on this platform
    RUSAGE_THREAD = getrusage = None

from ..agent.backend import BackendFailure, LLMBackend
from ..agent.runner import (DEFAULT_BUDGET, AgentSettings, opening_messages, run as agent_run,
                            show_observation)
from ..agent.serialization import observation_message
from ..toolkit.grammar import parse_call, serialize_call
from ..toolkit.registry import ToolRegistry, execute, validate_call
from ..toolkit.types import ToolCall
from .model import BenchmarkInstance, GoldStep, InstanceError
from .scoring import classify_error, score_step

BackendFactory = Callable[[BenchmarkInstance], LLMBackend]
R = TypeVar("R")

# A resource ceiling, not a throughput setting: the measured wait and the
# instances still queued set the width below it. 32 is the ceiling of
# ThreadPoolExecutor's own I/O-bound default, min(32, cpu_count + 4).
MAX_WORKERS = 32


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
    """Headline metrics plus the per-step/per-instance rows they aggregate.

    ``metrics`` holds what :func:`aggregate_step_rows` or
    :func:`aggregate_instance_rows` computed for the mode, by their keys."""

    mode: str  # "step" | "e2e"
    metrics: dict[str, float] = field(default_factory=dict)
    step_rows: list[StepRow] = field(default_factory=list)
    instance_rows: list[InstanceRow] = field(default_factory=list)


class _TimedBackend:
    """Forwards to ``inner`` and passes ``report`` the time each ``complete``
    spent waiting: its wall time minus the calling thread's CPU time, counted
    only when the thread blocked during the call, that is when its voluntary
    context switches grew. A socket read or a sleep blocks; a backend that
    computes (or a wrapper that counts bytes) does not, so a host stall of a
    computing call (preemption, hypervisor steal) adds no wait. Where the
    platform has no per-thread switch count, every call's wall time minus CPU
    time counts."""

    def __init__(self, inner: LLMBackend, report: Callable[[float], None]):
        self.inner = inner
        self.report = report

    def complete(self, messages) -> str:
        t0, cpu0, switches0 = perf_counter(), thread_time(), _voluntary_switches()
        try:
            return self.inner.complete(messages)
        finally:
            blocked = switches0 is None or _voluntary_switches() > switches0
            self.report((perf_counter() - t0) - (thread_time() - cpu0) if blocked else 0.0)


def _voluntary_switches() -> int | None:
    """The calling thread's voluntary context switches so far, or ``None``
    where the platform does not count them per thread."""
    return None if RUSAGE_THREAD is None else getrusage(RUSAGE_THREAD).ru_nvcsw


def _map_instances(instances: Sequence[BenchmarkInstance], factory: BackendFactory,
                   run: Callable[[BenchmarkInstance, LLMBackend], R]) -> list[R | Exception]:
    """``run(instance, factory(instance))`` for every instance; results come
    back in instance order.

    An ``Exception`` from the factory or the run takes the place of the
    instance's result. The instances wait in one queue, longest gold trace
    first and ties in instance order (the longest-processing-time-first rule
    for the shortest makespan: in step mode a gold step costs exactly two
    backend calls, in e2e mode the trace length predicts the calls). The
    calling thread drains the queue from the start, its backend calls timed
    by :class:`_TimedBackend`. After each of those calls, until helpers have
    started, the gate compares the wait measured so far with the elapsed
    time: once the wait is a third of it or more, as many workers as the
    measured width ``round(elapsed / (elapsed - waited))`` drain the queue,
    capped by the instances still queued plus the calling thread and by the
    resource ceiling ``MAX_WORKERS``. The calling thread is one of them and
    the rest are helper threads. That keeps about that many backend calls in
    flight, so a suite whose instances all wait runs in one round when it
    fits under the ceiling, and a backend that never waits never starts a
    thread.
    A ``BaseException`` in a helper is raised here once the calling thread
    is done. An empty ``instances`` raises :class:`InstanceError`.
    """
    if not instances:
        raise InstanceError("instance list must be non-empty")
    results: list[Any] = [None] * len(instances)
    queue = deque(sorted(range(len(instances)), key=lambda k: -len(instances[k].gold_trace)))
    pool: ThreadPoolExecutor | None = None
    helpers: list[Future] = []
    start, waited = perf_counter(), 0.0

    def drain(make: BackendFactory) -> None:
        while True:
            try:
                k = queue.popleft()
            except IndexError:
                return
            try:
                results[k] = run(instances[k], make(instances[k]))
            except Exception as exc:  # instance-level isolation
                results[k] = exc

    def gate(wait: float) -> None:
        nonlocal pool, waited
        waited += wait
        if pool is not None or waited <= 0:
            return
        elapsed = perf_counter() - start
        busy = elapsed - waited
        width = round(elapsed / busy) if busy > 0 else MAX_WORKERS
        workers = min(MAX_WORKERS, width, len(queue) + 1)
        if workers >= 2:
            pool = ThreadPoolExecutor(workers - 1)
            helpers.extend(pool.submit(drain, factory) for _ in range(workers - 1))

    try:
        drain(lambda instance: _TimedBackend(factory(instance), gate))
    except BaseException:
        queue.clear()
        raise
    finally:
        if pool is not None:
            pool.shutdown()
    for helper in helpers:
        helper.result()
    return results


def aggregate_step_rows(rows: Sequence[StepRow]) -> dict[str, float]:
    """Mean-over-steps x100 for the four step metrics and the error rates."""
    n = len(rows)
    if n == 0:
        return {}
    return {
        "inst_acc": 100.0 * sum(r.inst for r in rows) / n,
        "tool_acc": 100.0 * sum(r.tool for r in rows) / n,
        "arg_acc": 100.0 * sum(r.arg for r in rows) / n,
        "summ_acc": 100.0 * sum(r.summ for r in rows) / n,
        "format_err_pct": 100.0 * sum(r.error_class == "format_err" for r in rows) / n,
        "arg_err_pct": 100.0 * sum(r.error_class == "arg_err" for r in rows) / n,
        "na_pct": 100.0 * sum(r.error_class == "na" for r in rows) / n,
    }


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

    The model sees what an e2e run of the instance would show it. The
    opening messages are the agent's own
    :func:`~gulfclimate.agent.runner.opening_messages` over the instance's
    allowed tools, unrouted. At step t the context holds the gold prefix:
    each gold call and its real tool output, built by the agent loop's own
    observation function :func:`~gulfclimate.agent.runner.show_observation`,
    so a reference argument resolves to the earlier gold step's payload
    exactly as in the loop. The backend emits the step action and, after
    seeing the real output, a one-line step summary. A backend failure on
    the action scores the step ``na`` and makes no summary call; the gold
    step still joins the context, after an empty assistant turn, and its
    summary turn is empty too. Per-instance failures are recorded, never
    raised.

    ``factory`` is called once per instance, and the backend it returns
    serves that instance alone. Once the backend wait dominates, instances
    run on several threads at once (see :func:`_map_instances`), so
    factories, backends and tool executors may be called concurrently. Rows
    come out in instance order whatever order instances start or finish in.
    """
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
    report.metrics = aggregate_step_rows(report.step_rows)
    return report


def _step_mode_instance(instance: BenchmarkInstance, backend: LLMBackend,
                        registry: ToolRegistry) -> list[StepRow]:
    sub = registry.subset(instance.allowed_tools)
    messages = opening_messages(instance.query, sub, None)
    rows: list[StepRow] = []
    refs: dict[str, Any] = {}  # gold step payloads, as show_observation stores them
    for t, gold in enumerate(instance.gold_trace):
        try:
            emission = backend.complete(messages)
        except BackendFailure:
            emission = None
        messages.append({"role": "assistant", "content": emission or ""})

        # Teacher forcing: the context continues from the GOLD call and its
        # real output, regardless of what the model predicted, or whether it
        # answered at all.
        messages.append({"role": "user",
                         "content": _gold_observation_text(gold, sub, t + 1, refs)})
        if emission is None:
            rows.append(StepRow(instance.id, t, 0, 0, 0, 0, "na"))
            messages.append({"role": "assistant", "content": ""})
            continue

        parsed = parse_call(emission)
        verdict = validate_call(parsed, sub) if isinstance(parsed, ToolCall) else None
        try:
            summary = backend.complete(messages + [
                {"role": "user", "content": "Summarize this step's result in one line."},
            ])
        except BackendFailure:
            summary = ""
        messages.append({"role": "assistant", "content": summary})

        rows.append(StepRow(instance.id, t, *score_step(parsed, summary, gold),
                            classify_error(parsed, verdict, gold)))
    return rows


def _gold_observation_text(gold: GoldStep, registry: ToolRegistry, index: int,
                           refs: dict[str, Any]) -> str:
    """Execute gold step ``index`` (1-based) and return what the model is
    shown of it: the call, then the line of the agent loop's own
    :func:`~gulfclimate.agent.runner.show_observation`, which also keeps an
    ok payload in ``refs`` for later gold steps to refer to.
    """
    if gold.arg_values is None:
        return observation_message("(gold output unavailable)", index)[0]
    call = ToolCall(tool=gold.tool, args=gold.arg_values)
    line, _ = show_observation(execute(call, registry, refs=refs), index, refs)
    return f"Gold step executed: {serialize_call(call)}\n{line}"


def run_e2e_mode(instances: Sequence[BenchmarkInstance], factory: BackendFactory,
                 registry: ToolRegistry, images_enabled: bool = False,
                 budget: int = DEFAULT_BUDGET) -> MetricReport:
    """Free-running evaluation of the full execution outcome.

    An instance scores 1 iff every gold answer fact holds in the final
    answer; with images enabled, chart-requiring instances additionally need
    an emitted chart whose metadata variable matches a gold fact label.

    ``factory`` is called and instances are scheduled as in
    :func:`run_step_mode`.
    """
    report = MetricReport(mode="e2e")
    outcomes = _map_instances(instances, factory, lambda instance, backend:
                              _e2e_instance(instance, backend, registry, images_enabled, budget))
    for instance, row in zip(instances, outcomes):
        if isinstance(row, Exception):
            row = InstanceRow(instance_id=instance.id, answered=0,
                              answered_with_images=0 if images_enabled else None,
                              failure=f"{type(row).__name__}: {row}")
        report.instance_rows.append(row)
    report.metrics = aggregate_instance_rows(report.instance_rows)
    return report


def _e2e_instance(instance: BenchmarkInstance, backend: LLMBackend,
                  registry: ToolRegistry, images_enabled: bool,
                  budget: int) -> InstanceRow:
    sub = registry.subset(instance.allowed_tools)
    settings = AgentSettings(budget=budget, route=False, images_enabled=images_enabled)
    answer, _trajectory = agent_run(instance.query, sub, backend, settings=settings)

    missed = tuple(
        f.label or str(f.value) for f in instance.answer_facts
        if not f.satisfied_by(answer.text)
    )
    answered = 1 if not missed else 0

    chart_ok: bool | None = None
    answered_i = answered if images_enabled else None
    if images_enabled and instance.requires_chart:
        chart_ok = any(_chart_matches(c, instance) for c in answer.charts)
        answered_i = 1 if (answered and chart_ok) else 0
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
