"""In-memory spans around the program's public functions, from outside.

``Tracer.install`` replaces each function in the wrap table with a wrapper
that records a span, in every ``gulfclimate`` module that holds a reference to
it, and ``uninstall`` puts the originals back. Spans live in flat arrays
(name, metric, start, end, parent, operation) so a run of a million spans
costs tens of megabytes; ``write_sidecar`` writes them out as JSON lines when
the run ends.

Span names follow the OpenTelemetry GenAI conventions where one exists
(``chat {model}``, ``invoke_agent {agent}``, ``execute_tool {tool}``,
``embeddings {model}``); other spans are named ``<layer>.<function>``.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from gulfclimate.core import CanonicalSeries

TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans are properly nested (one thread), so children do not overlap and
    the part of a span they cover is the sum of their durations.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def tail_percentile(samples) -> tuple[float, float] | None:
    """(percentile, value) for the highest of ``TAIL_PERCENTILES`` that has at
    least ``MIN_BEYOND`` samples above its nearest-rank position, or None
    when even the median has fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(n * pct / 100.0))
        if n - rank >= MIN_BEYOND:
            return pct, ordered[rank - 1]
    return None


def series_records(result: Any) -> int:
    """CanonicalRecords in a returned series, tool result or (series, ...) pair."""
    if isinstance(result, tuple) and result:
        result = result[0]
    result = getattr(result, "payload", result)
    return len(result) if isinstance(result, CanonicalSeries) else 0


@dataclass(frozen=True)
class Wrap:
    """One function to trace.

    ``target`` is ``module:function`` or ``module:Class.method``. ``name`` is
    the span name, or a callable of the call's arguments returning it;
    ``span=False`` only counts. ``on_result(tracer, result, args)`` and
    ``on_error(tracer, exc)`` update counters; ``op`` marks a span that
    starts a new operation (a forge job or a benchmark instance).
    """

    target: str
    metric: str
    name: str | Callable | None = None
    on_result: Callable | None = None
    on_error: Callable | None = None
    op: bool = False
    span: bool = True


class TracedBackend:
    """A backend whose calls are ``chat`` spans with byte and call counts."""

    def __init__(self, inner, tracer: "Tracer"):
        self.inner = inner
        self.tracer = tracer
        model = getattr(inner, "model", type(inner).__name__)
        self.name_id = tracer.intern(f"chat {model}")
        self.metric_id = tracer.intern_metric("agent.backend_wait_s")

    def complete(self, messages) -> str:
        tracer = self.tracer
        idx = tracer.open(self.name_id, self.metric_id, False)
        try:
            emission = self.inner.complete(messages)
        finally:
            tracer.close(idx)
        counts = tracer.counts
        counts["agent.backend_calls"] += 1
        counts["agent.prompt_bytes"] += sum(len(m["content"].encode("utf-8")) for m in messages)
        counts["agent.emission_bytes"] += len(emission.encode("utf-8"))
        return emission


class Tracer:
    def __init__(self, wraps: list[Wrap]):
        self.wraps = wraps
        self.names: list[str] = []
        self.metrics: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._metric_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.metric_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        self.memo: dict = {}  # state kept by counting hooks
        self._stack: list[int] = []
        self._ops = 0
        self._plan_cache: list | None = None
        self.installed = False
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------------

    def intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def intern_metric(self, metric: str) -> int:
        idx = self._metric_ids.get(metric)
        if idx is None:
            idx = self._metric_ids[metric] = len(self.metrics)
            self.metrics.append(metric)
        return idx

    def open(self, name_id: int, metric_id: int, is_op: bool) -> int:
        idx = len(self.start)
        parent = self._stack[-1] if self._stack else -1
        if is_op:
            self._ops += 1
            op = self._ops
        else:
            op = self.op[parent] if parent >= 0 else -1
        self.name_id.append(name_id)
        self.metric_id.append(metric_id)
        self.parent.append(parent)
        self.op.append(op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def backend(self, inner):
        """``inner`` wrapped in chat spans while installed, else ``inner``."""
        return TracedBackend(inner, self) if self.installed else inner

    # -- installing wrappers ---------------------------------------------------

    def _wrapper(self, spec: Wrap, fn: Callable) -> Callable:
        tracer = self
        metric_id = self.intern_metric(spec.metric)
        fixed_name = self.intern(spec.name or spec.target.split(":")[1]) \
            if not callable(spec.name) else None
        on_result, on_error = spec.on_result, spec.on_error

        if not spec.span:
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_result(tracer, result, args)
                return result
            return counting

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name_id = fixed_name if fixed_name is not None else tracer.intern(spec.name(args))
            idx = tracer.open(name_id, metric_id, spec.op)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.close(idx)
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            tracer.close(idx)
            if on_result is not None:
                on_result(tracer, result, args)
            return result
        return traced

    def _plan(self) -> list[tuple[Any, str, Any, Any]]:
        """(owner, attribute, original, wrapper) for every reference to patch.

        Targets the program no longer has are skipped and listed in
        ``missing``, so the benchmark still runs after a refactor.
        """
        plan = []
        for spec in self.wraps:
            module_name, _, path = spec.target.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(spec.target)
                continue
            if owner_name:
                wrapper = classmethod(self._wrapper(spec, raw.__func__)) \
                    if isinstance(raw, classmethod) else self._wrapper(spec, raw)
                plan.append((owner, attr, raw, wrapper))
                continue
            wrapper = self._wrapper(spec, raw)
            # Modules that imported the function by name hold their own reference.
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("gulfclimate"):
                    plan += [(mod, key, raw, wrapper)
                             for key, value in vars(mod).items() if value is raw]
        return plan

    def install(self) -> None:
        if self._plan_cache is None:
            self._plan_cache = self._plan()
        if not self.installed:
            for owner, attr, _original, wrapper in self._plan_cache:
                setattr(owner, attr, wrapper)
            self.installed = True

    def uninstall(self) -> None:
        if self.installed:
            for owner, attr, original, _wrapper in reversed(self._plan_cache):
                setattr(owner, attr, original)
            self.installed = False

    # -- results ---------------------------------------------------------------

    def metric_totals(self, first: int, last: int) -> dict[str, float]:
        """Summed self time per metric over spans ``first`` to ``last``."""
        start, end = self.start[first:last], self.end[first:last]
        parent = [p - first if p >= first else -1 for p in self.parent[first:last]]
        totals: dict[str, float] = {m: 0.0 for m in self.metrics}
        for metric, own in zip(self.metric_id[first:last], self_times(start, end, parent)):
            totals[self.metrics[metric]] += own
        return totals

    def top_level_seconds(self, first: int, last: int) -> float:
        return sum(self.end[i] - self.start[i] for i in range(first, last)
                   if self.parent[i] < 0)

    def count_children(self, child_prefix: str, parent_name: str, first: int,
                       last: int) -> int:
        """Spans named ``child_prefix...`` whose parent is named ``parent_name``."""
        parent_id = self._name_ids.get(parent_name)
        ids = {i for i, n in enumerate(self.names) if n.startswith(child_prefix)}
        return sum(1 for i in range(first, last) if self.name_id[i] in ids
                   and self.parent[i] >= 0 and self.name_id[self.parent[i]] == parent_id)

    def durations(self, name_prefix: str, first: int, last: int) -> list[float]:
        ids = {i for i, n in enumerate(self.names) if n.startswith(name_prefix)}
        return [self.end[i] - self.start[i] for i in range(first, last)
                if self.name_id[i] in ids]

    def write_sidecar(self, path: Path, meta: dict) -> None:
        """One header line, then one ``[name, metric, start_us, end_us,
        parent, op]`` line per span, times relative to the first span."""
        origin = self.start[0] if len(self) else 0.0
        lines = [json.dumps({"format": "perfbench-spans", "version": 1, **meta,
                             "names": self.names, "metrics": self.metrics,
                             "fields": ["name", "metric", "start_us", "end_us",
                                        "parent", "op"]}, sort_keys=True)]
        for n, m, s, e, p, o in zip(self.name_id, self.metric_id, self.start, self.end,
                                    self.parent, self.op):
            lines.append(f"[{n},{m},{(s - origin) * 1e6:.1f},{(e - origin) * 1e6:.1f},{p},{o}]")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
