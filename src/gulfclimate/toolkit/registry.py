"""Tool registry: signature lookup, argument validation, execution envelopes."""

from __future__ import annotations

import re
from datetime import date
from typing import Any, Callable, Collection, Mapping

from ..core.geo import GeoPoint
from ..core.records import CanonicalSeries
from ..core.units import default_table
from ..errors import GulfClimateError
from ..jsoninput import finite_number
from .types import (
    CATEGORIES,
    CATEGORY_TITLES,
    REF_TYPES,
    Observation,
    ObservationStatus,
    ParamSpec,
    ToolCall,
    ToolResult,
    ToolSignature,
    ValidationVerdict,
)

# The status codes :func:`execute` gives a call that fails validation. No
# executor raises them, so they tell an invalid call from a failed one.
INVALID_CALL_CODES = frozenset({"unknown_tool", "arg_error"})

_NUMERIC_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_INT_RE = re.compile(r"^[+-]?\d+$")
# ``date.fromisoformat`` alone also takes ``20230415`` from Python 3.11 on.
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


class RegistryError(GulfClimateError, ValueError):
    """Registry construction violates its invariants."""


class ToolExecutionError(GulfClimateError):
    """Raised by executors; surfaced as an error observation, never a crash."""

    code = "provider_failure"


Executor = Callable[..., ToolResult]


class ToolRegistry:
    """Immutable mapping of tool names to (signature, executor) pairs.

    The benchmark harness runs instances on several threads once the backend
    wait dominates, so an executor may be called from several threads at
    once and must not keep per-call state on shared objects.

    A registry keeps each :meth:`subset` it built, per name set, and each
    :func:`render_tool_prompt` text, per category set, so a suite whose
    instances share a few allowed-tool sets builds each subset and its
    prompt once. Nothing a registry holds changes, so neither can go stale.
    Threads may race to fill the same entry: both build equal values, and
    a dict store is one step, so the race is harmless.
    """

    def __init__(self, entries: Mapping[ToolSignature, Executor]):
        by_name: dict[str, tuple[ToolSignature, Executor]] = {}
        for sig, executor in entries.items():
            if sig.name in by_name:
                raise RegistryError(f"duplicate tool name {sig.name!r}")
            by_name[sig.name] = (sig, executor)
        self._by_name = dict(sorted(by_name.items()))
        self._subsets: dict[frozenset[str], ToolRegistry] = {}
        self._prompts: dict[frozenset[str] | None, str] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._by_name)

    def signature(self, name: str) -> ToolSignature:
        return self._by_name[name][0]

    def executor(self, name: str) -> Executor:
        return self._by_name[name][1]

    def signatures(self) -> tuple[ToolSignature, ...]:
        return tuple(sig for sig, _ in self._by_name.values())

    def subset(self, names: Collection[str]) -> "ToolRegistry":
        """A registry exposing only the given tools; executors are shared.
        Built once per distinct name set."""
        wanted = frozenset(names)
        sub = self._subsets.get(wanted)
        if sub is None:
            missing = wanted - self._by_name.keys()
            if missing:
                raise RegistryError(f"unknown tools in subset: {sorted(missing)}")
            sub = self._subsets[wanted] = ToolRegistry(
                dict(self._by_name[n] for n in sorted(wanted)))
        return sub


def _coerce(value: Any, spec: ParamSpec) -> Any:
    """Coerce a scalar argument to its semantic type or raise ValueError."""
    if spec.type == "real":
        if isinstance(value, bool):
            raise ValueError("boolean is not a real number")
        if isinstance(value, (int, float)):
            out = value
        elif isinstance(value, str) and _NUMERIC_RE.match(value.strip()):
            out = float(value.strip())
        else:
            raise ValueError(f"expected a real number, got {value!r}")
        if not finite_number(out):
            raise ValueError(f"expected a finite real number, got {value!r}")
        out = float(out)
    elif spec.type == "integer":
        if isinstance(value, bool):
            raise ValueError("boolean is not an integer")
        if isinstance(value, int):
            out = value
        elif isinstance(value, float) and value.is_integer():
            out = int(value)
        elif isinstance(value, str) and _INT_RE.match(value.strip()):
            out = int(value.strip())
        else:
            raise ValueError(f"expected an integer, got {value!r}")
    elif spec.type == "string":
        if not isinstance(value, str):
            raise ValueError(f"expected a string, got {value!r}")
        return value
    elif spec.type == "date":
        if isinstance(value, date) and not isinstance(value, bool):
            return value
        if not isinstance(value, str):
            raise ValueError(f"expected an ISO date, got {value!r}")
        if _DATE_RE.fullmatch(value.strip()):
            try:
                return date.fromisoformat(value.strip())
            except ValueError:  # a month or day out of range
                pass
        raise ValueError(f"expected an ISO date (YYYY-MM-DD), got {value!r}")
    elif spec.type in REF_TYPES:
        # References stay opaque here; resolution happens at execution time.
        return value
    else:  # pragma: no cover - signature construction rejects unknown types
        raise ValueError(f"unsupported param type {spec.type}")
    if spec.minimum is not None and out < spec.minimum:
        raise ValueError(f"value {out} below minimum {spec.minimum}")
    if spec.maximum is not None and out > spec.maximum:
        raise ValueError(f"value {out} above maximum {spec.maximum}")
    return out


def validate_call(call: ToolCall, registry: ToolRegistry) -> ValidationVerdict:
    """Validate a parsed call against the registry. Total: never raises.

    ``ok`` iff the tool exists, every required parameter is present, no
    unknown parameters appear, and all values coerce to their semantic types
    (a real must be a :func:`finite_number`; ``json.loads`` reads ``NaN``).
    ``arg_error`` lists every offending field.
    """
    if call.tool not in registry:
        return ValidationVerdict(kind="unknown_tool", details=(call.tool,))
    sig = registry.signature(call.tool)
    problems: list[str] = []
    coerced: dict[str, Any] = {}
    known = {p.name for p in sig.params}
    for name in call.args:
        if name not in known:
            problems.append(f"unknown argument: {name}")
    for spec in sig.params:
        if spec.name not in call.args:
            if spec.required:
                problems.append(f"missing: {spec.name}")
            continue
        try:
            coerced[spec.name] = _coerce(call.args[spec.name], spec)
        except ValueError as exc:
            problems.append(f"bad value for {spec.name}: {exc}")
    if problems:
        return ValidationVerdict(kind="arg_error", details=tuple(problems))
    return ValidationVerdict(kind="ok", coerced_args=coerced)


_PAYLOAD_CHECKS: dict[str, Callable[[Any], bool]] = {
    "real": lambda p: isinstance(p, (int, float)) and not isinstance(p, bool),
    "string": lambda p: isinstance(p, str),
    "geopoint": lambda p: isinstance(p, GeoPoint),
    "series_ref": lambda p: isinstance(p, CanonicalSeries),
    "mapping": lambda p: isinstance(p, dict),
    "list": lambda p: isinstance(p, list),
}


def _payload_matches(payload: Any, returns: str) -> bool:
    check = _PAYLOAD_CHECKS.get(returns)
    if check is not None:
        return check(payload)
    # Artifact return types are validated structurally by their class name so
    # this module does not need to import every tool module.
    expected = {"image_ref": "RasterImage", "index_map": "IndexMap",
                "change_report": "ChangeReport", "analysis_report": "AnalysisReport"}.get(returns)
    return expected is None or type(payload).__name__ == expected


def execute(call: ToolCall, registry: ToolRegistry,
            refs: Mapping[str, Any] | None = None) -> Observation:
    """Execute a validated call and wrap the outcome in an observation.

    String-valued reference arguments are resolved through ``refs`` (the
    caller's observation store) when present; otherwise they pass through to
    the executor, which may resolve them provider-side. Executor failures
    surface as ``status=error`` observations.
    """
    verdict = validate_call(call, registry)
    if not verdict.is_ok:
        return Observation(
            tool=call.tool, payload=None,
            status=ObservationStatus.error(verdict.kind, "; ".join(verdict.details)),
        )
    sig = registry.signature(call.tool)
    executor = registry.executor(call.tool)
    kwargs = dict(verdict.coerced_args or {})
    if refs:
        for spec in sig.params:
            if spec.type in REF_TYPES:
                value = kwargs.get(spec.name)
                if isinstance(value, str) and value in refs:
                    kwargs[spec.name] = refs[value]
    try:
        result = executor(**kwargs)
    except ToolExecutionError as exc:
        return Observation(tool=call.tool, payload=None,
                           status=ObservationStatus.error(exc.code, str(exc)))
    except TimeoutError as exc:
        return Observation(tool=call.tool, payload=None,
                           status=ObservationStatus.error("timeout", str(exc)))
    except Exception as exc:  # executor bugs must not crash the loop
        return Observation(tool=call.tool, payload=None,
                           status=ObservationStatus.error("provider_failure",
                                                          f"{type(exc).__name__}: {exc}"))
    if result.units is not None and result.units not in default_table().canonical_units():
        return Observation(tool=call.tool, payload=None,
                           status=ObservationStatus.error(
                               "unit_violation",
                               f"executor returned non-canonical unit {result.units!r}"))
    if not _payload_matches(result.payload, sig.returns):
        return Observation(tool=call.tool, payload=None,
                           status=ObservationStatus.error(
                               "payload_type",
                               f"payload does not match return type {sig.returns!r}"))
    return Observation(
        tool=call.tool,
        payload=result.payload,
        status=ObservationStatus.ok(),
        units=result.units,
        timestamps=result.timestamps,
        location=result.location,
    )


def render_tool_prompt(registry: ToolRegistry,
                       categories: Collection[str] | None = None) -> str:
    """Deterministic text block listing tools grouped by category.

    Categories render in their fixed interface order; tools alphabetically
    within each. ``categories`` optionally restricts the listing (used by
    intent routing); to list only some tools, render a
    :meth:`ToolRegistry.subset`. The text is built once per registry and
    category set and kept on the registry, which threads may share (see
    :class:`ToolRegistry`).
    """
    if len(registry) == 0:
        raise RegistryError("cannot render an empty registry")
    key = frozenset(categories) if categories is not None else None
    text = registry._prompts.get(key)
    if text is None:
        text = registry._prompts[key] = _tool_prompt_text(registry, key)
    return text


def _tool_prompt_text(registry: ToolRegistry, categories: frozenset[str] | None) -> str:
    lines: list[str] = []
    for category in CATEGORIES:
        if categories is not None and category not in categories:
            continue
        sigs = [s for s in registry.signatures() if s.category == category]
        if not sigs:
            continue
        lines.append(f"## {CATEGORY_TITLES[category]}")
        for sig in sorted(sigs, key=lambda s: s.name):
            params = ", ".join(
                f"{p.name}{'' if p.required else '?'}: {p.type}" for p in sig.params
            )
            lines.append(f"- {sig.name}({params}) -> {sig.returns}: {sig.description}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
