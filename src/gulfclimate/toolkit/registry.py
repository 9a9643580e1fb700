"""Tool registry: signature lookup, argument validation, execution envelopes."""

from __future__ import annotations

import re
from datetime import date
from typing import Any, Callable, Collection, Mapping

from ..core import GeoPoint, default_table
from ..core import CanonicalSeries
from ..errors import GulfClimateError
from .types import (
    CATEGORIES,
    CATEGORY_TITLES,
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


class RegistryError(GulfClimateError, ValueError):
    """Registry construction violates its invariants."""


class ToolExecutionError(GulfClimateError):
    """Raised by executors; surfaced as an error observation, never a crash."""

    code = "provider_failure"

    def __init__(self, message: str = "", code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


Executor = Callable[..., ToolResult]


class ToolRegistry:
    """Immutable mapping of tool names to (signature, executor) pairs.

    The benchmark harness runs instances on several threads once the backend
    wait dominates, so an executor may be called from several threads at
    once and must not keep per-call state on shared objects.
    """

    def __init__(self, entries: Mapping[ToolSignature, Executor]):
        by_name: dict[str, tuple[ToolSignature, Executor]] = {}
        for sig, executor in entries.items():
            if sig.name in by_name:
                raise RegistryError(f"duplicate tool name {sig.name!r}")
            by_name[sig.name] = (sig, executor)
        self._by_name = dict(sorted(by_name.items()))

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._by_name)

    def names(self) -> tuple[str, ...]:
        return tuple(self._by_name)

    def signature(self, name: str) -> ToolSignature:
        return self._by_name[name][0]

    def executor(self, name: str) -> Executor:
        return self._by_name[name][1]

    def signatures(self) -> tuple[ToolSignature, ...]:
        return tuple(sig for sig, _ in self._by_name.values())

    def subset(self, names: Collection[str]) -> "ToolRegistry":
        """A registry exposing only the given tools; executors are shared."""
        wanted = set(names)
        missing = wanted - set(self._by_name)
        if missing:
            raise RegistryError(f"unknown tools in subset: {sorted(missing)}")
        return ToolRegistry(dict(self._by_name[n] for n in sorted(wanted)))


def _coerce(value: Any, spec: ParamSpec) -> Any:
    """Coerce a scalar argument to its semantic type or raise ValueError."""
    if spec.type == "real":
        if isinstance(value, bool):
            raise ValueError("boolean is not a real number")
        if isinstance(value, (int, float)):
            out = float(value)
        elif isinstance(value, str) and _NUMERIC_RE.match(value.strip()):
            out = float(value.strip())
        else:
            raise ValueError(f"expected a real number, got {value!r}")
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
        try:
            return date.fromisoformat(value.strip())
        except ValueError:
            raise ValueError(f"expected an ISO date (YYYY-MM-DD), got {value!r}") from None
    elif spec.type == "geopoint":
        if isinstance(value, GeoPoint):
            return value
        if isinstance(value, str) and value.count(",") == 1:
            lat_s, lon_s = value.split(",")
            try:
                return GeoPoint(lat=float(lat_s), lon=float(lon_s))
            except Exception:
                raise ValueError(f"expected 'lat,lon', got {value!r}") from None
        raise ValueError(f"expected a geopoint, got {value!r}")
    elif spec.type in ("image_ref", "audio_ref", "series_ref"):
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
    unknown parameters appear, and all values coerce to their semantic types.
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
    "integer": lambda p: isinstance(p, int) and not isinstance(p, bool),
    "string": lambda p: isinstance(p, str),
    "date": lambda p: isinstance(p, date),
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
                "change_report": "ChangeReport", "analysis_report": "AnalysisReport",
                "audio_ref": "str"}.get(returns)
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
            if spec.type in ("image_ref", "audio_ref", "series_ref"):
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
                       categories: Collection[str] | None = None,
                       names: Collection[str] | None = None) -> str:
    """Deterministic text block listing tools grouped by category.

    Categories render in their fixed interface order; tools alphabetically
    within each. ``categories``/``names`` optionally restrict the listing
    (used by intent routing and benchmark instances).
    """
    if len(registry) == 0:
        raise RegistryError("cannot render an empty registry")
    allowed_names = set(names) if names is not None else None
    allowed_cats = set(categories) if categories is not None else None
    lines: list[str] = []
    for category in CATEGORIES:
        if allowed_cats is not None and category not in allowed_cats:
            continue
        sigs = [s for s in registry.signatures() if s.category == category]
        if allowed_names is not None:
            sigs = [s for s in sigs if s.name in allowed_names]
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
