"""Benchmark instances, gold traces, and checkable key facts."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from ..agent.runner import numeric_claims
from ..errors import GulfClimateError
from ..jsoninput import finite_number
from ..toolkit.registry import ToolRegistry

DEFAULT_FACT_TOLERANCE = 1e-6


class InstanceError(GulfClimateError, ValueError):
    pass


@dataclass(frozen=True)
class KeyFact:
    """One checkable assertion: a label substring and/or a value match.

    Numeric values match any numeric token in the checked text within the
    relative tolerance; string values match by case-insensitive containment.
    """

    label: str = ""
    value: float | str | None = None
    tolerance: float = DEFAULT_FACT_TOLERANCE

    def satisfied_by(self, text: str) -> bool:
        if self.label and self.label.casefold() not in text.casefold():
            return False
        if self.value is None:
            return bool(self.label)
        if isinstance(self.value, str):
            return self.value.casefold() in text.casefold()
        expected = float(self.value)
        return any(abs(got - expected) <= self.tolerance * max(1.0, abs(expected))
                   for _, got in numeric_claims(text))

    @classmethod
    def from_jsonable(cls, doc: dict) -> "KeyFact":
        """A fact whose ``label`` is a string, whose ``value`` is null, a string
        or a finite number and whose ``tolerance`` is a finite number of at
        least 0; else ``ValueError``."""
        label = doc.get("label", "")
        if not isinstance(label, str):
            raise ValueError(f"fact label {label!r} is not a string")
        value = doc.get("value")
        if not (value is None or isinstance(value, str) or finite_number(value)):
            raise ValueError(f"fact value {value!r} is not null, a string or a finite number")
        tolerance = doc.get("tolerance", DEFAULT_FACT_TOLERANCE)
        if not (finite_number(tolerance) and tolerance >= 0):
            raise ValueError(f"fact tolerance {tolerance!r} is not a finite number >= 0")
        return cls(label=label, value=value, tolerance=float(tolerance))


@dataclass(frozen=True)
class GoldStep:
    """One reference tool call: name, required argument names, optional values."""

    tool: str
    arg_names: frozenset[str]
    arg_values: dict | None = None
    summary_facts: tuple[KeyFact, ...] = ()

    @classmethod
    def from_jsonable(cls, doc: dict) -> "GoldStep":
        arg_values = doc.get("arg_values")
        if not (arg_values is None or isinstance(arg_values, dict)):
            raise ValueError(f"arg_values {arg_values!r} is not null or an object")
        return cls(
            tool=doc["tool"],
            arg_names=frozenset(_strings(doc, "arg_names")),
            arg_values=arg_values,
            summary_facts=tuple(KeyFact.from_jsonable(f)
                                for f in doc.get("summary_facts", [])),
        )


@dataclass(frozen=True)
class BenchmarkInstance:
    """One regression-benchmark record: query, gold trace, answer key."""

    id: str
    query: str
    allowed_tools: tuple[str, ...]
    gold_trace: tuple[GoldStep, ...]
    answer_facts: tuple[KeyFact, ...] = ()
    requires_chart: bool = False
    requires_tools: bool = field(default=True)

    def __post_init__(self) -> None:
        if self.requires_tools and not self.gold_trace:
            raise InstanceError(f"instance {self.id}: tools required but gold trace empty")
        missing = {s.tool for s in self.gold_trace} - set(self.allowed_tools)
        if missing:
            raise InstanceError(f"instance {self.id}: gold tools not allowed: {sorted(missing)}")

    @classmethod
    def from_jsonable(cls, doc: dict) -> "BenchmarkInstance":
        gold = tuple(GoldStep.from_jsonable(s) for s in doc.get("gold_trace", []))
        query = doc["query"]
        if not (isinstance(query, str) and query.strip()):
            raise ValueError(f"query {query!r} is not a non-empty string")
        return cls(
            id=str(doc["id"]),
            query=query,
            allowed_tools=_strings(doc, "allowed_tools"),
            gold_trace=gold,
            answer_facts=tuple(KeyFact.from_jsonable(f)
                               for f in doc.get("answer_facts", [])),
            requires_chart=_flag(doc, "requires_chart", False),
            requires_tools=_flag(doc, "requires_tools", bool(gold)),
        )


def _strings(doc: dict, key: str) -> tuple[str, ...]:
    """``doc[key]`` if it is a JSON array of strings; a string is not one."""
    value = doc[key]
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ValueError(f"{key} {value!r} is not an array of strings")
    return tuple(value)


def _flag(doc: dict, key: str, default: bool) -> bool:
    """``doc[key]`` if it is a JSON boolean, ``default`` if it is absent."""
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"{key} {value!r} is not true or false")
    return value


def load_instances(path: str | Path) -> list[BenchmarkInstance]:
    """Read a line-delimited benchmark instance file.

    Each non-blank line is a JSON object with:
    - ``id``, read as a string, and ``query``, a non-empty string;
    - ``allowed_tools``, an array of strings that names every gold tool;
    - ``gold_trace``, an array of steps, each an object with a ``tool``,
      ``arg_names`` (an array of strings), ``arg_values`` (null or an
      object) and ``summary_facts``;
    - ``answer_facts`` and each step's ``summary_facts``, arrays of facts,
      each an object with a string ``label``, a ``value`` that is null, a
      string or a finite number, and a ``tolerance`` that is a finite number
      of at least 0;
    - ``requires_chart`` and ``requires_tools``, booleans.

    A record that is not UTF-8 or not of this shape raises
    :class:`InstanceError` naming its line, and so does a record whose ``id``
    an earlier line holds, naming both lines."""
    instances = []
    line_of: dict[str, int] = {}
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            instance = BenchmarkInstance.from_jsonable(json.loads(line))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise InstanceError(f"{path}:{lineno}: bad instance record: {exc}") from exc
        first = line_of.setdefault(instance.id, lineno)
        if first != lineno:
            raise InstanceError(
                f"{path}:{lineno}: instance id {instance.id!r} repeats line {first}")
        instances.append(instance)
    if not instances:
        raise InstanceError(f"{path}: no instances")
    return instances


def check_against_registry(instances: Iterable[BenchmarkInstance],
                           registry: ToolRegistry) -> None:
    """Every allowed tool (so every gold tool) must be in the registry, and
    gold arg-name sets must match each tool's required params exactly."""
    for instance in instances:
        for tool in instance.allowed_tools:
            if tool not in registry:
                raise InstanceError(f"{instance.id}: unknown allowed tool {tool!r}")
        for step in instance.gold_trace:
            required = registry.signature(step.tool).required_params()
            if step.arg_names != required:
                raise InstanceError(
                    f"{instance.id}: gold arg names {sorted(step.arg_names)} != "
                    f"required params {sorted(required)} of {step.tool}"
                )
