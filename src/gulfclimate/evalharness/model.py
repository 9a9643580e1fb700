"""Benchmark instances, gold traces, and checkable key facts."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from ..agent.runner import numeric_claims
from ..errors import GulfClimateError
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
        return cls(label=doc.get("label", ""), value=doc.get("value"),
                   tolerance=float(doc.get("tolerance", DEFAULT_FACT_TOLERANCE)))

    def to_jsonable(self) -> dict:
        doc: dict = {"label": self.label, "value": self.value}
        if self.tolerance != DEFAULT_FACT_TOLERANCE:
            doc["tolerance"] = self.tolerance
        return doc


@dataclass(frozen=True)
class GoldStep:
    """One reference tool call: name, required argument names, optional values."""

    tool: str
    arg_names: frozenset[str]
    arg_values: dict | None = None
    summary_facts: tuple[KeyFact, ...] = ()

    @classmethod
    def from_jsonable(cls, doc: dict) -> "GoldStep":
        return cls(
            tool=doc["tool"],
            arg_names=frozenset(doc["arg_names"]),
            arg_values=doc.get("arg_values"),
            summary_facts=tuple(KeyFact.from_jsonable(f)
                                for f in doc.get("summary_facts", [])),
        )

    def to_jsonable(self) -> dict:
        doc: dict = {"tool": self.tool, "arg_names": sorted(self.arg_names)}
        if self.arg_values is not None:
            doc["arg_values"] = self.arg_values
        if self.summary_facts:
            doc["summary_facts"] = [f.to_jsonable() for f in self.summary_facts]
        return doc


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
        return cls(
            id=str(doc["id"]),
            query=doc["query"],
            allowed_tools=tuple(doc["allowed_tools"]),
            gold_trace=gold,
            answer_facts=tuple(KeyFact.from_jsonable(f)
                               for f in doc.get("answer_facts", [])),
            requires_chart=bool(doc.get("requires_chart", False)),
            requires_tools=bool(doc.get("requires_tools", bool(gold))),
        )

    def to_jsonable(self) -> dict:
        doc: dict = {
            "id": self.id,
            "query": self.query,
            "allowed_tools": list(self.allowed_tools),
            "gold_trace": [s.to_jsonable() for s in self.gold_trace],
        }
        if self.answer_facts:
            doc["answer_facts"] = [f.to_jsonable() for f in self.answer_facts]
        if self.requires_chart:
            doc["requires_chart"] = True
        if not self.requires_tools:
            doc["requires_tools"] = False
        return doc


def load_instances(path: str | Path) -> list[BenchmarkInstance]:
    """Read a line-delimited benchmark instance file."""
    instances = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            instances.append(BenchmarkInstance.from_jsonable(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise InstanceError(f"{path}:{lineno}: bad instance record: {exc}") from exc
    if not instances:
        raise InstanceError(f"{path}: no instances")
    return instances


def check_against_registry(instances: Iterable[BenchmarkInstance],
                           registry: ToolRegistry) -> None:
    """Gold arg-name sets must match each tool's required params exactly."""
    for instance in instances:
        for step in instance.gold_trace:
            if step.tool not in registry:
                raise InstanceError(f"{instance.id}: unknown gold tool {step.tool!r}")
            required = registry.signature(step.tool).required_params()
            if step.arg_names != required:
                raise InstanceError(
                    f"{instance.id}: gold arg names {sorted(step.arg_names)} != "
                    f"required params {sorted(required)} of {step.tool}"
                )
