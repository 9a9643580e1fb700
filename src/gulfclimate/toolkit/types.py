"""Typed tool signatures, calls, and observation envelopes."""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Any, Mapping

from ..core.geo import GeoPoint
from ..errors import GulfClimateError

PARAM_TYPES = ("real", "integer", "string", "date", "image_ref", "audio_ref")
RETURN_TYPES = ("real", "string", "geopoint", "image_ref", "series_ref", "index_map",
                "change_report", "analysis_report", "mapping", "list")
# Parameter types whose value is an opaque reference, resolved at execution.
REF_TYPES = ("image_ref", "audio_ref")

# Category order fixed for prompt rendering: the six interface groups plus
# the geospatial utility group.
CATEGORIES = ("remote_sensing", "biodiversity", "web", "carbon",
              "air_quality", "weather_hydrology", "geospatial")

CATEGORY_TITLES = {
    "remote_sensing": "Remote sensing and land surface",
    "biodiversity": "Biodiversity and species",
    "web": "Web retrieval and summarization",
    "carbon": "Carbon and sustainability",
    "air_quality": "Air quality and health indices",
    "weather_hydrology": "Weather, rainfall, and hydrology",
    "geospatial": "Geospatial utility",
}


class SignatureError(GulfClimateError, ValueError):
    """A tool signature violates its invariants."""


@dataclass(frozen=True)
class ParamSpec:
    """One named, semantically typed tool parameter."""

    name: str
    type: str
    required: bool = True
    minimum: float | None = None
    maximum: float | None = None

    def __post_init__(self) -> None:
        if self.type not in PARAM_TYPES:
            raise SignatureError(f"unknown param type {self.type!r}")


@dataclass(frozen=True)
class ToolSignature:
    name: str
    category: str
    params: tuple[ParamSpec, ...]
    returns: str
    description: str

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise SignatureError(f"unknown category {self.category!r} for {self.name}")
        if self.returns not in RETURN_TYPES:
            raise SignatureError(f"unknown return type {self.returns!r} for {self.name}")
        names = [p.name for p in self.params]
        if len(names) != len(set(names)):
            raise SignatureError(f"duplicate param names in {self.name}")

    def required_params(self) -> frozenset[str]:
        return frozenset(p.name for p in self.params if p.required)


@dataclass(frozen=True)
class ToolCall:
    """A parsed tool invocation: tool name plus an argument map."""

    tool: str
    args: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", dict(self.args))

    def __hash__(self):
        return hash((self.tool, tuple(sorted(self.args.items(), key=lambda kv: kv[0]))))


@dataclass(frozen=True)
class FinalAnswer:
    """A plain-prose model emission carrying no tool call."""

    text: str


@dataclass(frozen=True)
class CallFormatError:
    """Verdict for a structurally broken call block (not an exception)."""

    reason: str


@dataclass(frozen=True)
class ObservationStatus:
    kind: str  # "ok" | "error"
    code: str | None = None
    message: str | None = None

    @classmethod
    def ok(cls) -> "ObservationStatus":
        return cls(kind="ok")

    @classmethod
    def error(cls, code: str, message: str = "") -> "ObservationStatus":
        return cls(kind="error", code=code, message=message)

    @property
    def is_ok(self) -> bool:
        return self.kind == "ok"


@dataclass(frozen=True)
class Observation:
    """Standardized tool-output envelope fed back to the agent."""

    tool: str
    payload: Any
    status: ObservationStatus
    units: str | None = None
    timestamps: tuple[datetime, datetime] | None = None
    location: GeoPoint | None = None


@dataclass(frozen=True)
class ValidationVerdict:
    """Total verdict of call validation: never raises, always classifies."""

    kind: str  # "ok" | "unknown_tool" | "arg_error"
    details: tuple[str, ...] = ()
    coerced_args: Mapping[str, Any] | None = None

    @property
    def is_ok(self) -> bool:
        return self.kind == "ok"


@dataclass(frozen=True)
class ToolResult:
    """What an executor hands back before envelope construction."""

    payload: Any
    units: str | None = None
    timestamps: tuple[datetime, datetime] | None = None
    location: GeoPoint | None = None
