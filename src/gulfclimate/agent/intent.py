"""Query intent routing onto tool categories."""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..toolkit.types import CATEGORIES
from .backend import BackendFailure, LLMBackend

# Minimal category sets per dominant intent. Routing is advisory: it trims the
# rendered tool prompt, it does not sandbox execution.
INTENT_CATEGORIES: dict[str, tuple[str, ...]] = {
    "textual": ("web",),
    "numerical": ("weather_hydrology", "geospatial"),
    "geospatial": ("remote_sensing", "geospatial"),
    "health_environmental": ("air_quality", "geospatial"),
}

_ROUTING_PROMPT = (
    "Classify the dominant intent of the user query as exactly one of: "
    "textual (policy or event reporting), numerical (time-series inquiry), "
    "geospatial (satellite-derived indices), health_environmental (air "
    "quality, UV, pollen). Reply with the label only.\n\nQuery: {query}"
)

_LABEL_PATTERNS = [
    ("health_environmental", re.compile(r"health[\s_/-]?environmental|environmental|health")),
    ("geospatial", re.compile(r"geospatial")),
    ("numerical", re.compile(r"numerical")),
    ("textual", re.compile(r"textual")),
]

_QUERY_CUES = [
    ("health_environmental", re.compile(r"\b(aqi|air quality|pollut|uv|pollen|pm2|pm10|ozone)\b")),
    ("geospatial", re.compile(r"\b(satellite|ndvi|ndwi|vegetation|desertif|imagery|land)\b")),
    ("numerical", re.compile(r"\b(rain|rainfall|temperature|discharge|flood|forecast|trend|weather)\b")),
]


@dataclass(frozen=True)
class Intent:
    label: str
    routed_categories: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.routed_categories:
            raise ValueError("routed_categories must be non-empty")


def route_intent(query: str, backend: LLMBackend) -> Intent:
    """Infer the dominant intent and the minimal category set for it.

    The backend is asked once with a routing prompt; an unparseable reply
    falls back to all categories (with a keyword-cue label so downstream
    logging still has something meaningful).
    """
    if not query.strip():
        raise ValueError("query must be non-empty")
    try:
        reply = backend.complete([
            {"role": "user", "content": _ROUTING_PROMPT.format(query=query)},
        ])
    except BackendFailure:
        reply = ""
    label = _parse_label(reply)
    if label is not None:
        return Intent(label=label, routed_categories=INTENT_CATEGORIES[label])
    return Intent(label=_cue_label(query), routed_categories=CATEGORIES)


def _parse_label(reply: str) -> str | None:
    text = reply.strip().casefold()
    if not text:
        return None
    hits = [(m.start(), label)
            for label, pattern in _LABEL_PATTERNS
            if (m := pattern.search(text)) is not None]
    if not hits:
        return None
    return min(hits)[1]


def _cue_label(query: str) -> str:
    text = query.casefold()
    for label, pattern in _QUERY_CUES:
        if pattern.search(text):
            return label
    return "textual"
