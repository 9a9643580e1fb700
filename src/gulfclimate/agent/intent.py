"""Query intent routing onto tool categories."""

from __future__ import annotations

import re

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


def route_intent(query: str, backend: LLMBackend) -> tuple[str, ...]:
    """The minimal category set for the dominant intent of ``query``.

    The backend is asked once with a routing prompt; an unparseable reply or
    a backend failure routes to every category.
    """
    try:
        reply = backend.complete([
            {"role": "user", "content": _ROUTING_PROMPT.format(query=query)},
        ])
    except BackendFailure:
        reply = ""
    label = _parse_label(reply)
    return CATEGORIES if label is None else INTENT_CATEGORIES[label]


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
