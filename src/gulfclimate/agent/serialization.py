"""Deterministic JSON rendering for trajectory persistence and prompts.

Everything an observation can carry (domain dataclasses, numpy arrays,
datetimes) maps to plain JSON values with stable key ordering so repeated
runs produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import re
from datetime import date, datetime
from pathlib import Path
from typing import Any

import numpy as np

from ..core.csvio import series_to_csv
from ..core.geo import GeoPoint
from ..core.records import CanonicalSeries
from ..core.timeutil import format_timestamp
from ..toolkit.types import Observation

OBSERVATION_BYTE_CAP = 4000  # bytes of one observation line shown to the model

# The field names of each dataclass type :func:`to_jsonable` has met, looked
# up once per type. Threads may race to fill an entry with equal tuples.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def to_jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return None if value != value else value  # NaN has no JSON encoding
    if isinstance(value, datetime):
        return format_timestamp(value)
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, GeoPoint):
        return {"lat": value.lat, "lon": value.lon}
    if isinstance(value, CanonicalSeries):
        return {"type": "series", "csv": series_to_csv(value)}
    if isinstance(value, np.ndarray):
        return [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        names = _FIELD_NAMES.get(cls)
        if names is None:
            names = _FIELD_NAMES[cls] = tuple(f.name for f in dataclasses.fields(cls))
        out = {"type": cls.__name__}
        for name in names:
            out[name] = to_jsonable(getattr(value, name))
        return out
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    return repr(value)


def observation_to_jsonable(obs: Observation) -> dict:
    out: dict[str, Any] = {
        "tool": obs.tool,
        "status": obs.status.kind,
        "payload": to_jsonable(obs.payload),
    }
    if obs.status.code:
        out["error_code"] = obs.status.code
    if obs.status.message:
        out["error_message"] = obs.status.message
    if obs.units is not None:
        out["units"] = obs.units
    if obs.timestamps is not None:
        out["span"] = [format_timestamp(obs.timestamps[0]), format_timestamp(obs.timestamps[1])]
    if obs.location is not None:
        out["location"] = {"lat": obs.location.lat, "lon": obs.location.lon}
    return out


def render_observation(obs: Observation) -> str:
    """The observation as compact deterministic JSON, non-ASCII kept as is.

    This one encoding is both shown to the model (see
    :func:`observation_message`) and scanned for grounding numbers.
    """
    return json.dumps(observation_to_jsonable(obs), sort_keys=True, ensure_ascii=False)


def observation_message(body: str, index: int) -> tuple[str, str]:
    """``body`` as the ``observation[obs_N]`` line shown to the model, and the
    part of ``body`` that the line shows.

    A line above ``OBSERVATION_BYTE_CAP`` bytes is truncated with a
    deterministic note so the conversation state stays bounded; the shown
    part then ends at the cut and leaves out the note, whose numbers are the
    program's own.
    """
    prefix = f"observation[obs_{index}] "
    text = prefix + body
    encoded = text.encode("utf-8")
    if len(encoded) <= OBSERVATION_BYTE_CAP:
        return text, body
    keep = encoded[:OBSERVATION_BYTE_CAP].decode("utf-8", errors="ignore")
    note = f" …[truncated {len(encoded) - OBSERVATION_BYTE_CAP} bytes]"
    return keep + note, keep[len(prefix):]


def dumps_stable(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=1) + "\n"


_SURROGATE = re.compile("[\ud800-\udfff]")


def escape_surrogates(text: str) -> str:
    """``text`` with each surrogate code point, which a backend emission can
    carry but UTF-8 cannot encode, written as its JSON escape (``\\ud83d``).
    Inside a JSON string the escape reads back to the same code point."""
    return _SURROGATE.sub(lambda m: f"\\u{ord(m[0]):04x}", text)


def write_text_escaped(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, each surrogate escaped as by
    :func:`escape_surrogates`; text without one is encoded as it is."""
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError:
        data = escape_surrogates(text).encode("utf-8")
    Path(path).write_bytes(data)
