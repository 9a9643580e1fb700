"""Deterministic JSON rendering for trajectory persistence and prompts.

Everything an observation can carry (domain dataclasses, numpy arrays,
datetimes) maps to plain JSON values with stable key ordering so repeated
runs produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
from datetime import date, datetime
from typing import Any

import numpy as np

from ..core import CanonicalSeries, GeoPoint, format_timestamp
from ..core.csvio import series_to_csv
from ..toolkit.types import Observation

OBSERVATION_BYTE_CAP = 4000  # bytes of one observation line shown to the model


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
        out = {"type": type(value).__name__}
        for f in dataclasses.fields(value):
            out[f.name] = to_jsonable(getattr(value, f.name))
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


def observation_message(body: str, index: int) -> str:
    """``body`` as the ``observation[obs_N]`` line shown to the model.

    A line above ``OBSERVATION_BYTE_CAP`` bytes is truncated with a
    deterministic note so the conversation state stays bounded.
    """
    text = f"observation[obs_{index}] {body}"
    encoded = text.encode("utf-8")
    if len(encoded) > OBSERVATION_BYTE_CAP:
        keep = encoded[:OBSERVATION_BYTE_CAP].decode("utf-8", errors="ignore")
        text = f"{keep} …[truncated {len(encoded) - OBSERVATION_BYTE_CAP} bytes]"
    return text


def dumps_stable(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=1) + "\n"
