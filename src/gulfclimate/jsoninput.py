"""JSON inputs: the one file reader and the one finite-number rule."""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from .errors import ConfigError


def read_json(path: str | Path, what: str) -> Any:
    """The JSON in ``path``; a file unreadable or not UTF-8 JSON is a :class:`ConfigError`."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def finite_number(value: object) -> bool:
    """Whether ``value`` is a finite JSON number: no bool, NaN, ±inf or int past the top float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False
