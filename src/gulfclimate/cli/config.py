"""Run configuration: one JSON file (see :func:`load_config`)."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from ..agent.backend import LLMBackend, RemoteChatBackend, ScriptedBackend
from ..agent.runner import DEFAULT_BUDGET
from ..errors import ConfigError
from ..jsoninput import finite_number, read_json
from ..tools.providers import ProviderConfig
from ..tools.suite import ToolSettings


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "scripted"  # scripted | remote
    replay: Path | None = None
    endpoint: str | None = None
    model: str | None = None
    api_key_env: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("scripted", "remote"):
            raise ConfigError(f"unknown backend kind {self.kind!r}")
        if self.kind == "scripted" and self.replay is None:
            raise ConfigError("scripted backend requires a replay file")
        if self.kind == "remote" and not (self.endpoint and self.model):
            raise ConfigError("remote backend requires endpoint and model")

    def build(self) -> LLMBackend:
        if self.kind == "scripted":
            return ScriptedBackend.from_file(self.replay)
        return RemoteChatBackend(endpoint=self.endpoint, model=self.model,
                                 api_key_env=self.api_key_env)


@dataclass(frozen=True)
class RunConfig:
    provider: ProviderConfig
    backend: BackendConfig | None
    output_dir: Path = Path("out")
    seed: int = 0
    budget: int = DEFAULT_BUDGET
    route_intent: bool = True
    # No config key sets ``settings``; it stays at its defaults only because the
    # benchmark's timed setup passes it to ``build_registry(settings=...)``.
    settings: ToolSettings = field(default_factory=ToolSettings)
    raw: dict = field(default_factory=dict)

    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _checked(value, kind: type, key: str):
    """``value`` if it is a JSON ``kind`` (a bool only for bool), else a :class:`ConfigError`."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}")
    return value


def _optional_str(doc: dict, key: str) -> str | None:
    """``doc[key]`` as :func:`_checked` reads a string, or ``None`` when absent."""
    return None if doc.get(key) is None else _checked(doc[key], str, key)


def _object(value, where: str, keys, unknown_label: str) -> dict:
    """``value`` when it is a JSON object whose keys are all in ``keys``, or
    :class:`ConfigError` naming ``where`` or the unknown keys."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected object, got {value!r}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ConfigError(f"unknown {unknown_label}: {', '.join(unknown)}")
    return value


_CONFIG_KEYS = ("provider", "backend", "output_dir", "seed", "budget", "route_intent")
_PROVIDER_KEYS = ("mode", "fixture_root", "timeout_s")
_BACKEND_KEYS = ("kind", "replay", "endpoint", "model", "api_key_env")


def load_config(path: str | Path) -> RunConfig:
    """Read a run config: a JSON object whose keys are all optional.

    - ``provider``, an object:
      - ``mode``: ``fixture`` (the default) or ``live_http``;
      - ``fixture_root``: a string, relative to the config's directory; the
        fixture mode needs it;
      - ``timeout_s``: a finite number above 0, 30 by default.
    - ``backend``, an object; without it there is no backend:
      - ``kind``: ``scripted`` (the default) or ``remote``;
      - ``replay``: a string, relative to the config's directory; the
        scripted kind needs it;
      - ``endpoint`` and ``model``: strings, unset by default; the remote
        kind needs both;
      - ``api_key_env``: a string, empty by default.
    - ``output_dir``: a string, relative to the config's directory, ``out``
      by default.
    - ``seed``: an integer, 0 by default.
    - ``budget``: an integer of at least 1, 8 by default.
    - ``route_intent``: a boolean, true by default.

    A key not named above, a value not of its type (an int passes for a
    number, and only ``true`` or ``false`` for a boolean), a value out of its
    range, a file that is not UTF-8 or a string holding a lone surrogate
    (which no output file can encode) raises :class:`ConfigError`.
    """
    path = Path(path)
    doc = read_json(path, "config")
    try:
        json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ConfigError(f"config {path} holds a lone surrogate "
                          f"{exc.object[exc.start]!r}, which UTF-8 cannot encode") from exc
    base = path.parent
    _object(doc, "config", _CONFIG_KEYS, "config keys")

    provider_doc = _object(doc.get("provider", {}), "provider", _PROVIDER_KEYS,
                           "provider keys")
    fixture_root = _optional_str(provider_doc, "fixture_root")
    if fixture_root is not None and not Path(fixture_root).is_absolute():
        fixture_root = (base / fixture_root).resolve()
    timeout_s = provider_doc.get("timeout_s", 30.0)
    if not (finite_number(timeout_s) and timeout_s > 0):
        raise ConfigError(f"timeout_s: expected a finite number above 0, got {timeout_s!r}")
    provider = ProviderConfig(
        kind=provider_doc.get("mode", "fixture"),
        fixture_root=Path(fixture_root) if fixture_root else None,
        timeout_s=float(timeout_s),
    )

    backend = None
    if "backend" in doc:
        backend_doc = _object(doc["backend"], "backend", _BACKEND_KEYS, "backend keys")
        replay = _optional_str(backend_doc, "replay")
        if replay is not None and not Path(replay).is_absolute():
            replay = (base / replay).resolve()
        backend = BackendConfig(
            kind=backend_doc.get("kind", "scripted"),
            replay=Path(replay) if replay else None,
            endpoint=_optional_str(backend_doc, "endpoint"),
            model=_optional_str(backend_doc, "model"),
            api_key_env=_checked(backend_doc.get("api_key_env", ""), str, "api_key_env"),
        )

    output_dir = Path(_checked(doc.get("output_dir", "out"), str, "output_dir"))
    if not output_dir.is_absolute():
        output_dir = (base / output_dir).resolve()

    budget = _checked(doc.get("budget", DEFAULT_BUDGET), int, "budget")
    if budget < 1:
        raise ConfigError(f"budget: expected at least 1, got {budget!r}")

    return RunConfig(
        provider=provider,
        backend=backend,
        output_dir=output_dir,
        seed=_checked(doc.get("seed", 0), int, "seed"),
        budget=budget,
        route_intent=_checked(doc.get("route_intent", True), bool, "route_intent"),
        raw=doc,
    )
