"""Run configuration: one JSON file (see :func:`load_config`)."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_type_hints

from ..agent.backend import LLMBackend, RemoteChatBackend, ScriptedBackend
from ..errors import ConfigError
from ..tools import ProviderConfig, ToolSettings


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
            if not Path(self.replay).is_file():
                raise ConfigError(f"replay file not found: {self.replay}")
            return ScriptedBackend.from_file(self.replay)
        return RemoteChatBackend(endpoint=self.endpoint, model=self.model,
                                 api_key_env=self.api_key_env)


@dataclass(frozen=True)
class RunConfig:
    provider: ProviderConfig
    backend: BackendConfig | None
    output_dir: Path = Path("out")
    seed: int = 0
    budget: int = 8
    route_intent: bool = True
    settings: ToolSettings = field(default_factory=ToolSettings)
    raw: dict = field(default_factory=dict)

    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _typed(doc: dict, key: str, default, kind: type):
    try:
        return kind(doc.get(key, default))
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected {kind.__name__}, got {doc[key]!r}") from None


def _matches(value, kind: type) -> bool:
    """A JSON value has the annotated type; an int passes for a float, and a
    bool only for a bool."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def load_config(path: str | Path) -> RunConfig:
    """Read a run config: a JSON object whose keys are all optional.

    - ``provider``: ``mode`` or ``kind`` (``fixture``, the default, or
      ``live_http``), ``fixture_root`` (relative to the config's directory)
      and ``timeout_s`` (30 by default);
    - ``backend``: ``kind`` (``scripted``, the default, or ``remote``),
      ``replay`` (relative to the config's directory), ``endpoint``,
      ``model`` and ``api_key_env``; without it there is no backend;
    - ``output_dir`` (``out`` by default, relative to the config's directory);
    - ``seed`` (0) and ``budget`` (8), integers;
    - ``route_intent`` (true);
    - ``tool_settings``: :class:`~gulfclimate.tools.ToolSettings` fields by
      name.

    A malformed value, an unknown ``tool_settings`` field, one whose value
    does not have the field's type or a ``forecast_default_horizon`` below 1
    raises :class:`ConfigError`.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    base = path.parent

    provider_doc = doc.get("provider", {})
    fixture_root = provider_doc.get("fixture_root")
    if fixture_root is not None and not Path(fixture_root).is_absolute():
        fixture_root = (base / fixture_root).resolve()
    provider = ProviderConfig(
        kind=provider_doc.get("mode", provider_doc.get("kind", "fixture")),
        fixture_root=Path(fixture_root) if fixture_root else None,
        timeout_s=_typed(provider_doc, "timeout_s", 30.0, float),
    )

    backend = None
    if "backend" in doc:
        backend_doc = doc["backend"]
        replay = backend_doc.get("replay")
        if replay is not None and not Path(replay).is_absolute():
            replay = (base / replay).resolve()
        backend = BackendConfig(
            kind=backend_doc.get("kind", "scripted"),
            replay=Path(replay) if replay else None,
            endpoint=backend_doc.get("endpoint"),
            model=backend_doc.get("model"),
            api_key_env=backend_doc.get("api_key_env", ""),
        )

    output_dir = Path(doc.get("output_dir", "out"))
    if not output_dir.is_absolute():
        output_dir = (base / output_dir).resolve()

    settings_doc = doc.get("tool_settings") or {}
    setting_types = get_type_hints(ToolSettings)
    unknown = sorted(set(settings_doc) - set(setting_types))
    if unknown:
        raise ConfigError(f"unknown tool_settings: {', '.join(unknown)}")
    for name, value in settings_doc.items():
        if not _matches(value, setting_types[name]):
            raise ConfigError(f"tool_settings.{name}: expected "
                              f"{setting_types[name].__name__}, got {value!r}")
    # The default stands in for an omitted horizon, whose minimum is 1.
    horizon = settings_doc.get("forecast_default_horizon", 1)
    if horizon < 1:
        raise ConfigError(f"tool_settings.forecast_default_horizon: expected at least 1, "
                          f"got {horizon!r}")

    return RunConfig(
        provider=provider,
        backend=backend,
        output_dir=output_dir,
        seed=_typed(doc, "seed", 0, int),
        budget=_typed(doc, "budget", 8, int),
        route_intent=bool(doc.get("route_intent", True)),
        settings=ToolSettings(**settings_doc),
        raw=doc,
    )
