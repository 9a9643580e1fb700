"""Benchmark replay files: scripted emissions per instance, per mode.

Format: ``{"runs": {"<instance_id>": {"steps": [{"action": ..., "summary":
...}], "final": "..."}}}``. Step mode consumes action/summary pairs in gold
order; end-to-end mode consumes the actions then the final answer.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..agent.backend import ScriptedBackend
from ..errors import ConfigError
from .model import BenchmarkInstance


class BenchReplay:
    def __init__(self, runs: dict):
        self.runs = runs

    @classmethod
    def load(cls, path: str | Path) -> "BenchReplay":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read bench replay {path}: {exc}") from exc
        runs = doc.get("runs") if isinstance(doc, dict) else None
        if not isinstance(runs, dict):
            raise ConfigError(f"bench replay {path} has no 'runs' object")
        return cls(runs)

    def _run_for(self, instance: BenchmarkInstance) -> dict:
        run = self.runs.get(instance.id)
        if run is None:
            raise ConfigError(f"replay has no run for instance {instance.id!r}")
        return run

    def step_backend(self, instance: BenchmarkInstance) -> ScriptedBackend:
        run = self._run_for(instance)
        emissions: list[str] = []
        for step in run.get("steps", []):
            emissions.append(step.get("action", ""))
            emissions.append(step.get("summary", ""))
        return ScriptedBackend(emissions)

    def e2e_backend(self, instance: BenchmarkInstance) -> ScriptedBackend:
        run = self._run_for(instance)
        emissions = [step.get("action", "") for step in run.get("steps", [])]
        emissions.append(run.get("final", ""))
        return ScriptedBackend(emissions)
