"""Benchmark replay files: scripted emissions per instance, per mode.

Format: ``{"runs": {"<instance_id>": {"steps": [{"action": ..., "summary":
...}], "final": "..."}}}``. Each run is an object; ``steps``, when present, is
an array of objects, and ``action``, ``summary`` and ``final``, when present,
are strings (an absent one reads as ``""``). A file of another shape raises
:class:`ConfigError` naming the run and entry. Step mode consumes
action/summary pairs in gold order; end-to-end mode consumes the actions then
the final answer.
"""

from __future__ import annotations

from pathlib import Path

from ..agent.backend import ScriptedBackend
from ..errors import ConfigError
from ..jsoninput import read_json
from .model import BenchmarkInstance


def _check_run(instance_id: str, run) -> None:
    """:class:`ConfigError` naming the run, or its entry, that is not of the
    replay format's shape."""
    where = f"bench replay run {instance_id!r}"
    if not isinstance(run, dict):
        raise ConfigError(f"{where} is not an object: {run!r}")
    steps = run.get("steps", [])
    if not isinstance(steps, list):
        raise ConfigError(f"{where}: steps is not an array: {steps!r}")
    fields = [("final", run.get("final", ""))]
    for k, step in enumerate(steps):
        if not isinstance(step, dict):
            raise ConfigError(f"{where}: steps[{k}] is not an object: {step!r}")
        fields += [(f"steps[{k}].{key}", step.get(key, "")) for key in ("action", "summary")]
    for name, value in fields:
        if not isinstance(value, str):
            raise ConfigError(f"{where}: {name} is not a string: {value!r}")


class BenchReplay:
    def __init__(self, runs: dict):
        for instance_id, run in runs.items():
            _check_run(instance_id, run)
        self.runs = runs

    @classmethod
    def load(cls, path: str | Path) -> "BenchReplay":
        doc = read_json(path, "bench replay")
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
