"""Act-observe-reason agent: routing, control loop, grounded synthesis."""

from .backend import ScriptedBackend
from .runner import AgentSettings, run

__all__ = ["AgentSettings", "ScriptedBackend", "run"]
