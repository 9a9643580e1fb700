"""Species-recognition stubs backed by fixture candidate lists.

Real perception models sit behind the same executor surface; the shipped
provider replays planted candidates keyed by reference id.
"""

from __future__ import annotations

from ..toolkit.types import ToolResult
from .errors import UnresolvableReference
from .providers import FixtureStore


def make_detection_executor(store: FixtureStore, tool: str, param: str):
    """Executor for ``tool``: the candidates recorded for the reference id
    passed as ``param``, most confident first."""
    def run(**kwargs) -> ToolResult:
        ref = kwargs[param]
        if not isinstance(ref, str):
            raise UnresolvableReference(f"{tool} expects a reference id, got {type(ref).__name__}")
        for row in store.rows(tool):
            if row["ref"] == ref:
                candidates = [(str(name), float(conf)) for name, conf in row["candidates"]]
                candidates.sort(key=lambda c: -c[1])
                return ToolResult(payload=[list(c) for c in candidates])
        raise UnresolvableReference(f"{tool}: unknown reference {ref!r}")
    return run
