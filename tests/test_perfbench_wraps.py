"""Every target the benchmark's tracer wraps still exists in the package.

The tracer skips a target it cannot find, so renaming a function it wraps
would silently drop that per-layer metric from every benchmark run.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import WRAPS  # noqa: E402


def test_every_wrap_target_resolves():
    tracer = Tracer(WRAPS)
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == []
    assert not tracer.installed
