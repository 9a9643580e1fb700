"""Time the benchmark's set-up in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py <workload> <workdir>``, where
``workdir`` holds the inputs the workload's generator wrote. Prints the
seconds from before the package import to the end of set-up: import, config
load, registry and inventory build, and instance and replay load.
"""

import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    began = perf_counter()
    from perfbench.workloads import setup

    setup(sys.argv[1], Path(sys.argv[2]))
    print(repr(perf_counter() - began))
