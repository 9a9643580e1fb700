"""Benchmark command for the gulfclimate package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload forge-visual --seed 1 --seconds 10 --trace 0

Generates the workload's inputs from the seed, sets up, runs one warm-up pass
whose outputs are checked, then runs passes back to back for ``--seconds``.
The last line printed is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``). Exits with 2 when the package source is missing.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("forge-visual", "forge-text", "bench-cpu", "bench-wait")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gulfclimate" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.runner import run_workload

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
