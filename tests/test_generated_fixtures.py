"""The generator scripts rebuild every checked-in fixture, suite and replay."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GENERATED_DIRS = ("fixtures", "benchmarks", "replays")


def _files(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for name in GENERATED_DIRS for path in sorted((root / name).rglob("*"))
            if path.is_file()}


def test_scripts_regenerate_the_checked_in_files_byte_identically(tmp_path):
    shutil.copytree(ROOT / "scripts", tmp_path / "scripts")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    for script in ("make_fixtures.py", "make_benchmarks.py"):
        done = subprocess.run([sys.executable, str(tmp_path / "scripts" / script)],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
    written = _files(tmp_path)
    checked_in = _files(ROOT)
    assert sorted(written) == sorted(checked_in)
    for name, data in written.items():
        assert data == checked_in[name], name
