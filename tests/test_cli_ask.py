"""``gulfclimate ask`` on the checked-in agent replays, and ``tools call``."""

import hashlib
import json
from pathlib import Path

import pytest

from gulfclimate.cli.main import EXIT_CONFIG, EXIT_FLAGGED, EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
QUERY = "How much rain fell in Doha on 2023-04-15?"
# SHA-256 of ``answer.json`` and ``trajectory.json`` per replay.
GOLDEN = json.loads((ROOT / "tests" / "data" / "ask_golden.json").read_text(encoding="utf-8"))
OUTPUT_FILES = ("answer.json", "trajectory.json")


def ask_digests(tmp_path: Path, replay: str) -> tuple[int, dict]:
    """Exit code and output digests of one ``gulfclimate ask`` run."""
    tmp_path.mkdir()
    config = tmp_path / "config.json"
    out = tmp_path / "out"
    config.write_text(json.dumps({
        "provider": {"kind": "fixture", "fixture_root": str(FIXTURES)},
        "backend": {"kind": "scripted", "replay": str(ROOT / "replays" / f"{replay}.json")},
        "output_dir": str(out),
    }), encoding="utf-8")
    code = main(["ask", QUERY, "--config", str(config)])
    return code, {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                  for name in OUTPUT_FILES}


@pytest.mark.parametrize("replay, exit_code", [("doha_rain", EXIT_OK),
                                               ("doha_rain_ungrounded", EXIT_FLAGGED)])
def test_cli_ask_outputs_are_golden_and_repeatable(tmp_path, capsys, replay, exit_code):
    first = ask_digests(tmp_path / "first", replay)
    second = ask_digests(tmp_path / "second", replay)
    assert first == second
    assert first == (exit_code, GOLDEN[replay])
    if exit_code == EXIT_FLAGGED:
        assert "ungrounded numbers: 99.9\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv, exit_code, stderr", [
    (["rain_gauge"], EXIT_CONFIG, "invalid call (unknown_tool): rain_gauge\n"),
    (["rain_inquiry", "--arg", "lat=125", "--arg", "lon=51.531", "--arg", "day=2023-04-15"],
     EXIT_CONFIG, "invalid call (arg_error): unknown argument: day; "
                  "bad value for lat: value 125.0 above maximum 90; missing: date\n"),
    (["rain_inquiry", "--args-json", '{"lat": 25.2854, "lon": 51.531, "date": "2019-04-15"}'],
     EXIT_FLAGGED, ""),
    (["rain_inquiry", "--args-json", '{"lat": 25.2854, "lon": 51.531, "date": "2023-04-15"}'],
     EXIT_OK, ""),
])
def test_cli_tools_call_reports_invalid_calls_apart_from_failed_ones(
        tmp_path, capsys, argv, exit_code, stderr):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"provider": {"kind": "fixture",
                                               "fixture_root": str(FIXTURES)}}))
    assert main(["tools", "call", *argv, "--config", str(config)]) == exit_code
    out, err = capsys.readouterr()
    assert err == stderr
    assert bool(out) == (exit_code != EXIT_CONFIG)
