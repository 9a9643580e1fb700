"""``gulfclimate ask`` on the checked-in agent replays, and ``tools call``."""

import hashlib
import json
import os
import subprocess
import sys
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
        "provider": {"mode": "fixture", "fixture_root": str(FIXTURES)},
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


def _cli_subprocess(argv: list[str]) -> subprocess.CompletedProcess:
    """``gulfclimate argv`` in a subprocess whose stdout is strict UTF-8, where
    printing a lone surrogate raises; capsys would take any str."""
    env = dict(os.environ, PYTHONIOENCODING="utf-8", PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "gulfclimate.cli.main", *argv],
                          env=env, capture_output=True, text=True, timeout=60)


def test_cli_ask_writes_a_lone_surrogate_of_the_answer_escaped(tmp_path):
    replay = json.loads((ROOT / "replays" / "doha_rain.json").read_text(encoding="utf-8"))
    replay["emissions"][-1] += "\ud83d"
    (tmp_path / "replay.json").write_text(json.dumps(replay), encoding="utf-8")
    out = tmp_path / "out"
    (tmp_path / "config.json").write_text(json.dumps({
        "provider": {"mode": "fixture", "fixture_root": str(FIXTURES)},
        "backend": {"kind": "scripted", "replay": str(tmp_path / "replay.json")},
        "output_dir": str(out),
    }), encoding="utf-8")
    done = _cli_subprocess(["ask", QUERY, "--config", str(tmp_path / "config.json")])
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    text = replay["emissions"][-1]
    assert done.stdout.startswith(text[:-1] + "\\ud83d\n")
    answer = (out / "answer.json").read_text(encoding="utf-8")
    assert '"text": "Doha received 12.0 mm of rainfall on 2023-04-15 [step 2].\\ud83d"' in answer
    assert json.loads(answer)["text"] == text
    final = json.loads((out / "trajectory.json").read_text(encoding="utf-8"))["steps"][-1]
    assert final["action"] == {"kind": "final_answer", "text": text}
    assert final["emission"] == text


def test_cli_tools_call_prints_a_lone_surrogate_of_a_fixture_escaped(tmp_path):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    species = json.loads((FIXTURES / "detect_species.json").read_text(encoding="utf-8"))
    species["rows"][0]["candidates"][0][0] += " \ud83d"
    (fixtures / "detect_species.json").write_text(json.dumps(species), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"provider": {"mode": "fixture",
                                               "fixture_root": str(fixtures)}}))
    done = _cli_subprocess(["tools", "call", "detect_species", "--arg", "image=img_0001",
                            "--config", str(config)])
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert '"ghaf tree \\ud83d"' in done.stdout
    assert json.loads(done.stdout)["payload"][0][0] == "ghaf tree \ud83d"


@pytest.mark.parametrize("argv, exit_code, stderr", [
    (["rain_gauge"], EXIT_CONFIG, "invalid call (unknown_tool): rain_gauge\n"),
    (["rain_inquiry", "--arg", "lat=125", "--arg", "lon=51.531", "--arg", "day=2023-04-15"],
     EXIT_CONFIG, "invalid call (arg_error): unknown argument: day; "
                  "bad value for lat: value 125.0 above maximum 90; missing: date\n"),
    (["rain_inquiry", "--arg", "lat=25.2854", "--arg", "lon=51.531", "--arg", "date=2019-04-15"],
     EXIT_FLAGGED, ""),
    (["rain_inquiry", "--arg", "lat=25.2854", "--arg", "lon=51.531", "--arg", "date=2023-04-15"],
     EXIT_OK, ""),
    (["geocode_mapping", "--arg", "region=Kuwait", "--arg", "region=Doha"],
     EXIT_CONFIG, "configuration error: --arg names region twice\n"),
])
def test_cli_tools_call_reports_invalid_calls_apart_from_failed_ones(
        tmp_path, capsys, argv, exit_code, stderr):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"provider": {"mode": "fixture",
                                               "fixture_root": str(FIXTURES)}}))
    assert main(["tools", "call", *argv, "--config", str(config)]) == exit_code
    out, err = capsys.readouterr()
    assert err == stderr
    assert bool(out) == (exit_code != EXIT_CONFIG)


def test_cli_tools_call_takes_no_args_json(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"provider": {"mode": "fixture",
                                               "fixture_root": str(FIXTURES)}}))
    with pytest.raises(SystemExit) as exit_info:
        main(["tools", "call", "rain_inquiry", "--args-json", '{"lat": 25.2854}',
              "--config", str(config)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --args-json" in capsys.readouterr().err


def test_cli_ask_with_a_missing_replay_is_a_one_line_error(tmp_path, capsys):
    replay = tmp_path / "missing.json"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "provider": {"mode": "fixture", "fixture_root": str(FIXTURES)},
        "backend": {"kind": "scripted", "replay": str(replay)},
        "output_dir": str(tmp_path / "out"),
    }), encoding="utf-8")
    assert main(["ask", QUERY, "--config", str(config)]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"configuration error: cannot read replay file {replay}: "
                              f"[Errno 2] No such file or directory: '{replay}'\n")
