"""Run-config loading, driven through ``gulfclimate tools list``."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gulfclimate.cli.config import load_config
from gulfclimate.cli.main import EXIT_CONFIG, EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def _tools_list(tmp_path, doc) -> int:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    return main(["tools", "list", "--config", str(config)])


def test_live_provider_loads(tmp_path, capsys):
    assert _tools_list(tmp_path, {"provider": {"mode": "live_http"}}) == EXIT_OK
    assert capsys.readouterr().out.endswith("22 tools in 7 categories\n")
    assert load_config(tmp_path / "config.json").provider.kind == "live_http"


@pytest.mark.parametrize("doc, message", [
    ({"tool_settings": {"search_top_k": 5}}, "unknown config keys: tool_settings"),
    ({"provider": {"kind": "fixture"}}, "unknown provider keys: kind"),
    ({"seed": "seven"}, "seed: expected int, got 'seven'"),
    ({"budget": [8]}, "budget: expected int, got [8]"),
    ({"provider": {"timeout_s": "soon"}},
     "timeout_s: expected a finite number above 0, got 'soon'"),
    ({"provider": {"timeout_s": -1}}, "timeout_s: expected a finite number above 0, got -1"),
    ({"provider": {"timeout_s": 0}}, "timeout_s: expected a finite number above 0, got 0"),
    ({"provider": {"timeout_s": float("nan")}},
     "timeout_s: expected a finite number above 0, got nan"),
    ({"provider": {"timeout_s": float("inf")}},
     "timeout_s: expected a finite number above 0, got inf"),
    pytest.param({"provider": {"timeout_s": 10**400}},
                 f"timeout_s: expected a finite number above 0, got {10**400}",
                 id="timeout_s_beyond_the_float_range"),
    ({"route_intent": "false"}, "route_intent: expected bool, got 'false'"),
    ({"budget": 2.9}, "budget: expected int, got 2.9"),
    ({"budget": True}, "budget: expected int, got True"),
    ({"budget": 0}, "budget: expected at least 1, got 0"),
    ({"seed": "3"}, "seed: expected int, got '3'"),
    ({"provider": "fixture"}, "provider: expected object, got 'fixture'"),
    ({"provider": {"mode": "fixture", "root": "fixtures"}}, "unknown provider keys: root"),
    ({"backend": ["scripted"]}, "backend: expected object, got ['scripted']"),
    ({"backend": {"kind": "scripted", "replay": "r.json", "seed": 1}},
     "unknown backend keys: seed"),
    ({"budgte": 3}, "unknown config keys: budgte"),
    ({"output_dir": 5}, "output_dir: expected str, got 5"),
    ({"provider": {"fixture_root": 5}}, "fixture_root: expected str, got 5"),
    ({"backend": {"replay": 5}}, "replay: expected str, got 5"),
    ({"backend": {"kind": "remote", "endpoint": 5, "model": "m"}},
     "endpoint: expected str, got 5"),
    ({"backend": {"kind": "remote", "endpoint": "http://e", "model": ["m"]}},
     "model: expected str, got ['m']"),
    ({"backend": {"replay": "r.json", "api_key_env": 5}}, "api_key_env: expected str, got 5"),
])
def test_malformed_values_are_configuration_errors(tmp_path, capsys, doc, message):
    doc = {"provider": {"mode": "fixture", "fixture_root": str(FIXTURES)}, **doc}
    assert _tools_list(tmp_path, doc) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_a_config_that_is_not_an_object_is_a_configuration_error(tmp_path, capsys):
    assert _tools_list(tmp_path, []) == EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: config: expected object, got []\n"


def test_relative_fixture_root_resolves_against_the_config_directory(
        tmp_path, monkeypatch, capsys):
    shutil.copytree(FIXTURES, tmp_path / "data")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert _tools_list(tmp_path, {"provider": {"mode": "fixture",
                                               "fixture_root": "data"}}) == EXIT_OK
    assert capsys.readouterr().out.endswith("22 tools in 7 categories\n")
    config = load_config(tmp_path / "config.json")
    assert config.provider.fixture_root == (tmp_path / "data").resolve()
    assert config.settings.forecast_default_horizon == 3


def test_a_config_string_with_a_lone_surrogate_is_a_configuration_error(tmp_path, capsys):
    doc = {"provider": {"mode": "fixture", "fixture_root": str(FIXTURES)},
           "output_dir": "out\ud83d"}
    assert _tools_list(tmp_path, doc) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"configuration error: config {tmp_path / 'config.json'} holds a "
                              f"lone surrogate '\\ud83d', which UTF-8 cannot encode\n")


def test_ask_rejects_a_lone_surrogate_of_the_backend_model_before_the_run(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "provider": {"mode": "fixture", "fixture_root": str(FIXTURES)},
        "backend": {"kind": "scripted", "replay": str(ROOT / "replays" / "doha_rain.json"),
                    "model": "m\ud83d"},
        "output_dir": str(tmp_path / "out"),
    }), encoding="utf-8")
    assert main(["ask", "How much rain fell in Doha on 2023-04-15?",
                 "--config", str(config)]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_module_entry_point_runs_without_runtime_warning():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "gulfclimate.cli.main", "--help"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
