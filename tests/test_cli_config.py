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


@pytest.mark.parametrize("key", ["kind", "mode"])
def test_live_provider_loads_with_either_key(tmp_path, capsys, key):
    assert _tools_list(tmp_path, {"provider": {key: "live_http"}}) == EXIT_OK
    assert capsys.readouterr().out.endswith("22 tools in 7 categories\n")
    assert load_config(tmp_path / "config.json").provider.kind == "live_http"


@pytest.mark.parametrize("doc, message", [
    ({"tool_settings": {"timeout_s": 5}}, "unknown tool_settings: timeout_s"),
    ({"seed": "seven"}, "seed: expected int, got 'seven'"),
    ({"budget": [8]}, "budget: expected int, got [8]"),
    ({"provider": {"timeout_s": "soon"}}, "timeout_s: expected float, got 'soon'"),
    ({"tool_settings": {"search_top_k": "5"}}, "tool_settings.search_top_k: expected int, got '5'"),
    ({"tool_settings": {"z_threshold": "3"}}, "tool_settings.z_threshold: expected float, got '3'"),
    ({"tool_settings": {"forecast_default_horizon": 2.5}},
     "tool_settings.forecast_default_horizon: expected int, got 2.5"),
    ({"tool_settings": {"rain_event_mm": True}},
     "tool_settings.rain_event_mm: expected float, got True"),
    ({"tool_settings": {"forecast_default_horizon": 0}},
     "tool_settings.forecast_default_horizon: expected at least 1, got 0"),
    ({"tool_settings": {"forecast_default_horizon": -1}},
     "tool_settings.forecast_default_horizon: expected at least 1, got -1"),
])
def test_malformed_values_are_configuration_errors(tmp_path, capsys, doc, message):
    doc = {"provider": {"kind": "fixture", "fixture_root": str(FIXTURES)}, **doc}
    assert _tools_list(tmp_path, doc) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"


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


def test_tool_settings_of_the_annotated_type_load(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "provider": {"kind": "fixture", "fixture_root": str(FIXTURES)},
        "tool_settings": {"search_top_k": 7, "z_threshold": 2, "rain_event_mm": 12.5},
    }))
    settings = load_config(config).settings
    assert (settings.search_top_k, settings.z_threshold, settings.rain_event_mm) == (7, 2, 12.5)


def test_module_entry_point_runs_without_runtime_warning():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "gulfclimate.cli.main", "--help"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
