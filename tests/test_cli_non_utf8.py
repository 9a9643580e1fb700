"""An input file that is not UTF-8, or not of the shape its loader reads,
ends the CLI with its one-line error."""

import json
from pathlib import Path

import pytest

from gulfclimate.cli.main import EXIT_CONFIG, EXIT_FLAGGED, main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
LATIN_1 = "# café\n".encode("latin-1")  # é is one byte, 0xE9, which UTF-8 rejects


def _write_config(tmp_path: Path, **backend) -> Path:
    config = tmp_path / "config.json"
    doc = {"provider": {"mode": "fixture", "fixture_root": str(FIXTURES)},
           "output_dir": str(tmp_path / "out")}
    if backend:
        doc["backend"] = {"kind": "scripted", **backend}
    config.write_text(json.dumps(doc), encoding="utf-8")
    return config


def _bad_copy(tmp_path: Path, source: Path) -> Path:
    """``source`` with a Latin-1 line added at its end."""
    path = tmp_path / f"bad{source.suffix}"
    path.write_bytes(source.read_bytes() + LATIN_1)
    return path


def tools_list_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_bytes(json.dumps({"output_dir": "café"}, ensure_ascii=False).encode("latin-1"))
    return ["tools", "list", "--config", str(config)]


def forge_visual_grid(tmp_path):
    grid = _bad_copy(tmp_path, FIXTURES / "gridded_temperature.txt")
    return ["forge", "visual", "--config", str(_write_config(tmp_path)), "--gridded", str(grid),
            "--city", "Doha", "--variable", "temperature"]


def bench_instances(tmp_path):
    config = _write_config(tmp_path, replay=str(ROOT / "replays" / "bench_gold.json"))
    instances = _bad_copy(tmp_path, ROOT / "benchmarks" / "smoke_instances.jsonl")
    return ["bench", str(instances), "--config", str(config)]


def bench_replay(tmp_path):
    replay = _bad_copy(tmp_path, ROOT / "replays" / "bench_gold.json")
    return ["bench", str(ROOT / "benchmarks" / "smoke_instances.jsonl"),
            "--config", str(_write_config(tmp_path, replay=str(replay)))]


def ask_replay(tmp_path):
    replay = _bad_copy(tmp_path, ROOT / "replays" / "doha_rain.json")
    return ["ask", "How much rain fell in Doha?",
            "--config", str(_write_config(tmp_path, replay=str(replay)))]


def forge_text_seeds(tmp_path):
    seeds = tmp_path / "seeds.txt"
    seeds.write_bytes("heat\n".encode() + LATIN_1)
    config = _write_config(tmp_path, replay=str(ROOT / "replays" / "doha_rain.json"))
    return ["forge", "text", "--config", str(config), "--seeds", str(seeds)]


@pytest.mark.parametrize("argv", [tools_list_config, forge_visual_grid, bench_instances,
                                  bench_replay, ask_replay, forge_text_seeds],
                         ids=lambda case: case.__name__)
def test_a_file_that_is_not_utf8_is_a_one_line_error(tmp_path, capsys, argv):
    assert main(argv(tmp_path)) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert err.startswith(("error: ", "configuration error: "))
    assert err.count("\n") == 1 and "'utf-8' codec can't decode byte 0xe9" in err
    assert "Traceback" not in out + err


def test_a_fixture_that_is_not_utf8_is_a_provider_failure(tmp_path, capsys):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    (fixtures / "rain_inquiry.json").write_bytes(b'{"rows": []}' + LATIN_1)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"provider": {"mode": "fixture",
                                               "fixture_root": str(fixtures)}}))
    assert main(["tools", "call", "rain_inquiry", "--arg", "lat=25.2854", "--arg", "lon=51.531",
                 "--arg", "date=2023-04-15", "--config", str(config)]) == EXIT_FLAGGED
    observation = json.loads(capsys.readouterr().out)
    assert observation["error_code"] == "provider_failure"
    assert "is not valid JSON: 'utf-8' codec can't decode" in observation["error_message"]


def _replay_not_an_object(tmp_path: Path) -> str:
    replay = tmp_path / "replay.json"
    replay.write_text("3", encoding="utf-8")
    return str(replay)


def _instances_with(tmp_path: Path, change) -> str:
    """The smoke instances with ``change`` applied to the first record."""
    first, *rest = (ROOT / "benchmarks" / "smoke_instances.jsonl").read_text(
        encoding="utf-8").splitlines()
    doc = json.loads(first)
    change(doc)
    path = tmp_path / "instances.jsonl"
    path.write_text("\n".join([json.dumps(doc), *rest]) + "\n", encoding="utf-8")
    return str(path)


def _replay_with(tmp_path: Path, name: str, change) -> str:
    """The replay ``name`` with ``change`` applied to its document."""
    doc = json.loads((ROOT / "replays" / f"{name}.json").read_text(encoding="utf-8"))
    change(doc)
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(doc), encoding="utf-8")
    return str(replay)


def _bench(tmp_path: Path, instances: str, replay: str) -> list[str]:
    return ["bench", instances, "--config", str(_write_config(tmp_path, replay=replay))]


def _ask(tmp_path: Path, query: str, replay: str) -> list[str]:
    return ["ask", query, "--config", str(_write_config(tmp_path, replay=replay))]


def _tools_list_with_factors(tmp_path: Path, text: str) -> list[str]:
    """``tools list`` on a fixture root whose only file is ``carbon_factors.csv``."""
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    (fixtures / "carbon_factors.csv").write_text(text, encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"provider": {"mode": "fixture", "fixture_root": str(fixtures)}}),
                      encoding="utf-8")
    return ["tools", "list", "--config", str(config)]


GOLD_REPLAY = str(ROOT / "replays" / "bench_gold.json")
ASK_REPLAY = str(ROOT / "replays" / "doha_rain.json")
SMOKE = str(ROOT / "benchmarks" / "smoke_instances.jsonl")


@pytest.mark.parametrize("argv, err", [
    (lambda tmp: ["ask", "How much rain fell in Doha?", "--config",
                  str(_write_config(tmp, replay=_replay_not_an_object(tmp)))],
     "configuration error: replay file {tmp}/replay.json has no 'emissions' array\n"),
    (lambda tmp: _bench(tmp, SMOKE, _replay_not_an_object(tmp)),
     "configuration error: bench replay {tmp}/replay.json has no 'runs' object\n"),
    (lambda tmp: _bench(tmp, _instances_with(
        tmp, lambda doc: doc["gold_trace"][0].update(arg_names=[None, "region"])), GOLD_REPLAY),
     "error: {tmp}/instances.jsonl:1: bad instance record: "
     "arg_names [None, 'region'] is not an array of strings\n"),
    (lambda tmp: _bench(tmp, _instances_with(
        tmp, lambda doc: doc["gold_trace"][0].update(arg_names="region")), GOLD_REPLAY),
     "error: {tmp}/instances.jsonl:1: bad instance record: "
     "arg_names 'region' is not an array of strings\n"),
    (lambda tmp: _bench(tmp, _instances_with(
        tmp, lambda doc: doc.update(allowed_tools="rain_inquiry")), GOLD_REPLAY),
     "error: {tmp}/instances.jsonl:1: bad instance record: "
     "allowed_tools 'rain_inquiry' is not an array of strings\n"),
    (lambda tmp: _ask(tmp, "How much rain fell in Doha?", _replay_with(
        tmp, "doha_rain", lambda doc: doc.update(emissions=[*doc["emissions"][:3], None]))),
     "configuration error: replay file {tmp}/replay.json: emissions[3] is not a string: None\n"),
    (lambda tmp: _bench(tmp, SMOKE, _replay_with(
        tmp, "bench_gold", lambda doc: doc["runs"].update({"doha-forecast": 5}))),
     "configuration error: bench replay run 'doha-forecast' is not an object: 5\n"),
    (lambda tmp: _bench(tmp, SMOKE, _replay_with(
        tmp, "bench_gold", lambda doc: doc["runs"]["doha-rain"]["steps"][1].update(action=None))),
     "configuration error: bench replay run 'doha-rain': steps[1].action is not a string: "
     "None\n"),
    (lambda tmp: _ask(tmp, "", ASK_REPLAY), "configuration error: query must be non-empty\n"),
    (lambda tmp: _ask(tmp, " \n\t", ASK_REPLAY),
     "configuration error: query must be non-empty\n"),
    (lambda tmp: _tools_list_with_factors(tmp, "country,industry,year\nQatar,energy,2022\n"),
     "error: {tmp}/fixtures/carbon_factors.csv:1: missing columns ['factor']\n"),
    (lambda tmp: _tools_list_with_factors(
        tmp, "country,industry,year,factor\nQatar,energy,2022,0.5\nQatar,water,22.5,0.1\n"),
     "error: {tmp}/fixtures/carbon_factors.csv:3: "
     "invalid literal for int() with base 10: '22.5'\n"),
    (lambda tmp: _tools_list_with_factors(
        tmp, "country,industry,year,factor\nQatar,energy,2022,inf\n"),
     "error: factor for ('Qatar', 'energy', 2022) must be a finite number above 0\n"),
], ids=["ask_replay_not_an_object", "bench_replay_not_an_object", "gold_arg_name_null",
        "gold_arg_names_a_string", "allowed_tools_a_string", "ask_emission_null",
        "bench_run_not_an_object", "bench_action_null", "ask_query_empty", "ask_query_blank",
        "factor_column_missing", "factor_year_not_an_integer", "factor_infinite"])
def test_a_file_of_the_wrong_shape_is_a_one_line_error(tmp_path, capsys, argv, err):
    assert main(argv(tmp_path)) == EXIT_CONFIG
    out, got = capsys.readouterr()
    assert (out, got) == ("", err.format(tmp=tmp_path))
