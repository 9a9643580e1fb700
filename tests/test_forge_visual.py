"""End-to-end tests of the visual forge on the checked-in gridded fixture."""

import hashlib
import importlib.util
import json
import sys
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import pytest

from gulfclimate.agent.backend import ScriptedBackend
from gulfclimate.core import timeutil
from gulfclimate.cli.main import EXIT_CONFIG, main as cli_main
from gulfclimate.errors import ConfigError
from gulfclimate.geoforge.visualqa import VisualQAError
from gulfclimate.pipelines import forge_visual

ROOT = Path(__file__).resolve().parent.parent
GRIDDED = ROOT / "fixtures" / "gridded_temperature.txt"
# SHA-256 of every output file of the golden run below, keyed by path
# relative to the output directory.
GOLDEN = json.loads((ROOT / "tests" / "data" / "forge_visual_golden.json")
                    .read_text(encoding="utf-8"))


def _digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_golden_outputs_are_byte_identical(tmp_path):
    result = forge_visual(GRIDDED, "Doha", "temperature", tmp_path,
                          categories=("anomaly", "imputation"),
                          formats=("mcq", "tf", "open"), seed=5)
    assert result["windows_kept"] == 7
    assert result["charts"] == 21
    assert result["items_written"] == 56
    assert result["dropped"] == {}
    assert _digests(tmp_path) == GOLDEN


def test_fixture_regenerates_byte_identically():
    spec = importlib.util.spec_from_file_location("make_fixtures",
                                                  ROOT / "scripts" / "make_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.gridded_fixture_text().encode("utf-8") == GRIDDED.read_bytes()


def test_failing_window_is_dropped_and_the_job_goes_on(tmp_path):
    # Window 0 holds 30 daily values; window 1 only two, too few to inject a
    # spike or mask a span, but enough to pass a rho of 0.01.
    rows = [f"2023-01-{d:02d},0,0,{290.0 + d % 7}" for d in range(1, 31)]
    rows += ["2023-04-15,0,0,291.5", "2023-06-29,0,0,292.5"]
    grid = tmp_path / "sparse.txt"
    grid.write_text("\n".join([
        "# gridded-fixture v1", "variable: temperature", "unit: K", "cadence: daily",
        "source: sparse", "lats: 25.3", "lons: 51.5", "---", *rows]) + "\n",
        encoding="utf-8")
    out = tmp_path / "out"
    result = forge_visual(grid, "Doha", "temperature", out,
                          categories=("anomaly", "imputation"),
                          formats=("mcq", "open"), seed=1, rho=0.01)
    assert result["windows_kept"] == 2
    assert result["dropped"] == {"anomaly_windows_dropped": 1,
                                 "imputation_windows_dropped": 1}
    # Both windows are charted; window 0 alone adds two perturbed charts and
    # four items.
    assert result["charts"] == 4
    assert result["items_written"] == 4
    items = [json.loads(line) for line in
             (out / "qa_visual.jsonl").read_text(encoding="utf-8").splitlines()]
    assert {item["chart_ref"].rsplit("_", 2)[0] for item in items} == {
        "Doha_temperature_2023-01-01_2023-04-01"}


def _forecast_emission(fmt: str, n: int) -> str:
    if fmt == "mcq":
        return json.dumps([{"question": f"Question {n}?", "answer": "a",
                            "options": ["a", "b", "c"]}])
    return json.dumps([{"question": f"Question {n}?", "answer": f"answer {n}"}])


def _items(out: Path) -> list[dict]:
    return [json.loads(line) for line in
            (out / "qa_visual.jsonl").read_text(encoding="utf-8").splitlines()]


def test_malformed_emission_drops_only_its_window(tmp_path):
    formats = ("mcq", "open")
    baseline = forge_visual(GRIDDED, "Doha", "temperature", tmp_path / "anomaly",
                            categories=("anomaly",), formats=formats, seed=5)
    windows = baseline["windows_kept"]

    garbage = ScriptedBackend(["not json"] * (windows * len(formats)))
    result = forge_visual(GRIDDED, "Doha", "temperature", tmp_path / "garbage",
                          categories=("anomaly", "forecasting"), formats=formats,
                          backend=garbage, seed=5)
    assert garbage.remaining == 0
    assert result["dropped"] == {"forecasting_windows_dropped": windows}
    assert result["items_written"] == baseline["items_written"]
    assert _items(tmp_path / "garbage") == _items(tmp_path / "anomaly")

    # One malformed emission in the first window: that window's other
    # emission is still consumed, so every later window gets its own.
    emissions = [_forecast_emission(fmt, w) for w in range(windows) for fmt in formats]
    emissions[0] = "not json"
    backend = ScriptedBackend(emissions)
    result = forge_visual(GRIDDED, "Doha", "temperature", tmp_path / "one",
                          categories=("forecasting",), formats=formats,
                          backend=backend, seed=5)
    assert backend.remaining == 0
    assert result["dropped"] == {"forecasting_windows_dropped": 1}
    questions = [item["question"] for item in _items(tmp_path / "one")]
    assert questions == [f"Question {w}?" for w in range(1, windows) for _fmt in formats]


@pytest.mark.parametrize("categories, formats, error, match", [
    (("anomaly", "imputation"), ("xyz",), ConfigError, "xyz"),
    (("anomaly", "imputation"), ("mcq", "mcq"), ConfigError, "repeated QA formats"),
    (("anomaly", "anomaly"), ("mcq",), VisualQAError, "repeated categories"),
], ids=["unknown_format", "repeated_format", "repeated_category"])
def test_an_unknown_format_is_a_configuration_error_before_any_file_is_written(
        tmp_path, capsys, categories, formats, error, match):
    out = tmp_path / "out"
    with pytest.raises(error, match=match):
        forge_visual(GRIDDED, "Doha", "temperature", out,
                     categories=categories, formats=formats, seed=5)
    assert not out.exists()

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"provider": {"fixture_root": str(ROOT / "fixtures")},
                                  "output_dir": str(out)}), encoding="utf-8")
    argv = ["forge", "visual", "--config", str(config), "--gridded", str(GRIDDED),
            "--city", "Doha", "--variable", "temperature",
            "--categories", ",".join(categories), "--formats", ",".join(formats)]
    assert cli_main(argv) == EXIT_CONFIG
    assert match in capsys.readouterr().err
    assert not out.exists()


def test_each_window_is_formatted_once(tmp_path):
    """The window chart's CSV, both perturbed charts' CSVs and the anomaly
    items' dates all read one text column per window."""
    calls = []
    original = timeutil.format_timestamps

    def counting(column):
        calls.append(len(column))
        return original(column)

    # Every module of the package that imported the function by name.
    holders = [module for name, module in list(sys.modules.items())
               if name.startswith("gulfclimate")
               and getattr(module, "format_timestamps", None) is original]
    with ExitStack() as patches:
        for module in holders:
            patches.enter_context(mock.patch.object(module, "format_timestamps", counting))
        result = forge_visual(GRIDDED, "Doha", "temperature", tmp_path,
                              categories=("anomaly", "imputation"),
                              formats=("mcq", "tf", "open"), seed=5)
    assert result["windows_kept"] == 7
    assert len(calls) <= result["windows_kept"] + 2
