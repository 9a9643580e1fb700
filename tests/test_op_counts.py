"""Operation counts of one pass over the benchmark's tiny inputs, under ceilings.

Whole-run timings on a shared machine spread by a fifth or more, but most
slowdowns fixed so far were count regressions (a column formatted once per
chart, a page parsed once per call), and counts are exact on any machine.
Each count here must stay at or below its ceiling in
``tests/data/op_counts.json``. Lowering a ceiling is free; raising one needs
a named cause in CHANGES.md, as for a golden.
"""

import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from gulfclimate import pipelines  # noqa: E402
from gulfclimate.agent import serialization  # noqa: E402
from gulfclimate.cli.config import load_config  # noqa: E402
from gulfclimate.core import timeutil  # noqa: E402
from gulfclimate.core.records import CanonicalSeries  # noqa: E402
from gulfclimate.evalharness.model import load_instances  # noqa: E402
from gulfclimate.evalharness.replay import BenchReplay  # noqa: E402
from gulfclimate.evalharness.runner import run_e2e_mode, run_step_mode  # noqa: E402
from gulfclimate.geoforge.gridded import GriddedProduct  # noqa: E402
from gulfclimate.textforge import facts, parsing, qa  # noqa: E402
from gulfclimate.toolkit import registry as registry_module  # noqa: E402
from gulfclimate.tools.providers import FixtureStore  # noqa: E402
from gulfclimate.tools.suite import build_registry  # noqa: E402
from perfbench import gen  # noqa: E402
from perfbench.fakes import PromptKeyedBackend  # noqa: E402
from perfbench.workloads import generate  # noqa: E402

CEILINGS = json.loads((ROOT / "tests" / "data" / "op_counts.json").read_text(encoding="utf-8"))
SEED = 3


def count_calls(monkeypatch, counts: Counter, key: str, module, name: str, size=None) -> None:
    """Add one to ``counts[key]`` per call of ``module.name`` (or ``size`` of
    its arguments to ``counts[key + "_items"]``), in every module of the
    package that imported the function by name."""
    original = getattr(module, name)

    def counting(*args, **kwargs):
        counts[key] += 1
        if size is not None:
            counts[f"{key}_items"] += size(*args)
        return original(*args, **kwargs)

    for module_name, holder in list(sys.modules.items()):
        if module_name.startswith("gulfclimate") and getattr(holder, name, None) is original:
            monkeypatch.setattr(holder, name, counting)


def count_constructions(monkeypatch, counts: Counter, key: str, cls, hook: str) -> None:
    """Add one to ``counts[key]`` per instance of ``cls`` built, however it
    is built, by wrapping its ``hook`` (``__init__`` or ``__post_init__``)."""
    original = getattr(cls, hook)

    def counting(self, *args, **kwargs):
        counts[key] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, hook, counting)


class CountingBackend:
    def __init__(self, inner, counts: Counter):
        self.inner = inner
        self.counts = counts

    def complete(self, messages) -> str:
        self.counts["backend_calls"] += 1
        return self.inner.complete(messages)


def bench_counts(monkeypatch, workdir: Path) -> dict[str, int]:
    """Counts of each mode as ``gulfclimate bench --mode`` runs it, on a
    registry of its own, so the subsets and tool prompts a registry keeps
    are counted in each mode."""
    generate("bench-cpu", workdir, SEED, tiny=True)
    config = load_config(workdir / "config.json")
    registries = [build_registry(config.provider, settings=config.settings) for _ in range(2)]
    instances = load_instances(workdir / "instances.jsonl")
    replay = BenchReplay.load(config.backend.replay)
    counts: Counter = Counter()
    count_calls(monkeypatch, counts, "execute", registry_module, "execute")
    count_calls(monkeypatch, counts, "render_tool_prompt", registry_module, "render_tool_prompt")
    count_calls(monkeypatch, counts, "tool_prompts_built", registry_module, "_tool_prompt_text")
    count_calls(monkeypatch, counts, "render_observation", serialization, "render_observation")
    count_constructions(monkeypatch, counts, "series", CanonicalSeries, "__post_init__")
    count_constructions(monkeypatch, counts, "registries", registry_module.ToolRegistry,
                        "__init__")
    out: dict[str, int] = {}
    modes = (("step", run_step_mode, replay.step_backend, {}),
             ("e2e", run_e2e_mode, replay.e2e_backend,
              {"images_enabled": True, "budget": config.budget}))
    for (mode, run, make, options), registry in zip(modes, registries):
        report = run(instances, lambda instance: CountingBackend(make(instance), counts),
                     registry, **options)
        assert all(row.failure is None for row in report.instance_rows)
        out.update({f"bench.{mode}.{key}": value for key, value in counts.items()})
        counts.clear()
    return out


def visual_counts(monkeypatch, workdir: Path) -> dict[str, int]:
    meta = generate("forge-visual", workdir, SEED, tiny=True)
    counts: Counter = Counter()
    load = GriddedProduct.from_file

    def counting_load(*args):
        product = load(*args)
        counts["grid_cells"] += len(product.cells)  # the cells the product holds
        return product

    monkeypatch.setattr(GriddedProduct, "from_file", counting_load)
    count_calls(monkeypatch, counts, "format_timestamps", timeutil, "format_timestamps",
                size=len)
    count_constructions(monkeypatch, counts, "series", CanonicalSeries, "__post_init__")
    out = workdir / "out"
    result = pipelines.forge_visual(
        gridded_path=Path(meta["grid"]), city=meta["city"], variable=meta["variable"],
        out_dir=out, categories=gen.VISUAL_CATEGORIES, formats=gen.QA_FORMATS,
        backend=None, seed=0, rho=gen.WINDOW_RHO)
    assert result["items_written"] == meta["items"]
    counts["files_written"] = sum(1 for path in out.rglob("*") if path.is_file())
    return {f"visual.{key}": value for key, value in counts.items()}


def text_counts(monkeypatch, workdir: Path) -> dict[str, int]:
    meta = generate("forge-text", workdir, SEED, tiny=True)
    backend = PromptKeyedBackend.from_file(workdir / "backend.json")
    counts: Counter = Counter()
    count_calls(monkeypatch, counts, "parse_document", parsing, "parse_document")
    count_calls(monkeypatch, counts, "json_encodes", qa, "_encode")
    count_calls(monkeypatch, counts, "fact_id_digests", facts, "sha256")
    count_constructions(monkeypatch, counts, "fixture_stores", FixtureStore, "__init__")
    for k, job in enumerate(meta["jobs"]):
        result = pipelines.forge_text(
            seeds=job["seeds"], constraints=[tuple(job["constraint"])], backend=backend,
            fixture_root=workdir / "fixtures", out_dir=workdir / "out" / f"job{k:02d}",
            formats=gen.QA_FORMATS)
        assert result["items_written"] == job["items"]
    counts.update({f"backend_calls.{kind}": n for kind, n in backend.calls.items()})
    return {f"text.{key}": value for key, value in counts.items()}


def test_operation_counts_stay_under_their_ceilings(monkeypatch, tmp_path):
    counts = {**bench_counts(monkeypatch, tmp_path / "bench"),
              **visual_counts(monkeypatch, tmp_path / "visual"),
              **text_counts(monkeypatch, tmp_path / "text")}
    assert sorted(counts) == sorted(CEILINGS)  # a new count needs its ceiling
    assert all(value > 0 for value in counts.values())
    over = {key: (value, CEILINGS[key]) for key, value in counts.items()
            if value > CEILINGS[key]}
    assert over == {}
