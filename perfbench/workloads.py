"""The four workloads: set-up, one closed-loop pass, output checks, and the
wrap table that turns a traced pass into per-layer metrics.

A pass is the unit a run repeats: one forge_visual job (forge-visual), one
forge_text job per generated job (forge-text), or the whole suite through
step mode then e2e mode with reports written (bench-cpu, bench-wait). Each
operation starts after the previous one finished, in one thread.
"""

from __future__ import annotations

import csv
import hashlib
import json
import traceback
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from gulfclimate import evalharness, pipelines, tools
from gulfclimate.cli.config import load_config
from gulfclimate.core import Provenance, parse_utc
from gulfclimate.evalharness.replay import BenchReplay
from gulfclimate.geoforge.charts import ChartArtifact, ChartMetadata
from gulfclimate.textforge.qa import QAItem, validate_item

from . import gen
from .fakes import DelayedBackend, PromptKeyedBackend
from .trace import Tracer, Wrap, series_records

WORKLOADS = ("forge-visual", "forge-text", "bench-cpu", "bench-wait")

# bench-wait: fixed wait per backend call, large enough that waiting is well
# over 90% of wall time, small enough that a run holds many passes.
BENCH_WAIT_DELAY_S = 0.025
BENCH_WAIT_DIVISOR = 3  # bench-wait runs a third of the bench-cpu suite


def generate(workload: str, workdir: Path, seed: int, tiny: bool = False) -> dict:
    """Write the workload's inputs under ``workdir``; returns what to expect."""
    if workload == "forge-visual":
        return gen.make_grid(workdir, seed, years=1 if tiny else 10, size=3 if tiny else 5)
    if workload == "forge-text":
        return gen.make_corpus(workdir, seed, jobs=2 if tiny else 14,
                               no_result_keywords=1 if tiny else 2)
    divisor = BENCH_WAIT_DIVISOR if workload == "bench-wait" else 1
    return gen.make_suite(workdir, seed, divisor=divisor * (4 if tiny else 1))


@dataclass
class Context:
    """What set-up hands to the workload."""

    config: object
    registry: object
    instances: list | None = None
    replay: BenchReplay | None = None


def setup(workload: str, workdir: Path) -> Context:
    """The timed set-up: config load and registry build as the CLI does them,
    plus instance and replay load for bench workloads."""
    config = load_config(workdir / "config.json")
    registry = tools.build_registry(config.provider, settings=config.settings)
    ctx = Context(config=config, registry=registry)
    if workload.startswith("bench"):
        ctx.instances = evalharness.load_instances(workdir / "instances.jsonl")
        evalharness.check_against_registry(ctx.instances, registry)
        ctx.replay = BenchReplay.load(config.backend.replay)
    return ctx


@dataclass
class PassResult:
    seconds: float = 0.0
    ops: int = 0
    failed: int = 0
    items: int = 0
    phases: dict = field(default_factory=dict)


def _digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _qa_item(doc: dict) -> QAItem:
    return QAItem(format=doc["format"], question=doc["question"], answer=doc["answer"],
                  options=tuple(doc.get("options", ())),
                  evidence=tuple(e["fact_id"] for e in doc["evidence"]),
                  split=doc["split"], chart_ref=doc.get("chart_ref"),
                  answer_tolerance=doc.get("answer_tolerance"),
                  review_flag=doc["review_flag"])


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


class Workload:
    def __init__(self, workdir: Path, ctx: Context, meta: dict, tracer: Tracer | None):
        self.workdir = workdir
        self.ctx = ctx
        self.meta = meta
        self.tracer = tracer
        self.out = workdir / "out"
        self.failures: list[str] = []

    def backend(self, inner):
        return self.tracer.backend(inner) if self.tracer is not None else inner

    def _failed(self, what: str) -> None:
        self.failures.append(f"{what}: {traceback.format_exc(limit=3)}")

    def digest(self) -> str:
        return _digest(self.out)


class ForgeVisual(Workload):
    def run_pass(self) -> PassResult:
        self.result = None
        try:
            self.result = pipelines.forge_visual(
                gridded_path=Path(self.meta["grid"]), city=self.meta["city"],
                variable=self.meta["variable"], out_dir=self.out,
                categories=gen.VISUAL_CATEGORIES, formats=gen.QA_FORMATS,
                backend=None, seed=self.ctx.config.seed, rho=gen.WINDOW_RHO)
        except Exception:
            self._failed("forge_visual")
            return PassResult(ops=1, failed=1)
        return PassResult(ops=1, items=self.result["items_written"])

    def check(self) -> list[str]:
        meta, result = self.meta, self.result
        if result is None:
            return ["forge_visual failed"]
        problems = [f"{key}: got {result[key]}, expected {meta[k]}"
                    for key, k in (("windows_kept", "windows_kept"), ("charts", "charts"),
                                   ("items_written", "items"))
                    if result[key] != meta[k]]
        charts_dir = Path(result["charts_dir"])
        provenance = Provenance(retrieved_at=parse_utc(gen.RETRIEVED_AT), title="check")
        with open(result["metadata_csv"], encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != meta["charts"]:
            problems.append(f"metadata.csv lists {len(rows)} charts, expected {meta['charts']}")
        data = {}
        for row in rows:
            chart_id = row["chart_id"]
            data[chart_id] = (charts_dir / f"{chart_id}.csv").read_text(encoding="utf-8")
            if not (charts_dir / f"{chart_id}.svg").read_text(encoding="utf-8").startswith("<svg"):
                problems.append(f"{chart_id}.svg is not an SVG document")
            metadata = ChartMetadata(
                city=row["city"], variable=row["variable"], unit=row["unit"],
                span_start=parse_utc(row["span_start"]), span_end=parse_utc(row["span_end"]),
                count=int(row["count"]), vmin=float(row["min"]), vmax=float(row["max"]),
                mean=float(row["mean"]), std=float(row["std"]),
                slope_per_day=float(row["slope_per_day"]))
            artifact = ChartArtifact(chart_id=chart_id, svg="", metadata=metadata,
                                     data_csv=data[chart_id], provenance=provenance)
            if not artifact.verify_metadata():
                problems.append(f"chart {chart_id} fails verify_metadata()")
        for doc in _read_jsonl(Path(result["dataset"])):
            item = _qa_item(doc)
            if (problem := validate_item(item)) is not None:
                problems.append(f"item {doc['id']}: {problem}")
            if item.chart_ref not in data:
                problems.append(f"item {doc['id']}: unknown chart {item.chart_ref}")
            elif item.format != "tf" and (problem := _gold_problem(item, data)):
                problems.append(f"item {doc['id']}: {problem}")
        return problems


def _chart_values(data_csv: str) -> dict[str, float | None]:
    return {r["timestamp"][:10]: float(r["value"]) if r["value"] else None
            for r in csv.DictReader(data_csv.splitlines())}


def _gold_problem(item: QAItem, data: dict[str, str]) -> str | None:
    """Check a gold answer against the difference between the perturbed chart
    and the window chart it was made from."""
    category = "anomaly" if "_anomaly_" in item.chart_ref else "imputation"
    base = _chart_values(data[item.chart_ref.rsplit(f"_{category}_", 1)[0]])
    perturbed = _chart_values(data[item.chart_ref])
    changed = sorted(d for d in base if base[d] != perturbed.get(d))
    if category == "anomaly":
        if changed != [item.answer]:
            return f"spiked dates {changed}, gold says {item.answer}"
        up = perturbed[item.answer] > base[item.answer]
        if ("upward" if up else "downward") not in item.question:
            return f"spike direction at {item.answer} does not match the question"
        return None
    masked = [base[d] for d in changed]
    true_mean = sum(masked) / len(masked)
    if f"between {changed[0]} and {changed[-1]}" not in item.question:
        return f"masked span {changed[0]}..{changed[-1]} does not match the question"
    if abs(float(item.answer) - true_mean) > 1e-9 * max(1.0, abs(true_mean)):
        return f"gold mean {item.answer} differs from the masked mean {true_mean}"
    return None


class ForgeText(Workload):
    def __init__(self, *args):
        super().__init__(*args)
        self.fake = PromptKeyedBackend.from_file(self.workdir / "backend.json")
        self.jobs = self.meta["jobs"]

    def run_pass(self) -> PassResult:
        backend = self.backend(self.fake)
        self.results = []
        res = PassResult()
        for k, job in enumerate(self.jobs):
            res.ops += 1
            try:
                result = pipelines.forge_text(
                    seeds=job["seeds"], constraints=[tuple(job["constraint"])],
                    backend=backend, fixture_root=self.ctx.config.provider.fixture_root,
                    out_dir=self.out / f"job{k:02d}", formats=gen.QA_FORMATS)
            except Exception:
                self._failed(f"forge_text job {k}")
                res.failed += 1
                result = None
            else:
                res.items += result["items_written"]
            self.results.append(result)
        return res

    def check(self) -> list[str]:
        problems = []
        pages = json.loads((self.workdir / "fixtures" / "online_search.json")
                           .read_text(encoding="utf-8"))["pages"]
        for k, (job, result) in enumerate(zip(self.jobs, self.results)):
            if result is None:
                problems.append(f"job {k} failed")
                continue
            expected = {"keywords_kept": job["keywords_kept"],
                        "keywords_skipped": job["keywords_no_results"],
                        "documents": job["documents"], "items_written": job["items"],
                        "dropped": {"dropped_duplicate_options": job["documents"],
                                    "dropped_empty_answer": job["documents"]}}
            problems += [f"job {k} {key}: got {result[key]}, expected {value}"
                         for key, value in expected.items() if result[key] != value]
            urls = set(job["urls"])
            for doc in _read_jsonl(Path(result["dataset"])):
                if (problem := validate_item(_qa_item(doc))) is not None:
                    problems.append(f"job {k} item {doc['id']}: {problem}")
                for ev in doc["evidence"]:
                    if ev["doc_id"] not in urls:
                        problems.append(f"job {k}: evidence from unexpected page {ev['doc_id']}")
                    elif ev["statement"] not in pages[ev["doc_id"]]["text"]:
                        problems.append(f"job {k}: statement not in its page: {ev['statement']!r}")
        return problems


class Bench(Workload):
    delay_s = 0.0

    def _backend(self, scripted):
        if self.delay_s:
            scripted = DelayedBackend(scripted, self.delay_s)
        return self.backend(scripted)

    def step_factory(self, instance):
        return self._backend(self.ctx.replay.step_backend(instance))

    def e2e_factory(self, instance):
        return self._backend(self.ctx.replay.e2e_backend(instance))

    def _write(self, report, out: Path) -> None:
        # The report files ``gulfclimate bench`` writes.
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(evalharness.render_report(report), encoding="utf-8")
        evalharness.write_report_csv(report, out / "report.csv")
        if report.step_rows:
            evalharness.write_step_rows_csv(report, out / "step_rows.csv")
        if report.instance_rows:
            evalharness.write_instance_rows_csv(report, out / "instance_rows.csv")

    def run_pass(self) -> PassResult:
        instances, registry = self.ctx.instances, self.ctx.registry
        res = PassResult(ops=2 * len(instances))
        t0 = perf_counter()
        self.step = evalharness.run_step_mode(instances, self.step_factory, registry)
        self._write(self.step, self.out / "step")
        t1 = perf_counter()
        self.e2e = evalharness.run_e2e_mode(instances, self.e2e_factory, registry,
                                            images_enabled=True,
                                            budget=self.ctx.config.budget)
        self._write(self.e2e, self.out / "e2e")
        t2 = perf_counter()
        res.failed = sum(1 for r in self.step.instance_rows + self.e2e.instance_rows
                         if r.failure is not None)
        res.items = res.ops
        res.phases = {"step": t1 - t0, "e2e": t2 - t1}
        return res

    def check(self) -> list[str]:
        expect = self.meta["expect"]
        problems = [f"{r.instance_id}: {r.failure}"
                    for r in self.step.instance_rows + self.e2e.instance_rows if r.failure]
        steps: dict[str, list] = {}
        for row in self.step.step_rows:
            steps.setdefault(row.instance_id, []).append(row)
        for iid, exp in expect.items():
            rows = steps.get(iid, [])
            if len(rows) != exp["n_steps"]:
                problems.append(f"{iid}: {len(rows)} step rows, expected {exp['n_steps']}")
                continue
            for row in rows:
                scores = (row.inst, row.tool, row.arg, row.summ)
                if row.step_index != exp["step"]:
                    ok = scores == (1, 1, 1, 1) and row.error_class == "none"
                elif exp["kind"] == "wrong_tool":
                    ok = row.tool == 0 and (row.inst, row.arg) == (1, 1)
                else:  # bad_args
                    ok = row.arg == 0 and row.error_class == "arg_err"
                if not ok:
                    problems.append(f"{iid} step {row.step_index} ({exp['kind']}): "
                                    f"scores {scores} {row.error_class}")
        for row in self.e2e.instance_rows:
            exp = expect[row.instance_id]
            if exp["kind"] == "ungrounded":
                ok = row.answered == 0
            elif exp["kind"] == "gold":
                ok = row.answered == 1 and row.answered_with_images == 1 and \
                    row.chart_ok is (True if exp["requires_chart"] else None)
            else:
                continue
            if not ok:
                problems.append(f"{row.instance_id} e2e ({exp['kind']}): answered "
                                f"{row.answered}, with images {row.answered_with_images}, "
                                f"chart {row.chart_ok}, missed {row.missed_facts}")
        return problems


class BenchWait(Bench):
    delay_s = BENCH_WAIT_DELAY_S


CLASSES = {"forge-visual": ForgeVisual, "forge-text": ForgeText,
           "bench-cpu": Bench, "bench-wait": BenchWait}


# -- the wrap table ----------------------------------------------------------------

def _count(key: str, amount=lambda result, args: 1):
    def hook(tracer, result, args):
        tracer.counts[key] += amount(result, args)
    return hook


def _records(tracer, result, args):
    tracer.counts["core.records_materialized"] += series_records(result)


def _fixture_read(tracer, result, args):
    store, name = args[0], args[1]
    read = tracer.memo.setdefault("fixture_reads", weakref.WeakKeyDictionary())
    seen = read.setdefault(store, set())
    if name not in seen:  # FixtureStore reads each document from disk once
        seen.add(name)
        tracer.counts["tools.fixture_reads"] += 1


def _text_job(tracer, result, args):
    tracer.counts["textforge.qa_items_dropped"] += sum(
        v for k, v in result["dropped"].items() if k.startswith("dropped_"))


def _no_results(tracer, exc):
    tracer.counts["textforge.keywords_no_results"] += 1


def _report_failures(tracer, result, args):
    tracer.counts["evalharness.instances_failed"] += sum(
        1 for r in result.instance_rows if r.failure is not None)


def _validated(tracer, result, args):
    tracer.counts["toolkit.validate_calls"] += 1
    tracer.counts["toolkit.invalid_calls"] += not result.is_ok


def _executed(tracer, result, args):
    tracer.counts["toolkit.execute_calls"] += 1
    tracer.counts["toolkit.exec_errors"] += not result.status.is_ok


G = "gulfclimate."
WRAPS = [
    # core
    Wrap(G + "core.csvio:read_canonical_csv", "core.csv_parse_s", "core.read_canonical_csv"),
    Wrap(G + "core.csvio:series_from_csv", "core.csv_parse_s", "core.series_from_csv",
         on_result=_records),
    Wrap(G + "core.csvio:write_canonical_csv", "core.csv_write_s", "core.write_canonical_csv"),
    Wrap(G + "core.csvio:series_to_csv", "core.csv_write_s", "core.series_to_csv"),
    # geoforge
    Wrap(G + "geoforge.gridded:GriddedProduct.from_file", "geoforge.grid_load_s",
         "geoforge.grid_load",
         on_result=_count("geoforge.grid_cells_parsed", lambda r, a: len(getattr(r, "cells", ())))),
    Wrap(G + "geoforge.gridded:extract_series", "geoforge.extract_s", "geoforge.extract_series",
         on_result=_records),
    Wrap(G + "geoforge.windows:segment_windows", "geoforge.window_s", "geoforge.segment_windows",
         on_result=_count("geoforge.windows_kept", lambda r, a: len(r))),
    Wrap(G + "geoforge.windows:window_slice", "geoforge.window_s", "geoforge.window_slice",
         on_result=_records),
    Wrap(G + "geoforge.charts:build_chart", "geoforge.chart_s", "geoforge.build_chart",
         on_result=_count("geoforge.charts_built")),
    Wrap(G + "geoforge.charts:chart_for_series", "geoforge.chart_s", "geoforge.chart_for_series",
         on_result=_count("geoforge.charts_built")),
    Wrap(G + "geoforge.visualqa:synthesize_visual_qa", "geoforge.visualqa_s",
         "geoforge.synthesize_visual_qa"),
    # pipelines: the forge jobs are the operations of the forge workloads
    Wrap(G + "pipelines:forge_visual", "pipelines.visual_self_s", "pipelines.forge_visual",
         op=True),
    Wrap(G + "pipelines:forge_text", "pipelines.text_self_s", "pipelines.forge_text",
         op=True, on_result=_text_job),
    # textforge
    Wrap(G + "textforge.keywords:expand_keywords", "textforge.expand_s",
         "textforge.expand_keywords",
         on_result=_count("textforge.keywords_kept", lambda r, a: len(r))),
    Wrap(G + "textforge.keywords:KeywordIndex.filter", "textforge.expand_s",
         "textforge.keyword_filter", on_result=_count("textforge.keywords_proposed")),
    Wrap(G + "textforge.embedding:HashingEmbedder.embed", "textforge.expand_s",
         "embeddings hashing"),
    Wrap(G + "textforge.keywords:KeywordIndex.save", "textforge.write_s",
         "textforge.keyword_index_save"),
    Wrap(G + "textforge.retrieval:retrieve_documents", "textforge.retrieve_s",
         "textforge.retrieve_documents", on_error=_no_results),
    Wrap(G + "tools.web:FixtureSearch.search", "textforge.retrieve_s", "tools.fixture_search",
         on_result=_count("textforge.search_calls")),
    Wrap(G + "tools.web:FixtureSearch.page", "textforge.retrieve_s", "tools.fixture_page"),
    Wrap(G + "textforge.parsing:parse_document", "textforge.parse_s", "textforge.parse_document"),
    Wrap(G + "textforge.chunking:tokenize", "textforge.chunk_s", "textforge.tokenize"),
    Wrap(G + "textforge.chunking:chunk", "textforge.chunk_s", "textforge.chunk",
         on_result=_count("textforge.chunks", lambda r, a: len(r))),
    Wrap(G + "textforge.facts:induce_facts", "textforge.facts_s", "textforge.induce_facts",
         on_result=_count("textforge.facts_kept", lambda r, a: len(r))),
    Wrap(G + "textforge.facts:passes_structural_checks", "textforge.facts_s", span=False,
         on_result=_count("textforge.facts_proposed")),
    Wrap(G + "textforge.qa:synthesize_qa", "textforge.qa_s", "textforge.synthesize_qa"),
    Wrap(G + "textforge.qa:write_dataset", "textforge.write_s", "textforge.write_dataset"),
    # agent
    Wrap(G + "agent.runner:run", "agent.run_s", "invoke_agent gulfclimate",
         on_result=_count("agent.steps", lambda r, a: len(r[1].steps))),
    Wrap(G + "agent.runner:synthesize", "agent.synthesize_s", "agent.synthesize"),
    Wrap(G + "agent.serialization:render_observation", "agent.render_obs_s",
         "agent.render_observation"),
    # toolkit
    Wrap(G + "toolkit.grammar:parse_call", "toolkit.parse_s", "toolkit.parse_call"),
    Wrap(G + "toolkit.registry:validate_call", "toolkit.validate_s", "toolkit.validate_call",
         on_result=_validated),
    Wrap(G + "toolkit.registry:execute", "toolkit.execute_s",
         lambda args: f"execute_tool {args[0].tool}", on_result=_executed),
    Wrap(G + "toolkit.registry:render_tool_prompt", "toolkit.render_prompt_s",
         "toolkit.render_tool_prompt", on_result=_count("toolkit.render_prompt_calls")),
    # tools: the implementations behind the executors
    Wrap(G + "tools.suite:build_registry", "tools.registry_build_s", "tools.build_registry"),
    Wrap(G + "tools.providers:FixtureStore.document", "tools.exec_s", span=False,
         on_result=_fixture_read),
    *(Wrap(G + f"tools.weather:FixtureClimateSource.{m}", "tools.exec_s", f"tools.{m}",
           on_result=_records)
      for m in ("rain_inquiry", "weather_inquiry", "aqi_inquiry", "river_discharge",
                "forecast", "analysis_series")),
    Wrap(G + "tools.analysis:analyze_range", "tools.exec_s", "tools.analyze_range"),
    Wrap(G + "geoforge.inventory:CityInventory.lookup", "tools.exec_s",
         "geoforge.inventory_lookup"),
    # evalharness: instances are the operations of the bench workloads
    Wrap(G + "evalharness.runner:run_step_mode", "evalharness.harness_self_s",
         "evalharness.run_step_mode", on_result=_report_failures),
    Wrap(G + "evalharness.runner:run_e2e_mode", "evalharness.harness_self_s",
         "evalharness.run_e2e_mode", on_result=_report_failures),
    Wrap(G + "evalharness.runner:_step_mode_instance", "evalharness.harness_self_s",
         "evalharness.instance step", op=True),
    Wrap(G + "evalharness.runner:_e2e_instance", "evalharness.harness_self_s",
         "evalharness.instance e2e", op=True),
    Wrap(G + "evalharness.runner:_gold_observation_text", "evalharness.gold_exec_s",
         "evalharness.gold_observation"),
    Wrap(G + "evalharness.scoring:score_step", "evalharness.score_s", "evalharness.score_step"),
    Wrap(G + "evalharness.scoring:classify_error", "evalharness.score_s",
         "evalharness.classify_error"),
    Wrap(G + "evalharness.model:KeyFact.satisfied_by", "evalharness.score_s",
         "evalharness.key_fact"),
    *(Wrap(G + f"evalharness.reporting:{f}", "evalharness.report_write_s", f"evalharness.{f}")
      for f in ("render_report", "write_report_csv", "write_step_rows_csv",
                "write_instance_rows_csv")),
]
