"""Tests of the benchmark itself: generators, fake backend, statistics,
tracing arithmetic, and every workload end to end at a tiny size."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gulfclimate.core import Provenance, parse_utc
from gulfclimate.textforge.chunking import chunk, tokenize
from gulfclimate.textforge.facts import induce_facts
from gulfclimate.textforge.keywords import KeywordIndex, expand_keywords
from gulfclimate.textforge.qa import synthesize_qa
from perfbench import gen
from perfbench.fakes import PromptKeyedBackend
from perfbench.runner import END_TO_END, PER_LAYER, run_workload
from perfbench.trace import self_times, tail_percentile
from perfbench.workloads import WORKLOADS, _digest, generate

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_deterministic_per_seed(tmp_path, workload):
    a, b, c = (tmp_path / n for n in "abc")
    meta_a = generate(workload, a, seed=7, tiny=True)
    meta_b = generate(workload, b, seed=7, tiny=True)
    generate(workload, c, seed=8, tiny=True)
    assert _digest(a) == _digest(b)
    assert _digest(a) != _digest(c)
    assert json.dumps(meta_a, default=str).replace(str(a), "") == \
        json.dumps(meta_b, default=str).replace(str(b), "")


def test_seed_changes_values_not_sizes(tmp_path):
    metas = [gen.make_suite(tmp_path / str(s), s) for s in (1, 2)]
    kinds = [sorted((e["kind"], e["n_steps"]) for e in m["expect"].values()) for m in metas]
    assert kinds[0] == kinds[1]
    series = [sorted((name, len(row.get("records", row.get("values", ()))))
                     for name in ("weather_forecast", "weather_analysis", "rain_analysis",
                                  "aqi_analysis")
                     for row in json.loads((tmp_path / str(s) / "fixtures" / f"{name}.json")
                                           .read_text())["rows"])
              for s in (1, 2)]
    assert series[0] == series[1]
    horizons = [sorted(step["arg_values"].get("days", 0)
                       for line in (tmp_path / str(s) / "instances.jsonl").read_text().splitlines()
                       for step in json.loads(line)["gold_trace"])
                for s in (1, 2)]
    assert horizons[0] == horizons[1]
    corpora = [gen.make_corpus(tmp_path / f"c{s}", s, jobs=3) for s in (1, 2)]
    assert [sum(j["items"] for j in c["jobs"]) for c in corpora] == [
        sum(j["items"] for j in corpora[0]["jobs"])] * 2


def _fake_outputs(workdir: Path) -> list:
    fake = PromptKeyedBackend.from_file(workdir / "backend.json")
    job = json.loads((workdir / "jobs.json").read_text())[0]
    kept = expand_keywords(job["seeds"], [tuple(job["constraint"])], fake,
                           KeywordIndex(dim=64))
    page = json.loads((workdir / "fixtures" / "online_search.json").read_text())["pages"]
    text = next(iter(page.values()))["text"]
    words = tokenize(" ".join(p.split("<p>")[1] for p in text.split("</p>")[:-1]))
    provenance = Provenance(retrieved_at=parse_utc(gen.RETRIEVED_AT), title="t")
    facts = induce_facts(chunk(words, provenance=provenance)[0], fake)
    items = [synthesize_qa(facts, fmt, fake) for fmt in ("mcq", "open", "tf")]
    refined = fake.complete([{"role": "user", "content":
                              f"The search results for '{kept[0].text}' were off-domain."}])
    return [[k.text for k in kept], [f.statement for f in facts], items, refined,
            dict(fake.calls)]


def test_fake_backend_is_deterministic_and_shaped(tmp_path):
    gen.make_corpus(tmp_path, seed=3, jobs=2, no_result_keywords=1)
    first, second = _fake_outputs(tmp_path), _fake_outputs(tmp_path)
    assert first == second
    keywords, facts, (mcq, open_, tf), refined, calls = first
    assert len(keywords) == gen.KEYWORDS_PER_JOB  # the reordered duplicate is dropped
    assert len(facts) == 3  # the compound fourth statement fails the structural check
    assert (len(mcq), len(open_), len(tf)) == (3, 3, 6)
    assert refined.startswith(keywords[0])
    assert calls == {"expand": 1, "facts": 1, "qa": 3, "refine": 1}
    with pytest.raises(ValueError):
        PromptKeyedBackend({"expansions": {}, "refinements": {}}).complete(
            [{"role": "user", "content": "Tell me a joke."}])


@pytest.mark.parametrize("n, pct, rank", [
    (10000, 99.9, 9990), (1000, 99.0, 990), (999, 90.0, 900), (100, 90.0, 90),
    (99, 50.0, 50), (20, 50.0, 10),
])
def test_tail_percentile_picks_highest_with_ten_beyond(n, pct, rank):
    samples = list(range(n, 0, -1))  # unsorted input, values 1..n
    assert tail_percentile(samples) == (pct, rank)


def test_tail_percentile_needs_ten_beyond_the_median():
    assert tail_percentile(range(19)) is None
    assert tail_percentile([]) is None


def test_self_time_subtracts_direct_children_only():
    # A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 8]; E [10, 12] is top level.
    start = [0.0, 1.0, 5.0, 6.0, 10.0]
    end = [10.0, 4.0, 9.0, 8.0, 12.0]
    parent = [-1, 0, 0, 2, -1]
    assert self_times(start, end, parent) == [3.0, 3.0, 2.0, 2.0, 2.0]
    assert sum(self_times(start, end, parent)) == 12.0  # the top-level spans' total


def test_benchmark_json_lists_the_metrics_the_runs_print():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_at_tiny_size(tmp_path, workload):
    result = run_workload(workload, seed=5, seconds=0, trace=False, root=tmp_path,
                          tiny=True, probes=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(name for name, _ in END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["forge-text", "bench-cpu"])
def test_traced_run_reports_every_layer_metric(tmp_path, workload):
    result = run_workload(workload, seed=5, seconds=0, trace=True, root=tmp_path, tiny=True)
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert sorted(metrics) == sorted(name for name, _, _ in PER_LAYER)
    assert metrics["trace.coverage_frac"] > 0.9
    assert list((tmp_path / ".perfbench_out").glob(f"{workload}-seed5.trace.jsonl"))


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bench-cpu",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
