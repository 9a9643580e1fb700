"""One benchmark run: generate inputs, set up, warm up and check, measure.

With tracing off a run reports the end-to-end metrics; with tracing on it
runs half its time untraced and half traced, and reports the per-layer
metrics, the tracing overhead and the share of traced wall time that the
top-level spans cover.
"""

from __future__ import annotations

import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

from .trace import Tracer, tail_percentile
from .workloads import CLASSES, WRAPS, generate, setup

SETUP_PROBES = 7

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, better). Per pass unless noted: a pass is one forge_visual job,
# one round of forge_text jobs, or the suite through step then e2e mode.
PER_LAYER = (
    ("geoforge.grid_load_s", "s", "lower"),
    ("geoforge.grid_cells_parsed", "count", "lower"),
    ("geoforge.extract_s", "s", "lower"),
    ("geoforge.window_s", "s", "lower"),
    ("geoforge.windows_scanned", "count", "lower"),
    ("geoforge.windows_kept", "count", "higher"),
    ("geoforge.chart_s", "s", "lower"),
    ("geoforge.charts_built", "count", "lower"),
    ("geoforge.visualqa_s", "s", "lower"),
    ("core.csv_parse_s", "s", "lower"),
    ("core.csv_write_s", "s", "lower"),
    ("core.records_materialized", "count", "lower"),
    ("pipelines.visual_self_s", "s", "lower"),
    ("pipelines.text_self_s", "s", "lower"),
    ("textforge.expand_s", "s", "lower"),
    ("textforge.keywords_proposed", "count", "lower"),
    ("textforge.keywords_kept", "count", "higher"),
    ("textforge.retrieve_s", "s", "lower"),
    ("textforge.search_calls", "count", "lower"),
    ("textforge.refine_calls", "count", "lower"),
    ("textforge.keywords_no_results", "count", "lower"),
    ("textforge.parse_s", "s", "lower"),
    ("textforge.chunk_s", "s", "lower"),
    ("textforge.chunks", "count", "lower"),
    ("textforge.facts_s", "s", "lower"),
    ("textforge.facts_proposed", "count", "lower"),
    ("textforge.facts_kept", "count", "higher"),
    ("textforge.qa_s", "s", "lower"),
    ("textforge.qa_items_dropped", "count", "lower"),
    ("textforge.write_s", "s", "lower"),
    ("agent.run_s", "s", "lower"),
    ("agent.synthesize_s", "s", "lower"),
    ("agent.render_obs_s", "s", "lower"),
    ("agent.steps", "count", "lower"),
    ("agent.backend_wait_s", "s", "lower"),
    ("agent.backend_wait_frac", "ratio", "lower"),
    ("agent.backend_calls", "count", "lower"),
    ("agent.prompt_bytes", "bytes", "lower"),
    ("agent.emission_bytes", "bytes", "lower"),
    ("toolkit.parse_s", "s", "lower"),
    ("toolkit.validate_s", "s", "lower"),
    ("toolkit.validate_calls", "count", "lower"),
    ("toolkit.invalid_calls", "count", "lower"),
    ("toolkit.execute_s", "s", "lower"),
    ("toolkit.execute_calls", "count", "lower"),
    ("toolkit.exec_errors", "count", "lower"),
    ("toolkit.render_prompt_s", "s", "lower"),
    ("toolkit.render_prompt_calls", "count", "lower"),
    ("tools.exec_s", "s", "lower"),
    ("tools.registry_build_s", "s", "lower"),   # once, in set-up
    ("tools.fixture_reads", "count", "lower"),  # set-up plus the first pass
    ("evalharness.score_s", "s", "lower"),
    ("evalharness.gold_exec_s", "s", "lower"),
    ("evalharness.report_write_s", "s", "lower"),
    ("evalharness.harness_self_s", "s", "lower"),
    ("evalharness.instance_ms_p50", "ms", "lower"),
    ("evalharness.instance_ms_tail", "ms", "lower"),
    ("evalharness.instance_tail_pct", "%", "higher"),
    ("evalharness.instance_samples", "count", "higher"),
    ("evalharness.instances_failed", "count", "lower"),
    ("evalharness.step_instances_per_s", "1/s", "higher"),  # untraced half
    ("evalharness.e2e_instances_per_s", "1/s", "higher"),   # untraced half
    ("failed_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage_frac", "ratio", "higher"),
    ("trace.spans_per_pass", "count", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER} | dict(END_TO_END)


def measure(run_pass, seconds: float) -> list:
    """Closed loop: run passes back to back until ``seconds`` have passed."""
    passes = []
    began = perf_counter()
    while True:
        t0 = perf_counter()
        result = run_pass()
        t1 = perf_counter()
        result.seconds = t1 - t0
        passes.append(result)
        if t1 - began >= seconds:
            return passes


def probe_setup(workload: str, workdir: Path) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    probe = Path(__file__).with_name("setup_probe.py")
    done = subprocess.run([sys.executable, str(probe), workload, str(workdir)],
                          capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])




def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: Path,
                 tiny: bool = False, probes: int = SETUP_PROBES) -> dict:
    """One run; returns the result object the benchmark prints."""
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-s{seed}-", dir=work_root))
    try:
        meta = generate(workload, workdir, seed, tiny=tiny)
        if trace:
            return _traced(workload, seed, seconds, workdir, meta, root)
        setup_s = median(probe_setup(workload, workdir) for _ in range(probes))
        wl = CLASSES[workload](workdir, setup(workload, workdir), meta, None)
        warm = wl.run_pass()
        problems = wl.check()
        first_digest = wl.digest()
        passes = measure(wl.run_pass, seconds)
        problems += _repeat_problems(wl, first_digest)
        metrics = {
            "setup_s": setup_s,
            "items_per_s": median(p.items / p.seconds for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return _result(problems, wl, warm, passes, metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _repeat_problems(wl, first_digest: str) -> list[str]:
    if wl.digest() != first_digest:
        return ["outputs of the last pass differ from the first pass on the same inputs"]
    return []


def _result(problems, wl, warm, passes, metrics: dict) -> dict:
    for problem in problems[:20] + wl.failures[:5]:
        print(f"check: {problem}", file=sys.stderr)
    return {
        "correct": not problems and not warm.failed,
        "attempted": sum(p.ops for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def _traced(workload: str, seed: int, seconds: float, workdir: Path, meta: dict,
            root: Path) -> dict:
    tracer = Tracer(WRAPS)
    tracer.install()
    try:
        ctx = setup(workload, workdir)
        setup_spans = len(tracer)
        wl = CLASSES[workload](workdir, ctx, meta, tracer)
        warm = wl.run_pass()
    finally:
        tracer.uninstall()
    problems = wl.check()
    first_digest = wl.digest()
    setup_totals = tracer.metric_totals(0, setup_spans)
    fixture_reads = tracer.counts["tools.fixture_reads"]
    tracer.counts.clear()
    first = len(tracer)

    # Untraced and traced passes alternate, so both see the same machine.
    untraced, traced = [], []
    began = perf_counter()
    while perf_counter() - began < seconds or len(traced) < 2:
        trace_this = len(untraced) > len(traced)
        if trace_this:
            tracer.install()
        try:
            t0 = perf_counter()
            result = wl.run_pass()
            result.seconds = perf_counter() - t0
        finally:
            tracer.uninstall()
        (traced if trace_this else untraced).append(result)
    last = len(tracer)
    problems += _repeat_problems(wl, first_digest)

    n = len(traced)
    wall = sum(p.seconds for p in traced)
    totals = tracer.metric_totals(first, last)
    values = {name: totals.get(name, 0.0) / n for name, unit, _ in PER_LAYER if unit == "s"}
    values |= {name: tracer.counts[name] / n for name, unit, _ in PER_LAYER
               if unit in ("count", "bytes")}
    values["tools.registry_build_s"] = setup_totals.get("tools.registry_build_s", 0.0)
    values["tools.fixture_reads"] = fixture_reads
    values["geoforge.windows_scanned"] = meta.get("windows_scanned", 0)
    values["textforge.refine_calls"] = tracer.count_children(
        "chat ", "textforge.retrieve_documents", first, last) / n
    values["agent.backend_wait_frac"] = totals.get("agent.backend_wait_s", 0.0) / wall

    instance_ms = [1000.0 * d for d in tracer.durations("evalharness.instance", first, last)]
    tail = tail_percentile(instance_ms)
    values["evalharness.instance_samples"] = len(instance_ms)
    values["evalharness.instance_ms_p50"] = median(instance_ms) if instance_ms else 0.0
    values["evalharness.instance_tail_pct"], values["evalharness.instance_ms_tail"] = \
        tail if tail else (0.0, 0.0)
    n_instances = len(wl.ctx.instances or ())
    for phase in ("step", "e2e"):
        times = [p.phases[phase] for p in untraced if phase in p.phases]
        values[f"evalharness.{phase}_instances_per_s"] = \
            n_instances / median(times) if times else 0.0
    measured = untraced + traced
    values["failed_frac"] = sum(p.failed for p in measured) / sum(p.ops for p in measured)
    # Each traced pass against the untraced pass just before it.
    values["trace.overhead_frac"] = median(t.seconds / u.seconds - 1.0
                                           for u, t in zip(untraced, traced))
    values["trace.coverage_frac"] = tracer.top_level_seconds(first, last) / wall
    values["trace.spans_per_pass"] = (last - first) / n

    sidecar = root / ".perfbench_out" / f"{workload}-seed{seed}.trace.jsonl"
    tracer.write_sidecar(sidecar, {"workload": workload, "seed": seed, "traced_passes": n,
                                   "setup_spans": setup_spans, "traced_from": first,
                                   "missing_targets": tracer.missing})
    print(f"trace: {last} spans written to {sidecar}", file=sys.stderr)
    return _result(problems, wl, warm, measured,
                   {name: values[name] for name, _, _ in PER_LAYER})
