"""Tests of the benchmark drivers: instance order, failure isolation, threads."""

import hashlib
import json
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from gulfclimate.cli.main import EXIT_OK, main as cli_main
from gulfclimate.evalharness import load_instances, run_e2e_mode, run_step_mode
from gulfclimate.evalharness.replay import BenchReplay
from gulfclimate.tools import ProviderConfig, build_registry

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
INSTANCES = ROOT / "benchmarks" / "smoke_instances.jsonl"
REPLAYS = ("bench_gold", "bench_wrong_tool")
# SHA-256 of the report files of ``gulfclimate bench`` per (replay, mode,
# images), recorded from the serial harness.
GOLDEN = json.loads((ROOT / "tests" / "data" / "bench_reports_golden.json")
                    .read_text(encoding="utf-8"))
REPORT_FILES = ("report.txt", "report.csv", "step_rows.csv", "instance_rows.csv")


def _fresh_registry():
    return build_registry(ProviderConfig(kind="fixture", fixture_root=FIXTURES))


@pytest.fixture(scope="module")
def registry():
    return _fresh_registry()


@pytest.fixture(scope="module")
def instances():
    return load_instances(INSTANCES)


def _replay(name: str) -> BenchReplay:
    return BenchReplay.load(ROOT / "replays" / f"{name}.json")


class RecordingBackend:
    """Forwards to ``inner`` after ``delay_s``, logging the instance id and the
    calling thread of every call."""

    def __init__(self, inner, instance_id: str, delay_s: float, log: list):
        self.inner = inner
        self.instance_id = instance_id
        self.delay_s = delay_s
        self.log = log

    def complete(self, messages):
        if self.delay_s:
            time.sleep(self.delay_s)
        self.log.append((self.instance_id, threading.get_ident()))
        return self.inner.complete(messages)


class Exploding:
    def complete(self, messages):
        raise RuntimeError("backend blew up")


def _run(mode, instances, registry, factory):
    if mode == "step":
        return run_step_mode(instances, factory, registry)
    return run_e2e_mode(instances, factory, registry, images_enabled=True)


def _recording_factory(mode, replay, delays, log):
    make = replay.step_backend if mode == "step" else replay.e2e_backend
    return lambda instance: RecordingBackend(make(instance), instance.id,
                                             delays.get(instance.id, 0.0), log)


@pytest.mark.parametrize("mode", ["step", "e2e"])
@pytest.mark.parametrize("replay_name", REPLAYS)
def test_rows_keep_instance_order_when_instances_finish_out_of_order(
        mode, replay_name, instances, registry):
    replay = _replay(replay_name)
    expected = _run(mode, instances, registry, _recording_factory(mode, replay, {}, []))

    # The first instance runs alone and waits long enough to start the pool;
    # after it, earlier instances wait longer per call than later ones.
    ids = [inst.id for inst in instances]
    delays = {iid: 0.03 if k == 0 else 0.06 / k for k, iid in enumerate(ids)}
    log: list = []
    got = _run(mode, instances, registry, _recording_factory(mode, replay, delays, log))

    assert got == expected
    assert len({thread for _, thread in log}) > 1
    last_call = {iid: k for k, (iid, _) in enumerate(log)}
    assert sorted(last_call, key=last_call.get) != ids


@pytest.mark.parametrize("mode", ["step", "e2e"])
@pytest.mark.parametrize("delay_s", [0.0, 0.02])
def test_failing_factory_or_instance_gives_a_failed_row(mode, delay_s, instances, registry):
    replay = _replay("bench_gold")
    ids = [inst.id for inst in instances]
    exploding, no_run = ids[0], ids[2]
    broken = BenchReplay({iid: run for iid, run in replay.runs.items() if iid != no_run})
    make = broken.step_backend if mode == "step" else broken.e2e_backend

    def factory(instance):
        inner = Exploding() if instance.id == exploding else make(instance)
        return RecordingBackend(inner, instance.id, delay_s, [])

    got = _run(mode, instances, registry, factory)
    clean = _run(mode, instances, registry, _recording_factory(mode, replay, {}, []))

    failures = {row.instance_id: row.failure for row in got.instance_rows if row.failure}
    assert failures == {
        no_run: f"ConfigError: replay has no run for instance {no_run!r}",
        exploding: "RuntimeError: backend blew up",
    }
    if mode == "step":
        assert [r for r in got.step_rows if r.instance_id not in failures] == \
            [r for r in clean.step_rows if r.instance_id not in failures]
        failed_rows = [r for r in got.step_rows if r.instance_id in failures]
        assert failed_rows and all((r.inst, r.tool, r.arg, r.summ, r.error_class)
                                   == (0, 0, 0, 0, "na") for r in failed_rows)
    else:
        assert [r.instance_id for r in got.instance_rows] == ids
        assert [r for r in got.instance_rows if r.instance_id not in failures] == \
            [r for r in clean.instance_rows if r.instance_id not in failures]
        assert all(r.answered == 0 for r in got.instance_rows if r.instance_id in failures)


@pytest.mark.parametrize("mode", ["step", "e2e"])
def test_zero_latency_backend_stays_on_the_calling_thread(mode, instances, registry):
    log: list = []
    factory = _recording_factory(mode, _replay("bench_gold"), {}, log)
    factory_threads = set()

    def recording_factory(instance):
        factory_threads.add(threading.get_ident())
        return factory(instance)

    _run(mode, instances, registry, recording_factory)
    assert log
    assert {thread for _, thread in log} | factory_threads == {threading.get_ident()}


@pytest.mark.parametrize("mode", ["step", "e2e"])
def test_many_threads_on_a_fresh_registry_match_the_serial_run(mode, instances):
    # Eight copies of each instance, so the pool runs more threads than the
    # machine has cores, with a short switch interval to interleave them and
    # a fresh registry whose fixture cache starts empty.
    gold = _replay("bench_gold")
    copies = [replace(inst, id=f"{inst.id}-{k}") for k in range(8) for inst in instances]
    replay = BenchReplay({inst.id: gold.runs[inst.id.rsplit("-", 1)[0]] for inst in copies})
    expected = _run(mode, copies, _fresh_registry(), _recording_factory(mode, replay, {}, []))

    log: list = []
    delays = {inst.id: 0.01 for inst in copies}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _run(mode, copies, _fresh_registry(),
                   _recording_factory(mode, replay, delays, log))
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
    assert len({thread for _, thread in log}) > 2


def bench_report_digests(tmp_path: Path, replay: str, mode: str, images: bool) -> dict:
    """SHA-256 of each report file ``gulfclimate bench`` writes for one run."""
    tmp_path.mkdir()
    config = tmp_path / "config.json"
    out = tmp_path / "out"
    config.write_text(json.dumps({
        "provider": {"kind": "fixture", "fixture_root": str(FIXTURES)},
        "backend": {"kind": "scripted", "replay": str(ROOT / "replays" / f"{replay}.json")},
        "output_dir": str(out),
    }), encoding="utf-8")
    argv = ["bench", str(INSTANCES), "--config", str(config), "--mode", mode]
    assert cli_main(argv + (["--images"] if images else [])) == EXIT_OK
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in REPORT_FILES if (out / name).is_file()}


BENCH_RUNS = [(replay, mode, images) for replay in REPLAYS
              for mode, images in (("step", False), ("e2e", False), ("e2e", True))]


def golden_key(replay: str, mode: str, images: bool) -> str:
    return f"{replay} {mode}{' images' if images else ''}"


@pytest.mark.parametrize("replay, mode, images", BENCH_RUNS)
def test_cli_bench_reports_are_golden_and_repeatable(tmp_path, replay, mode, images):
    first = bench_report_digests(tmp_path / "first", replay, mode, images)
    second = bench_report_digests(tmp_path / "second", replay, mode, images)
    assert first == second
    assert first == GOLDEN[golden_key(replay, mode, images)]


@pytest.mark.parametrize("writer", ["write_report_csv", "write_step_rows_csv",
                                    "write_instance_rows_csv"])
def test_every_report_writer_turns_an_os_error_into_a_sink_failure(tmp_path, writer,
                                                                   instances, registry):
    from gulfclimate import evalharness
    from gulfclimate.core.csvio import SinkFailure

    report = _run("step", instances, registry, _replay("bench_gold").step_backend)
    with pytest.raises(SinkFailure):
        getattr(evalharness, writer)(report, tmp_path / "missing" / "report.csv")
