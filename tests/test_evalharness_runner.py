"""Tests of the benchmark drivers: instance order, failure isolation, threads."""

import hashlib
import json
import statistics
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from gulfclimate.agent.backend import BackendFailure, ScriptedBackend
from gulfclimate.cli.main import EXIT_OK, main as cli_main
from gulfclimate.evalharness import runner as runner_module
from gulfclimate.evalharness.model import BenchmarkInstance, GoldStep, InstanceError, load_instances
from gulfclimate.evalharness.replay import BenchReplay
from gulfclimate.evalharness.runner import run_e2e_mode, run_step_mode
from gulfclimate.toolkit.grammar import serialize_call
from gulfclimate.toolkit.types import ToolCall
from gulfclimate.tools.providers import ProviderConfig
from gulfclimate.tools.suite import build_registry

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

    # Every call waits, so helpers start after the first one; earlier
    # instances wait longer per call than later ones.
    ids = [inst.id for inst in instances]
    delays = {iid: 0.03 if k == 0 else 0.06 / k for k, iid in enumerate(ids)}
    log: list = []
    got = _run(mode, instances, registry, _recording_factory(mode, replay, delays, log))

    assert got == expected
    assert len({thread for _, thread in log}) > 1
    last_call = {iid: k for k, (iid, _) in enumerate(log)}
    assert sorted(last_call, key=last_call.get) != ids


def test_a_real_beyond_the_float_range_is_an_arg_err_of_its_own_step(instances, registry):
    gold = _replay("bench_gold")
    run = json.loads(json.dumps(gold.runs["doha-rain"]))
    run["steps"][1]["action"] = run["steps"][1]["action"].replace("25.2854", "4" * 400)
    report = run_step_mode(instances, BenchReplay({**gold.runs, "doha-rain": run}).step_backend,
                           registry)
    clean = run_step_mode(instances, gold.step_backend, registry)
    assert not any(row.failure for row in report.instance_rows)
    assert len(report.step_rows) == len(clean.step_rows)
    assert [(got.instance_id, got.step_index, got.error_class)
            for got, gold_row in zip(report.step_rows, clean.step_rows)
            if got != gold_row] == [("doha-rain", 1, "arg_err")]


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


class ComputingBackend:
    """Spends about 5 ms of the calling thread's CPU time per call."""

    def complete(self, messages):
        end = time.thread_time() + 0.005
        while time.thread_time() < end:
            pass
        return "computed"


class SleepingBackend:
    """Sleeps 5 ms per call, as a backend waiting on a socket would."""

    def complete(self, messages):
        time.sleep(0.005)
        return "slept"


def test_the_wait_clock_counts_sleeping_and_not_computing():
    # The median of 15 calls: on a shared virtual machine a CPU burst is now
    # and then descheduled for milliseconds, and that time reads as waiting.
    def median_added(backend):
        added = []
        for _ in range(15):
            runner_module._TimedBackend(backend, added.append).complete([])
        return statistics.median(added)

    assert median_added(SleepingBackend()) >= 0.0045
    assert median_added(ComputingBackend()) < 0.0025


@pytest.mark.parametrize("per_thread, counted", [(True, False), (False, True)])
def test_a_call_without_a_voluntary_switch_adds_no_wait(monkeypatch, per_thread, counted):
    """A 5 ms sleep that the switch count says never blocked reads as a host
    stall; where the platform has no per-thread count it reads as waiting."""
    monkeypatch.setattr(runner_module, "getrusage", lambda who: SimpleNamespace(ru_nvcsw=7))
    if not per_thread:
        monkeypatch.setattr(runner_module, "RUSAGE_THREAD", None)
    added = []
    runner_module._TimedBackend(SleepingBackend(), added.append).complete([])
    assert (added[0] >= 0.0045) if counted else added == [0.0]


class VirtualHost:
    """The runner module's wall clock, CPU clock and voluntary switch count,
    made virtual so that host scheduling cannot sway the thread gate, and a
    record of the helper pools the module starts: the helper count and the
    backend calls made by then."""

    def __init__(self, monkeypatch):
        self.wall = self.cpu = 0.0
        self.switches = self.calls = 0
        self.pools: list[tuple[int, int]] = []
        monkeypatch.setattr(runner_module, "perf_counter", lambda: self.wall)
        monkeypatch.setattr(runner_module, "thread_time", lambda: self.cpu)
        monkeypatch.setattr(runner_module, "RUSAGE_THREAD", 0)
        monkeypatch.setattr(runner_module, "getrusage",
                            lambda who: SimpleNamespace(ru_nvcsw=self.switches))
        host = self

        class CountingPool(runner_module.ThreadPoolExecutor):
            def __init__(self, workers):
                host.pools.append((workers, host.calls))
                super().__init__(workers)

        monkeypatch.setattr(runner_module, "ThreadPoolExecutor", CountingPool)

    def backend(self, compute_s: float, wait_s: float):
        host = self

        class Backend:
            def complete(self, messages):
                host.calls += 1
                host.wall += compute_s + wait_s
                host.cpu += compute_s
                host.switches += wait_s > 0
                return "emission"
        return Backend()


def make_instances(trace_lengths) -> list[BenchmarkInstance]:
    step = GoldStep("rain_inquiry", frozenset({"lat"}))
    return [BenchmarkInstance(id=f"instance-{k}", query="q", allowed_tools=("rain_inquiry",),
                              gold_trace=(step,) * n, requires_tools=n > 0)
            for k, n in enumerate(trace_lengths)]


def three_calls(instance, chat):
    for _ in range(3):
        chat.complete([])
    return instance.id


@pytest.mark.parametrize("computes, pools", [(True, 0), (False, 1)])
def test_only_a_backend_that_waits_starts_a_thread_pool(monkeypatch, computes, pools):
    """5 ms per call of CPU work, or of waiting, on a virtual clock."""
    host = VirtualHost(monkeypatch)
    backend = host.backend(0.005, 0.0) if computes else host.backend(0.0, 0.005)
    instances = make_instances([1] * 12)
    assert runner_module._map_instances(instances, lambda _: backend, three_calls) == \
        [inst.id for inst in instances]
    assert len(host.pools) == pools


@pytest.mark.parametrize("compute_ms, wait_ms, n_instances, helpers", [
    (0, 5, 12, 11),  # all waiting: one worker per instance
    (0, 5, runner_module.MAX_WORKERS + 8, runner_module.MAX_WORKERS - 1),  # the ceiling
    (1, 4, 12, 4),  # round(5 / 1) workers, the calling thread one of them
    (3, 2, 12, 1),  # a wait of two fifths still opens the gate
    (4, 1, 12, None),  # a fifth does not
    (0, 5, 3, 2),  # no more helpers than instances still queued
    (0, 5, 1, None),
])
def test_helpers_start_after_the_first_waiting_call(monkeypatch, compute_ms, wait_ms,
                                                    n_instances, helpers):
    host = VirtualHost(monkeypatch)
    backend = host.backend(compute_ms / 1000, wait_ms / 1000)
    instances = make_instances([1] * n_instances)
    assert runner_module._map_instances(instances, lambda _: backend, three_calls) == \
        [inst.id for inst in instances]
    # Started after the first of the first instance's three calls, or never.
    assert host.pools == ([] if helpers is None else [(helpers, 1)])


def test_a_suite_that_fits_under_the_ceiling_runs_every_instance_at_once(monkeypatch):
    """The bench-wait suite's shape: 14 instances, nine with gold traces of
    length 2, three of length 1 and two of length 0, two backend calls per
    gold step as in step mode. After the first call 13 are queued, and one
    helper starts for each."""
    host = VirtualHost(monkeypatch)
    backend = host.backend(0.0, 0.025)
    instances = make_instances([2] * 9 + [1] * 3 + [0] * 2)

    def run(instance, chat):
        for _ in range(2 * len(instance.gold_trace)):
            chat.complete([])
        return instance.id

    assert runner_module._map_instances(instances, lambda _: backend, run) == \
        [inst.id for inst in instances]
    assert host.pools == [(13, 1)]


def test_the_calling_thread_keeps_running_instances_after_helpers_start(monkeypatch):
    host = VirtualHost(monkeypatch)
    main = threading.get_ident()
    ran: list = []
    second = threading.Event()

    class HeldBackend:
        """Waits (virtually); on a helper thread, first holds until the calling
        thread has started a second instance."""

        inner = host.backend(0.0, 0.005)

        def complete(self, messages):
            if threading.get_ident() != main and not second.wait(timeout=5):
                raise TimeoutError("the calling thread ran no second instance")
            return self.inner.complete(messages)

    def run(instance, chat):
        ran.append((instance.id, threading.get_ident()))
        if sum(thread == main for _, thread in ran) == 2:
            second.set()
        return three_calls(instance, chat)

    # More instances than workers, so some are still queued once every
    # helper holds one.
    instances = make_instances([1] * (runner_module.MAX_WORKERS + 8))
    got = runner_module._map_instances(instances, lambda _: HeldBackend(), run)
    assert got == [inst.id for inst in instances]
    assert len(host.pools) == 1
    assert second.is_set()
    assert len({thread for _, thread in ran}) > 1


def test_dispatch_is_longest_gold_trace_first_and_rows_keep_instance_order(monkeypatch):
    # A backend that computes keeps every instance on the calling thread, so
    # the order instances start in is the dispatch order.
    host = VirtualHost(monkeypatch)
    backend = host.backend(0.001, 0.0)
    instances = make_instances([1, 3, 2, 3, 1, 2])
    started: list[str] = []

    def run(instance, chat):
        started.append(instance.id)
        return three_calls(instance, chat)

    got = runner_module._map_instances(instances, lambda _: backend, run)
    assert got == [inst.id for inst in instances]
    assert started == [instances[k].id for k in (1, 3, 2, 5, 0, 4)]
    assert host.pools == []


def test_no_more_than_max_workers_instances_are_in_flight():
    lock = threading.Lock()
    in_flight, most = [0], [0]

    def run(instance, chat):
        with lock:
            in_flight[0] += 1
            most[0] = max(most[0], in_flight[0])
        try:
            for _ in range(2):
                chat.complete([])
        finally:
            with lock:
                in_flight[0] -= 1
        return instance.id

    instances = make_instances([1] * 40)
    got = runner_module._map_instances(instances, lambda _: SleepingBackend(), run)
    assert got == [inst.id for inst in instances]
    assert 1 < most[0] <= runner_module.MAX_WORKERS


class Halt(BaseException):
    pass


def test_a_base_exception_in_a_helper_propagates(monkeypatch):
    host = VirtualHost(monkeypatch)
    main = threading.get_ident()
    backend = host.backend(0.0, 0.005)

    def run(instance, chat):
        if threading.get_ident() != main:
            raise Halt(instance.id)
        return three_calls(instance, chat)

    with pytest.raises(Halt):
        runner_module._map_instances(make_instances([1] * 12), lambda _: backend, run)
    assert len(host.pools) == 1


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
        "provider": {"mode": "fixture", "fixture_root": str(FIXTURES)},
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
    from gulfclimate.core.csvio import SinkFailure
    from gulfclimate.evalharness import reporting

    report = _run("step", instances, registry, _replay("bench_gold").step_backend)
    with pytest.raises(SinkFailure):
        getattr(reporting, writer)(report, tmp_path / "missing" / "report.csv")


@pytest.mark.parametrize("mode", ["step", "e2e"])
def test_an_unknown_allowed_tool_fails_its_instance(mode, instances, registry):
    from gulfclimate.evalharness.model import check_against_registry

    first = instances[0]
    misspelled = replace(first, allowed_tools=(*first.allowed_tools, "rain_inquery"))
    with pytest.raises(InstanceError, match=f"{first.id}: unknown allowed tool 'rain_inquery'"):
        check_against_registry([instances[1], misspelled], registry)
    replay = _replay("bench_gold")
    make = replay.step_backend if mode == "step" else replay.e2e_backend
    got = _run(mode, [misspelled, *instances[1:]], registry, make)
    failures = {row.instance_id: row.failure for row in got.instance_rows if row.failure}
    assert failures == {misspelled.id: "RegistryError: unknown tools in subset: ['rain_inquery']"}


def test_report_rows_holding_a_carriage_return_round_trip(tmp_path):
    import csv

    from gulfclimate.evalharness.reporting import write_instance_rows_csv, write_step_rows_csv
    from gulfclimate.evalharness.runner import InstanceRow, MetricReport, StepRow

    report = MetricReport(mode="e2e", step_rows=[StepRow("doha\rrain", 0, 1, 0, 1, 0, "ok")],
                          instance_rows=[InstanceRow("doha\rrain", 1, None, True,
                                                     ("a,b", 'say "hi"'), "bad\rreply\nhere")])
    write_step_rows_csv(report, tmp_path / "step_rows.csv")
    write_instance_rows_csv(report, tmp_path / "instance_rows.csv")
    with open(tmp_path / "step_rows.csv", encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh))[1:] == [["doha\rrain", "0", "1", "0", "1", "0", "ok"]]
    with open(tmp_path / "instance_rows.csv", encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh))[1:] == [
            ["doha\rrain", "1", "", "1", 'a,b|say "hi"', "bad\rreply\nhere"]]


@pytest.mark.parametrize("mode, report, row", [
    ("step", "step_rows.csv", "doha-rain-\\ud83d,0,1,1,1,1,none\n"),
    ("e2e", "instance_rows.csv", "doha-rain-\\ud83d,0,,,doha\\ud83d,\n"),
], ids=["step", "e2e"])
def test_cli_bench_writes_a_lone_surrogate_of_an_id_or_label_escaped(tmp_path, mode, report,
                                                                      row):
    first, *rest = INSTANCES.read_text(encoding="utf-8").splitlines()
    doc = json.loads(first)
    doc["id"] = "doha-rain-\ud83d"
    doc["answer_facts"][1]["label"] = "doha\ud83d"
    instances = tmp_path / "instances.jsonl"
    instances.write_text("\n".join([json.dumps(doc), *rest]) + "\n", encoding="utf-8")
    replay = json.loads((ROOT / "replays" / "bench_gold.json").read_text(encoding="utf-8"))
    replay["runs"][doc["id"]] = replay["runs"].pop("doha-rain")
    (tmp_path / "replay.json").write_text(json.dumps(replay), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "provider": {"mode": "fixture", "fixture_root": str(FIXTURES)},
        "backend": {"kind": "scripted", "replay": str(tmp_path / "replay.json")},
        "output_dir": str(tmp_path / "out"),
    }), encoding="utf-8")
    assert cli_main(["bench", str(instances), "--config", str(config), "--mode", mode]) == EXIT_OK
    lines = (tmp_path / "out" / report).read_text(encoding="utf-8").splitlines(keepends=True)
    assert row in lines


class MessageLog:
    """A scripted backend that keeps a copy of every message list it gets."""

    def __init__(self, emissions):
        self.inner = ScriptedBackend(emissions)
        self.calls = []

    def complete(self, messages):
        self.calls.append([dict(m) for m in messages])
        return self.inner.complete(messages)


def _ndvi_chain():
    """A satellite image, then NDVI on it through ``obs_1``."""
    image = GoldStep("get_satellite_image", frozenset({"lat", "lon", "date"}),
                     {"lat": 25.29, "lon": 51.53, "date": "2020-01-15"})
    ndvi = GoldStep("calculate_ndvi", frozenset({"image"}), {"image": "obs_1"})
    instance = BenchmarkInstance(id="doha-ndvi", query="How green was Doha in January 2020?",
                                 allowed_tools=("get_satellite_image", "calculate_ndvi"),
                                 gold_trace=(image, ndvi))
    return instance, image, ndvi


def test_step_mode_resolves_a_gold_reference_to_the_earlier_gold_payload(registry):
    instance, image, ndvi = _ndvi_chain()
    backend = MessageLog([serialize_call(ToolCall("get_satellite_image", image.arg_values)),
                          "Image retrieved.",
                          serialize_call(ToolCall("calculate_ndvi", ndvi.arg_values)),
                          "NDVI computed."])
    report = run_step_mode([instance], lambda _instance: backend, registry)
    assert backend.inner.remaining == 0
    assert report.instance_rows == []
    gold_ndvi = backend.calls[-1][-2]["content"]
    assert "\nobservation[obs_2] {" in gold_ndvi
    assert '"index_name": "ndvi"' in gold_ndvi
    assert "unresolvable_reference" not in gold_ndvi


class FailsFirstCall(MessageLog):
    """A message log whose backend raises ``BackendFailure`` on its first call."""

    def complete(self, messages):
        if not self.calls:
            self.calls.append([dict(m) for m in messages])
            raise BackendFailure("first call fails")
        return super().complete(messages)


def test_step_mode_keeps_a_gold_step_whose_action_call_failed(registry):
    instance, _image, ndvi = _ndvi_chain()
    backend = FailsFirstCall([serialize_call(ToolCall("calculate_ndvi", ndvi.arg_values)),
                              "NDVI computed."])
    report = run_step_mode([instance], lambda _instance: backend, registry)
    assert backend.inner.remaining == 0
    assert len(backend.calls) == 3  # no summary call after the failed action
    assert [row.error_class for row in report.step_rows] == ["na", "none"]
    step2 = backend.calls[1]
    assert [m["role"] for m in step2[2:]] == ["assistant", "user", "assistant"]
    assert step2[2]["content"] == step2[4]["content"] == ""
    assert step2[3]["content"].startswith("Gold step executed: ")
    gold_ndvi = backend.calls[-1][-2]["content"]
    assert "\nobservation[obs_2] {" in gold_ndvi
    assert '"index_name": "ndvi"' in gold_ndvi
    assert "unresolvable_reference" not in gold_ndvi


def test_step_mode_shows_the_model_the_system_message_of_e2e_mode(instances, registry):
    (instance,) = [i for i in instances if i.id == "doha-rain"]
    step, e2e = MessageLog(["prose"] * 8), MessageLog(["prose"])
    run_step_mode([instance], lambda _instance: step, registry)
    run_e2e_mode([instance], lambda _instance: e2e, registry)
    system = {call[0]["content"] for call in step.calls + e2e.calls if call[0]["role"] == "system"}
    assert len(system) == 1
    assert "```tool_call" in system.pop()


@pytest.mark.parametrize("change, cause", [
    (lambda doc: doc["answer_facts"].append("mm"), "AttributeError"),
    (lambda doc: doc["gold_trace"][0]["summary_facts"].append(12.0), "AttributeError"),
    (lambda doc: doc["answer_facts"][0].update(tolerance="x"), "ValueError"),
    (lambda doc: doc["answer_facts"][0].update(value=[1]), "ValueError"),
    (lambda doc: doc["answer_facts"][0].update(value=True), "ValueError"),
    (lambda doc: doc["answer_facts"][0].update(tolerance=-1), "ValueError"),
    (lambda doc: doc["answer_facts"][0].update(tolerance=float("inf")), "ValueError"),
    (lambda doc: doc["gold_trace"][0]["summary_facts"][0].update(value={"v": 1}), "ValueError"),
    (lambda doc: doc.update(requires_chart="false"), "ValueError"),
    (lambda doc: doc.update(requires_tools=1), "ValueError"),
    (lambda doc: doc.update(query=12), "ValueError"),
    (lambda doc: doc.update(query=" \n"), "ValueError"),
    (lambda doc: doc["gold_trace"][0].update(arg_values=[29.3759, 47.9774]), "ValueError"),
    (lambda doc: doc["answer_facts"][0].update(label=5), "ValueError"),
], ids=["answer_fact_not_an_object", "summary_fact_not_an_object", "tolerance_not_a_number",
        "value_a_list", "value_a_bool", "tolerance_negative", "tolerance_infinite",
        "summary_value_an_object", "requires_chart_a_string", "requires_tools_a_number",
        "query_a_number", "query_blank", "arg_values_a_list", "fact_label_a_number"])
def test_a_malformed_record_is_an_instance_error_naming_its_line(tmp_path, change, cause):
    good, bad = INSTANCES.read_text(encoding="utf-8").splitlines()[:2]
    doc = json.loads(bad)
    change(doc)
    path = tmp_path / "instances.jsonl"
    path.write_text(f"{good}\n{json.dumps(doc)}\n", encoding="utf-8")
    with pytest.raises(InstanceError) as raised:
        load_instances(path)
    assert str(raised.value).startswith(f"{path}:2: bad instance record: ")
    assert type(raised.value.__cause__).__name__ == cause


def test_boolean_flags_and_fact_bounds_load_as_written(tmp_path):
    doc = json.loads(INSTANCES.read_text(encoding="utf-8").splitlines()[1])
    doc.update(requires_chart=False, requires_tools=True)
    doc["answer_facts"] = [{"label": "aqi", "value": 0, "tolerance": 0},
                           {"value": "kuwait", "tolerance": 2}, {"label": "aqi"}]
    path = tmp_path / "instances.jsonl"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    (instance,) = load_instances(path)
    assert (instance.requires_chart, instance.requires_tools) == (False, True)
    assert [(f.value, f.tolerance) for f in instance.answer_facts] == [
        (0, 0.0), ("kuwait", 2.0), (None, 1e-6)]
