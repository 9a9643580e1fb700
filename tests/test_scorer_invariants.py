"""The scorer's invariants, checked by corrupting gold replays (metamorphic tests).

Each case takes one instance's gold replay, which scores perfectly, and makes
one corruption from a catalogue: at one gold step, a malformed emission, a
tool outside the allowed set, another allowed tool that takes the same
arguments, a wrong argument name, a backend failure or a summary without its
facts; or a final answer without one of its facts. Exactly the predicted
cells may change: that step's row and error class in step mode, or that
instance's row in end-to-end mode. Every other row of the suite stays equal,
and every context step mode sends stays the uncorrupted run's, except for
the corrupted step's own assistant turns: its gold part is byte-identical.

The instances are the smoke suite, the benchmark generator's suite at three
seeds (geocode then inquiry chains, among others) and a satellite image then
NDVI chain whose second gold call refers to the first one's output.
"""

import sys
from dataclasses import dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from gulfclimate.agent.backend import BackendFailure  # noqa: E402
from gulfclimate.cli.config import load_config  # noqa: E402
from gulfclimate.evalharness.model import (  # noqa: E402
    BenchmarkInstance,
    GoldStep,
    check_against_registry,
    load_instances,
)
from gulfclimate.evalharness.runner import run_e2e_mode, run_step_mode  # noqa: E402
from gulfclimate.toolkit.grammar import serialize_call  # noqa: E402
from gulfclimate.toolkit.types import ToolCall  # noqa: E402
from gulfclimate.tools.providers import ProviderConfig  # noqa: E402
from gulfclimate.tools.suite import build_registry  # noqa: E402
from perfbench.workloads import generate  # noqa: E402

SEEDS = (1, 2, 3)
FAIL = object()  # an emission slot whose call raises BackendFailure
STEP_CORRUPTIONS = ("malformed", "unknown_tool", "other_tool", "wrong_arg_name",
                    "backend_failure", "summary_without_facts")


def fact_text(fact) -> str:
    parts = [fact.label] if fact.label else []
    if fact.value is not None:
        parts.append(fact.value if isinstance(fact.value, str) else repr(fact.value))
    return " ".join(parts)


@dataclass
class Run:
    """An instance's scripted emissions, step by step, and its final answer."""

    actions: list
    summaries: list
    final: str

    @classmethod
    def gold(cls, instance: BenchmarkInstance) -> "Run":
        return cls(
            actions=[serialize_call(ToolCall(g.tool, g.arg_values)) for g in instance.gold_trace],
            summaries=["; ".join(fact_text(f) for f in g.summary_facts) or "Done."
                       for g in instance.gold_trace],
            final="; ".join(fact_text(f) for f in instance.answer_facts) + ".")

    def step_emissions(self) -> list:
        emissions = []
        for action, summary in zip(self.actions, self.summaries):
            emissions += [action] if action is FAIL else [action, summary]
        return emissions


class Script:
    """Hands out ``emissions`` in order and keeps a copy of every context."""

    def __init__(self, emissions):
        self.emissions = list(emissions)
        self.calls = []

    def complete(self, messages):
        self.calls.append([dict(m) for m in messages])
        emission = self.emissions.pop(0)
        if emission is FAIL:
            raise BackendFailure("scripted failure")
        return emission


class Source:
    """A suite, the registry it runs on, and what its gold replays give:
    step rows, every context step mode sends, and e2e rows."""

    def __init__(self, name: str, instances: list, registry):
        check_against_registry(instances, registry)
        self.name, self.instances, self.registry = name, instances, registry
        gold = {i.id: Run.gold(i) for i in instances}
        self.step_rows, self.step_calls = self.step_mode(gold)
        self.e2e_rows = self.e2e_mode(gold)

    def __repr__(self) -> str:  # a falsifying example names its source only
        return f"Source({self.name!r})"

    def step_mode(self, runs: dict):
        scripts = {i.id: Script(runs[i.id].step_emissions()) for i in self.instances}
        report = run_step_mode(self.instances, lambda i: scripts[i.id], self.registry)
        assert report.instance_rows == []
        assert all(not script.emissions for script in scripts.values())
        return report.step_rows, {iid: script.calls for iid, script in scripts.items()}

    def e2e_mode(self, runs: dict):
        scripts = {i.id: Script(runs[i.id].actions + [runs[i.id].final])
                   for i in self.instances}
        report = run_e2e_mode(self.instances, lambda i: scripts[i.id], self.registry,
                              images_enabled=True)
        assert all(not script.emissions for script in scripts.values())
        return report.instance_rows


def ndvi_chain() -> BenchmarkInstance:
    image = GoldStep("get_satellite_image", frozenset({"lat", "lon", "date"}),
                     {"lat": 25.29, "lon": 51.53, "date": "2020-01-15"})
    ndvi = GoldStep("calculate_ndvi", frozenset({"image"}), {"image": "obs_1"})
    return BenchmarkInstance(id="doha-ndvi", query="How green was Doha in January 2020?",
                             allowed_tools=("get_satellite_image", "calculate_ndvi"),
                             gold_trace=(image, ndvi))


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    smoke = load_instances(ROOT / "benchmarks" / "smoke_instances.jsonl") + [ndvi_chain()]
    out = [Source("smoke", smoke, build_registry(
        ProviderConfig(kind="fixture", fixture_root=ROOT / "fixtures")))]
    for seed in SEEDS:
        workdir = tmp_path_factory.mktemp(f"suite{seed}")
        generate("bench-cpu", workdir, seed, tiny=True)
        config = load_config(workdir / "config.json")
        out.append(Source(f"suite{seed}", load_instances(workdir / "instances.jsonl"),
                          build_registry(config.provider, settings=config.settings)))
    return out


def test_every_gold_replay_scores_perfectly(sources):
    for source in sources:
        assert {(r.inst, r.tool, r.arg, r.summ, r.error_class) for r in source.step_rows} == \
            {(1, 1, 1, 1, "none")}
        assert all(row.answered == row.answered_with_images == 1 and row.failure is None
                   for row in source.e2e_rows)
    # Every kind of instance the catalogue needs is drawn from.
    instances = [i for source in sources for i in source.instances]
    assert any(len(i.gold_trace) > 1 for i in instances)
    assert any(not i.gold_trace for i in instances)
    assert any(i.requires_chart for i in instances)
    assert any(other_tools(i, s.registry, g)
               for s in sources for i in s.instances for g in i.gold_trace)


def other_tools(instance, registry, gold: GoldStep) -> list[str]:
    """The allowed tools other than ``gold.tool`` whose parameters are the
    gold tool's, by name and type, so that the gold arguments validate."""
    params = set(registry.signature(gold.tool).params)
    return [tool for tool in instance.allowed_tools
            if tool != gold.tool and set(registry.signature(tool).params) == params]


MALFORMED = (
    '```tool_call\n{"tool": \n```',
    "```tool_call\n[1, 2]\n```",
    '```tool_call\n{"args": {}}\n```',
    '```tool_call\n{"tool": "rain_inquiry", "args": {}}',
)


def step_cases(sources, corruption: str) -> list[tuple]:
    """Every ``(source, instance, t, choice)`` that ``corruption`` applies to;
    ``choice`` is the allowed tool or the argument name to put in, if any."""
    cases = []
    for source in sources:
        for instance in source.instances:
            for t, gold in enumerate(instance.gold_trace):
                if corruption == "other_tool":
                    choices = other_tools(instance, source.registry, gold)
                elif corruption == "wrong_arg_name":
                    choices = sorted(gold.arg_names)
                elif corruption == "summary_without_facts":
                    choices = [None] if gold.summary_facts else []
                else:
                    choices = [None]
                cases += [(source, instance, t, choice) for choice in choices]
    return cases


# The cases are drawn whole, so every example makes the same draws.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), corruption=st.sampled_from(STEP_CORRUPTIONS))
def test_a_step_corruption_changes_only_its_own_row(sources, data, corruption):
    source, instance, t, choice = data.draw(st.sampled_from(step_cases(sources, corruption)))
    gold = instance.gold_trace[t]
    runs = {i.id: Run.gold(i) for i in source.instances}
    run = runs[instance.id]

    if corruption == "malformed":
        run.actions[t] = data.draw(st.sampled_from(MALFORMED))
        cells = (0, 0, 0, 0, "format_err")
    elif corruption == "unknown_tool":
        run.actions[t] = serialize_call(ToolCall(f"{gold.tool}_v2", gold.arg_values))
        cells = (1, 0, 1, 1, "arg_err")
    elif corruption == "other_tool":
        run.actions[t] = serialize_call(ToolCall(choice, gold.arg_values))
        cells = (1, 0, 1, 1, "none")
    elif corruption == "wrong_arg_name":
        args = {(f"{key}_x" if key == choice else key): value
                for key, value in gold.arg_values.items()}
        run.actions[t] = serialize_call(ToolCall(gold.tool, args))
        cells = (1, 1, 0, 1, "arg_err")
    elif corruption == "backend_failure":
        run.actions[t] = FAIL
        cells = (0, 0, 0, 0, "na")
    else:
        run.summaries[t] = "Done."
        cells = (1, 1, 1, 0, "none")

    rows, calls = source.step_mode(runs)
    expected = [replace(row, **dict(zip(("inst", "tool", "arg", "summ", "error_class"), cells)))
                if (row.instance_id, row.step_index) == (instance.id, t) else row
                for row in source.step_rows]
    assert rows == expected
    assert {iid: c for iid, c in calls.items() if iid != instance.id} == \
        {iid: c for iid, c in source.step_calls.items() if iid != instance.id}

    # Every context is the uncorrupted one but for step t's assistant turns; a
    # failed action call is followed by no summary call.
    gold_calls = list(source.step_calls[instance.id])
    if run.actions[t] is FAIL:
        del gold_calls[2 * t + 1]
    action_at, summary_at = 2 + 3 * t, 4 + 3 * t
    shown_action = "" if run.actions[t] is FAIL else run.actions[t]
    shown_summary = "" if run.actions[t] is FAIL else run.summaries[t]
    expected_calls = []
    for context in gold_calls:
        context = [dict(m) for m in context]
        if len(context) > action_at:
            context[action_at]["content"] = shown_action
        if len(context) > summary_at and context[summary_at]["role"] == "assistant":
            context[summary_at]["content"] = shown_summary
        expected_calls.append(context)
    assert calls[instance.id] == expected_calls


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_final_answer_missing_a_fact_changes_only_its_instance_row(sources, data):
    source, instance, dropped = data.draw(st.sampled_from(
        [(source, instance, fact) for source in sources for instance in source.instances
         for fact in instance.answer_facts]))
    runs = {i.id: Run.gold(i) for i in source.instances}
    final = runs[instance.id].final = "; ".join(
        fact_text(f) for f in instance.answer_facts if f is not dropped) + "."
    # The rest of the answer must not state the dropped fact by chance.
    rest = final.casefold()
    assert not (dropped.label.casefold() in rest and fact_text(replace(dropped, label=""))
                .casefold() in rest)

    rows = source.e2e_mode(runs)
    expected = [replace(row, answered=0, answered_with_images=0,
                        missed_facts=(dropped.label or str(dropped.value),))
                if row.instance_id == instance.id else row
                for row in source.e2e_rows]
    assert rows == expected
