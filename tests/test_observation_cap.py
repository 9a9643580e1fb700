"""Every observation of the checked-in and benchmark suites fits under the cap.

``observation_message`` cuts a line above ``OBSERVATION_BYTE_CAP`` bytes, and
grounding checks claims only against the part that was shown, so a tool whose
observation is cut hides part of its own result from the model. Each line
here is built by the agent loop's own functions, and the part it shows must
be the whole encoded body.
"""

import json
from pathlib import Path

import pytest

from gulfclimate.agent.runner import show_observation
from gulfclimate.agent.serialization import observation_message, render_observation
from gulfclimate.cli.config import load_config
from gulfclimate.evalharness.model import load_instances
from gulfclimate.toolkit.grammar import parse_call
from gulfclimate.toolkit.registry import execute
from gulfclimate.toolkit.types import ToolCall
from gulfclimate.tools.providers import ProviderConfig
from gulfclimate.tools.suite import build_registry
from perfbench.gen import make_suite
from test_tools_golden import _observations

ROOT = Path(__file__).resolve().parent.parent


def shown_and_bodies(calls, registry):
    """The shown part and the encoded body of each call's observation, the
    calls run in order as one trajectory so that ``obs_N`` references
    resolve."""
    refs = {}
    for index, call in enumerate(calls, start=1):
        observation = execute(call, registry, refs=refs)
        _, shown = show_observation(observation, index, refs)
        yield shown, render_observation(observation)


def gold_calls(instance):
    return [ToolCall(step.tool, step.arg_values) for step in instance.gold_trace
            if step.arg_values is not None]


def cut(named):
    """The names whose observation line does not show its whole body."""
    return [name for name, (shown, body) in named if shown != body]


def test_smoke_suite_gold_observations_fit_under_the_cap():
    registry = build_registry(ProviderConfig(kind="fixture", fixture_root=ROOT / "fixtures"))
    instances = load_instances(ROOT / "benchmarks" / "smoke_instances.jsonl")
    assert cut((instance.id, pair) for instance in instances
               for pair in shown_and_bodies(gold_calls(instance), registry)) == []


def test_tools_golden_observations_fit_under_the_cap():
    named = []
    for index, (label, obs) in enumerate(_observations().items(), start=1):
        body = json.dumps(obs, sort_keys=True, ensure_ascii=False)
        named.append((label, (observation_message(body, index)[1], body)))
    assert cut(named) == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_suite_observations_fit_under_the_cap(tmp_path, seed):
    make_suite(tmp_path, seed)
    config = load_config(tmp_path / "config.json")
    registry = build_registry(config.provider, settings=config.settings)
    named = []
    for instance in load_instances(tmp_path / "instances.jsonl"):
        named += [(instance.id, pair)
                  for pair in shown_and_bodies(gold_calls(instance), registry)]
    runs = json.loads((tmp_path / "replay.json").read_text(encoding="utf-8"))["runs"]
    for run_id, run in runs.items():  # gold and corrupted replayed calls
        calls = [parse_call(step["action"]) for step in run["steps"]]
        assert all(isinstance(call, ToolCall) for call in calls)
        named += [(run_id, pair) for pair in shown_and_bodies(calls, registry)]
    assert any("aqi_analysis" in name for name, _ in named)
    assert cut(named) == []
