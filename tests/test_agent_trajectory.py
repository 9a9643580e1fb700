"""The step history of one agent run: its budget, its end and its file."""

import json

import pytest

from gulfclimate.agent.trajectory import Trajectory, TrajectoryError
from gulfclimate.toolkit import FinalAnswer, ToolCall
from gulfclimate.toolkit.types import Observation, ObservationStatus

CALL = ToolCall("geocode_mapping", {"region": "Doha"})
OK = Observation(tool="geocode_mapping", payload={"lat": 25.2854, "lon": 51.531},
                 status=ObservationStatus.ok())
FAILED = Observation(tool="geocode_mapping", payload=None,
                     status=ObservationStatus.error("region_not_found", "no such place"))


@pytest.mark.parametrize("budget", [0, -1])
def test_a_budget_below_one_is_rejected(budget):
    with pytest.raises(TrajectoryError, match="budget"):
        Trajectory(query="q", budget=budget)


def test_appending_past_the_budget_raises():
    trajectory = Trajectory(query="q", budget=2)
    trajectory.append(CALL, OK, "e1")
    trajectory.append(CALL, OK, "e2")
    with pytest.raises(TrajectoryError, match="budget"):
        trajectory.append(CALL, OK, "e3")
    assert len(trajectory.steps) == 2


def test_appending_after_a_final_answer_raises():
    trajectory = Trajectory(query="q", budget=5)
    trajectory.append(FinalAnswer("Doha is at 25.3 N."), None, "final")
    with pytest.raises(TrajectoryError, match="final answer"):
        trajectory.append(CALL, OK, "late")
    assert len(trajectory.steps) == 1


def test_finished_and_ok_observations():
    trajectory = Trajectory(query="q", budget=5)
    assert not trajectory.finished
    first = trajectory.append(CALL, OK, "e1")
    trajectory.append(CALL, FAILED, "e2")
    assert not trajectory.finished
    assert trajectory.ok_observations() == [first]
    last = trajectory.append(FinalAnswer("done"), None, "e3")
    assert trajectory.finished
    assert [s.index for s in trajectory.steps] == [1, 2, 3]
    assert trajectory.step(3) is last
    assert trajectory.ok_observations() == [first]


def test_write_gives_identical_bytes_twice(tmp_path):
    trajectory = Trajectory(query="Where is Doha?", budget=3)
    trajectory.append(ToolCall("geocode_mapping", {"region": "Doha", "a": 1}), OK, "e1")
    trajectory.append(CALL, FAILED, "e2")
    trajectory.append(FinalAnswer("Doha is at 25.2854 N, 51.531 E."), None, "e3")
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    trajectory.write(first)
    trajectory.write(second)
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text(encoding="utf-8"))
    assert doc["steps"][0]["action"]["args"] == {"a": 1, "region": "Doha"}
    assert doc["steps"][1]["observation"]["error_code"] == "region_not_found"
    assert doc["steps"][2]["action"] == {"kind": "final_answer",
                                         "text": "Doha is at 25.2854 N, 51.531 E."}
