"""Intent routing with a scripted backend: reply labels, fallbacks and cues."""

import pytest

from gulfclimate.agent.backend import ScriptedBackend
from gulfclimate.agent.intent import INTENT_CATEGORIES, route_intent
from gulfclimate.toolkit.types import CATEGORIES


def route(query, *replies):
    return route_intent(query, ScriptedBackend(replies))


@pytest.mark.parametrize("reply, label", [
    ("textual", "textual"),
    ("numerical", "numerical"),
    ("Geospatial", "geospatial"),
    ("health_environmental", "health_environmental"),
    ("health/environmental", "health_environmental"),
    ("Health-Environmental.", "health_environmental"),
    ("health environmental", "health_environmental"),
    ("environmental", "health_environmental"),
    ("health", "health_environmental"),
    ("  Label: numerical\n", "numerical"),
])
def test_each_label_routes_to_its_categories(reply, label):
    intent = route("What was the rainfall in Doha?", reply)
    assert intent.label == label
    assert intent.routed_categories == INTENT_CATEGORIES[label]


@pytest.mark.parametrize("reply, label", [
    ("numerical, or perhaps geospatial", "numerical"),
    ("geospatial, or perhaps numerical", "geospatial"),
    ("textual rather than health", "textual"),
    ("environmental rather than textual", "health_environmental"),
])
def test_the_earliest_label_in_the_reply_wins(reply, label):
    assert route("Doha rainfall", reply).label == label


@pytest.mark.parametrize("query, label", [
    ("Show the NDVI trend near Al Khor", "geospatial"),
    ("What is the AQI in Doha today?", "health_environmental"),
    ("Rainfall in Doha last April", "numerical"),
    ("What did the ministry announce?", "textual"),
])
@pytest.mark.parametrize("replies", [("I cannot tell",), ("",), ()],
                         ids=["no_label", "empty_reply", "backend_failure"])
def test_no_label_or_a_failed_backend_falls_back_to_every_category(query, label, replies):
    # An empty script makes the backend raise BackendFailure on its first call.
    intent = route(query, *replies)
    assert intent.label == label
    assert intent.routed_categories == CATEGORIES


def test_the_backend_is_asked_once_with_the_query():
    prompts = []

    class Recording(ScriptedBackend):
        def complete(self, messages):
            prompts.append(messages)
            return super().complete(messages)

    route_intent("Rainfall in Doha", Recording(["numerical", "textual"]))
    assert len(prompts) == 1 and len(prompts[0]) == 1
    assert prompts[0][0]["content"].endswith("Query: Rainfall in Doha")


@pytest.mark.parametrize("query", ["", "   ", "\n\t"])
def test_an_empty_query_is_rejected(query):
    backend = ScriptedBackend(["numerical"])
    with pytest.raises(ValueError, match="non-empty"):
        route_intent(query, backend)
    assert backend.remaining == 1
