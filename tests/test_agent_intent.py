"""Intent routing with a scripted backend: reply labels and fallbacks."""

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
    assert route("What was the rainfall in Doha?", reply) == INTENT_CATEGORIES[label]


@pytest.mark.parametrize("reply, label", [
    ("numerical, or perhaps geospatial", "numerical"),
    ("geospatial, or perhaps numerical", "geospatial"),
    ("textual rather than health", "textual"),
    ("environmental rather than textual", "health_environmental"),
])
def test_the_earliest_label_in_the_reply_wins(reply, label):
    assert route("Doha rainfall", reply) == INTENT_CATEGORIES[label]


@pytest.mark.parametrize("replies", [("I cannot tell",), ("",), ()],
                         ids=["no_label", "empty_reply", "backend_failure"])
def test_no_label_or_a_failed_backend_falls_back_to_every_category(replies):
    # An empty script makes the backend raise BackendFailure on its first call.
    assert route("Show the NDVI trend near Al Khor", *replies) == CATEGORIES


def test_the_backend_is_asked_once_with_the_query():
    prompts = []

    class Recording(ScriptedBackend):
        def complete(self, messages):
            prompts.append(messages)
            return super().complete(messages)

    route_intent("Rainfall in Doha", Recording(["numerical", "textual"]))
    assert len(prompts) == 1 and len(prompts[0]) == 1
    assert prompts[0][0]["content"].endswith("Query: Rainfall in Doha")
