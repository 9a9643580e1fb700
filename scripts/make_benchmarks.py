#!/usr/bin/env python3
"""Regenerate the smoke benchmark suite and its scripted replays."""

from __future__ import annotations

import json
from pathlib import Path

from gulfclimate.toolkit.grammar import serialize_call
from gulfclimate.toolkit.types import ToolCall

ROOT = Path(__file__).resolve().parent.parent

DOHA = (25.2854, 51.5310)
KUWAIT = (29.3759, 47.9774)


def call(tool: str, **args) -> str:
    return serialize_call(ToolCall(tool, args))


def fact(label: str = "", value=None, tolerance: float | None = None) -> dict:
    doc: dict = {"label": label, "value": value}
    if tolerance is not None:
        doc["tolerance"] = tolerance
    return doc


INSTANCES = [
    {
        "id": "doha-rain",
        "query": "How much rain fell in Doha on 2023-04-15?",
        "allowed_tools": ["geocode_mapping", "rain_inquiry", "weather_inquiry",
                          "rain_analysis"],
        "gold_trace": [
            {"tool": "geocode_mapping", "arg_names": ["region"],
             "arg_values": {"region": "Doha"},
             "summary_facts": [fact("doha"), fact("", 25.2854), fact("", 51.531)]},
            {"tool": "rain_inquiry", "arg_names": ["date", "lat", "lon"],
             "arg_values": {"lat": 25.2854, "lon": 51.531, "date": "2023-04-15"},
             "summary_facts": [fact("mm", 12.0)]},
        ],
        "answer_facts": [fact("mm", 12.0), fact("doha")],
    },
    {
        "id": "kuwait-aqi",
        "query": "What was the AQI in Kuwait City on 2023-04-15?",
        "allowed_tools": ["aqi_inquiry", "aqi_analysis", "geocode_mapping"],
        "gold_trace": [
            {"tool": "aqi_inquiry", "arg_names": ["date", "lat", "lon"],
             "arg_values": {"lat": 29.3759, "lon": 47.9774, "date": "2023-04-15"},
             "summary_facts": [fact("aqi", 134)]},
        ],
        "answer_facts": [fact("aqi", 134)],
    },
    {
        "id": "doha-forecast",
        "query": "Chart the temperature forecast for Doha over the next 5 days.",
        "allowed_tools": ["geocode_mapping", "weather_forecast", "weather_inquiry"],
        "gold_trace": [
            {"tool": "weather_forecast", "arg_names": ["days", "lat", "lon"],
             "arg_values": {"lat": 25.2854, "lon": 51.531, "days": 5},
             "summary_facts": [fact("temperature", 33.0)]},
        ],
        "answer_facts": [fact("temperature", 33.0)],
        "requires_chart": True,
    },
    {
        "id": "doha-country",
        "query": "Which Gulf country is Doha the capital of?",
        "allowed_tools": ["online_search"],
        "gold_trace": [],
        "answer_facts": [fact("qatar")],
        "requires_tools": False,
    },
    {
        "id": "qatar-capital",
        "query": "Name the capital city of Qatar.",
        "allowed_tools": ["online_search"],
        "gold_trace": [],
        "answer_facts": [fact("doha")],
        "requires_tools": False,
    },
]

REPLAY_RUNS = {
    "doha-rain": {
        "steps": [
            {"action": call("geocode_mapping", region="Doha"),
             "summary": "Doha resolves to lat 25.2854, lon 51.531 (Doha, Qatar)."},
            {"action": call("rain_inquiry", lat=25.2854, lon=51.531, date="2023-04-15"),
             "summary": "rain_inquiry returned 12.0 mm at Doha for 2023-04-15."},
        ],
        "final": "Doha received 12.0 mm of rain on 2023-04-15 [step 2].",
    },
    "kuwait-aqi": {
        "steps": [
            {"action": call("aqi_inquiry", lat=29.3759, lon=47.9774, date="2023-04-15"),
             "summary": "aqi_inquiry returned AQI 134 for Kuwait City on 2023-04-15."},
        ],
        "final": "The AQI in Kuwait City on 2023-04-15 was 134 [step 1].",
    },
    "doha-forecast": {
        "steps": [
            {"action": call("weather_forecast", lat=25.2854, lon=51.531, days=5),
             "summary": "weather_forecast: 5-day temperature series starting at 33.0 °C."},
        ],
        "final": ("The temperature forecast for Doha starts at 33.0 °C "
                  "on 2023-04-16 [step 1]."),
    },
    "doha-country": {
        "steps": [],
        "final": "Doha is the capital of Qatar.",
    },
    "qatar-capital": {
        "steps": [],
        "final": "The capital city of Qatar is Doha.",
    },
}


def main() -> None:
    bench_dir = ROOT / "benchmarks"
    replay_dir = ROOT / "replays"
    bench_dir.mkdir(exist_ok=True)
    replay_dir.mkdir(exist_ok=True)

    instances_path = bench_dir / "smoke_instances.jsonl"
    instances_path.write_text(
        "\n".join(json.dumps(i, sort_keys=True, ensure_ascii=False) for i in INSTANCES) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {instances_path}")

    gold_path = replay_dir / "bench_gold.json"
    gold_path.write_text(json.dumps({"runs": REPLAY_RUNS}, indent=1, sort_keys=True,
                                    ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {gold_path}")

    # A pre-corrupted variant for CLI demos: wrong tool on doha-rain step 2.
    corrupted = json.loads(json.dumps({"runs": REPLAY_RUNS}))
    corrupted["runs"]["doha-rain"]["steps"][1]["action"] = call(
        "weather_inquiry", lat=25.2854, lon=51.531, date="2023-04-15")
    wrong_path = replay_dir / "bench_wrong_tool.json"
    wrong_path.write_text(json.dumps(corrupted, indent=1, sort_keys=True,
                                     ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {wrong_path}")

    # Agent replays for the ask command.
    doha_rain = {
        "emissions": [
            "numerical",
            call("geocode_mapping", region="Doha"),
            call("rain_inquiry", lat=25.2854, lon=51.531, date="2023-04-15"),
            "Doha received 12.0 mm of rainfall on 2023-04-15 [step 2].",
        ],
    }
    (replay_dir / "doha_rain.json").write_text(
        json.dumps(doha_rain, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {replay_dir / 'doha_rain.json'}")

    ungrounded = {
        "emissions": [
            "numerical",
            call("geocode_mapping", region="Doha"),
            call("rain_inquiry", lat=25.2854, lon=51.531, date="2023-04-15"),
            "Doha received 99.9 mm of rainfall on 2023-04-15 [step 2].",
        ],
    }
    (replay_dir / "doha_rain_ungrounded.json").write_text(
        json.dumps(ungrounded, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {replay_dir / 'doha_rain_ungrounded.json'}")


if __name__ == "__main__":
    main()
