#!/usr/bin/env python3
"""Regenerate the checked-in fixture files under fixtures/.

Fixture values are planted constants; regeneration is deterministic so the
files can be reviewed as diffs.
"""

from __future__ import annotations

import json
import math
import random
from datetime import date, timedelta
from pathlib import Path

from gulfclimate.tools.web import query_key

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

DOHA = (25.2854, 51.5310)
KUWAIT = (29.3759, 47.9774)
DUBAI = (25.2048, 55.2708)


def write(name: str, doc: dict) -> None:
    FIXTURES.mkdir(exist_ok=True)
    path = FIXTURES / name
    path.write_text(json.dumps(doc, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")


def daily_values(n: int, base: float, amplitude: float, period: float,
                 decimals: int = 2) -> list[float]:
    return [round(base + amplitude * math.sin(2 * math.pi * i / period), decimals)
            for i in range(n)]


def analysis_rows(lat: float, lon: float, city: str, variable_unit: str,
                  start: date, values: list[float | None]) -> dict:
    return {
        "lat": lat, "lon": lon, "city": city, "unit": variable_unit,
        "records": [
            {"date": (start + timedelta(days=i)).isoformat(), "value": v}
            for i, v in enumerate(values)
        ],
    }


GRIDDED_NAME = "gridded_temperature.txt"


def gridded_fixture_text() -> str:
    """Two years of daily temperature (kelvin) on a 3x3 grid around Doha.

    Cell (1, 1) is Doha's nearest cell. Every cell has scattered empty values
    and absent rows; the Doha cell also misses a 30-day run in its third
    90-day window, which therefore falls below the default completeness.
    """
    rng = random.Random(20230415)
    start = date(2022, 1, 1)
    days = 730
    lats = (25.2, 25.3, 25.4)
    lons = (51.4, 51.5, 51.6)
    lines = [
        "# gridded-fixture v1",
        "variable: temperature",
        "unit: K",
        "cadence: daily",
        "source: fixture-grid",
        "retrieved: 2024-01-15T00:00:00Z",
        "lats: " + ",".join(repr(v) for v in lats),
        "lons: " + ",".join(repr(v) for v in lons),
        "resolution_deg: 0.1",
        "---",
    ]
    for i in range(len(lats)):
        for j in range(len(lons)):
            base = 300.0 + i - j
            for d in range(days):
                # The first and last days stay present so every span is fixed.
                interior = 0 < d < days - 1
                if interior and (d % 53 == 7 or ((i, j) == (1, 1) and 200 <= d < 230)):
                    continue
                day = (start + timedelta(days=d)).isoformat()
                if interior and d % 37 == 11:
                    lines.append(f"{day},{i},{j},")
                    continue
                value = base + 8.0 * math.sin(2 * math.pi * d / 365.25) + rng.gauss(0.0, 0.8)
                lines.append(f"{day},{i},{j},{value:.2f}")
    return "\n".join(lines) + "\n"


def main() -> None:
    # Gridded product for the visual forge -------------------------------------
    FIXTURES.mkdir(exist_ok=True)
    (FIXTURES / GRIDDED_NAME).write_text(gridded_fixture_text(), encoding="utf-8")
    print(f"wrote {FIXTURES / GRIDDED_NAME}")

    # Point inquiries -------------------------------------------------------
    write("rain_inquiry.json", {"version": 1, "rows": [
        {"lat": DOHA[0], "lon": DOHA[1], "date": "2023-04-15", "value": 12.0, "unit": "mm"},
        {"lat": DOHA[0], "lon": DOHA[1], "date": "2023-04-16", "value": 0.0, "unit": "mm"},
        {"lat": KUWAIT[0], "lon": KUWAIT[1], "date": "2023-04-15", "value": 3.4, "unit": "mm"},
        {"lat": DUBAI[0], "lon": DUBAI[1], "date": "2023-04-15", "value": 8.2, "unit": "mm"},
    ]})
    write("weather_inquiry.json", {"version": 1, "rows": [
        {"lat": DOHA[0], "lon": DOHA[1], "date": "2023-04-15",
         "values": {"temperature": 305.15, "wind_speed": 4.2, "humidity": 38.0},
         "units": {"temperature": "K", "wind_speed": "m/s", "humidity": "%"}},
        {"lat": KUWAIT[0], "lon": KUWAIT[1], "date": "2023-04-15",
         "values": {"temperature": 307.65, "wind_speed": 6.1, "humidity": 22.0},
         "units": {"temperature": "K", "wind_speed": "m/s", "humidity": "%"}},
    ]})
    write("aqi_inquiry.json", {"version": 1, "rows": [
        {"lat": DOHA[0], "lon": DOHA[1], "date": "2023-04-15", "aqi": 87,
         "pollutants": {"pm25": 38.0, "pm10": 101.0, "no2": 22.0, "o3": 61.0},
         "pollutant_unit": "µg/m³"},
        {"lat": KUWAIT[0], "lon": KUWAIT[1], "date": "2023-04-15", "aqi": 134,
         "pollutants": {"pm25": 55.5, "pm10": 188.0, "no2": 31.0, "o3": 48.0},
         "pollutant_unit": "µg/m³"},
    ]})

    # Forecasts --------------------------------------------------------------
    write("weather_forecast.json", {"version": 1, "rows": [
        {"lat": DOHA[0], "lon": DOHA[1], "city": "Doha", "unit": "°C",
         "start": "2023-04-16",
         "values": [33.0, 34.5, 32.8, 31.0, 30.2, 29.9, 31.5]},
    ]})
    write("rain_prediction.json", {"version": 1, "rows": [
        {"lat": DOHA[0], "lon": DOHA[1], "city": "Doha", "unit": "mm",
         "start": "2023-04-16",
         "values": [0.0, 2.5, 11.0, 0.0, 0.0, 1.2, 0.0]},
    ]})
    write("aqi_prediction.json", {"version": 1, "rows": [
        {"lat": DOHA[0], "lon": DOHA[1], "city": "Doha", "unit": "index",
         "start": "2023-04-16",
         "values": [90.0, 95.0, 88.0, 102.0, 97.0, 85.0, 91.0]},
    ]})
    write("uv_index_forecast.json", {"version": 1, "rows": [
        {"lat": DOHA[0], "lon": DOHA[1], "city": "Doha", "unit": "index",
         "start": "2023-04-16",
         "values": [9.0, 10.0, 11.0, 10.5, 9.5, 9.0, 8.5]},
    ]})
    write("pollen_forecast.json", {"version": 1, "rows": [
        {"lat": DOHA[0], "lon": DOHA[1], "city": "Doha", "unit": "index",
         "start": "2023-04-16",
         "values": [2.0, 3.0, 3.5, 2.5, 2.0, 1.5, 1.0]},
    ]})

    # Range analyses: 90 planted days starting 2023-01-01 --------------------
    start = date(2023, 1, 1)
    temps = daily_values(90, base=24.0, amplitude=6.0, period=30.0)
    rains = [0.0] * 90
    for i, v in ((4, 14.5), (33, 3.0), (34, 22.0), (60, 7.7)):
        rains[i] = v
    aqis = daily_values(90, base=80.0, amplitude=25.0, period=45.0, decimals=1)
    write("weather_analysis.json", {"version": 1, "rows": [
        analysis_rows(DOHA[0], DOHA[1], "Doha", "°C", start, temps)]})
    write("rain_analysis.json", {"version": 1, "rows": [
        analysis_rows(DOHA[0], DOHA[1], "Doha", "mm", start, rains)]})
    write("aqi_analysis.json", {"version": 1, "rows": [
        analysis_rows(DOHA[0], DOHA[1], "Doha", "index", start, aqis)]})

    # River discharge over a masked grid --------------------------------------
    lats = [25.0, 25.1, 25.2, 25.3]
    lons = [51.3, 51.4, 51.5, 51.6]
    mask = [[0, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 1, 1, 0],
            [0, 0, 0, 0]]
    rows = []
    for d, value in (("2023-04-14", 210.0), ("2023-04-15", 230.0), ("2023-04-16", 195.0)):
        rows.append({"i": 2, "j": 2, "date": d, "value": value, "unit": "m3/s"})
        rows.append({"i": 1, "j": 1, "date": d, "value": value * 0.5, "unit": "m3/s"})
        rows.append({"i": 2, "j": 1, "date": d, "value": value * 0.8, "unit": "m3/s"})
    write("river_discharge_check.json", {
        "version": 1,
        "grid": {"lats": lats, "lons": lons, "resolution_deg": 0.1, "river_mask": mask},
        "rows": rows,
    })

    # Satellite imagery: two dates over the same 4x4 scene ---------------------
    green = [[0.12, 0.15, 0.11, 0.14],
             [0.16, 0.13, 0.12, 0.15],
             [0.14, 0.12, 0.13, 0.16],
             [0.11, 0.15, 0.14, 0.12]]
    vegetated = {
        "red": [[0.10, 0.12, 0.08, 0.11],
                [0.09, 0.10, 0.12, 0.07],
                [0.11, 0.09, 0.10, 0.12],
                [0.08, 0.11, 0.09, 0.10]],
        "green": green,
        "nir": [[0.50, 0.55, 0.48, 0.52],
                [0.47, 0.51, 0.58, 0.49],
                [0.53, 0.46, 0.50, 0.55],
                [0.44, 0.52, 0.47, 0.51]],
    }
    bare = {
        "red": [[0.30, 0.32, 0.28, 0.31],
                [0.29, 0.30, 0.32, 0.27],
                [0.31, 0.29, 0.30, 0.32],
                [0.28, 0.31, 0.29, 0.30]],
        "green": green,
        "nir": [[0.33, 0.34, 0.30, 0.33],
                [0.31, 0.32, 0.34, 0.29],
                [0.33, 0.31, 0.32, 0.34],
                [0.30, 0.33, 0.31, 0.32]],
    }
    write("get_satellite_image.json", {"version": 1, "rows": [
        {"lat": 25.29, "lon": 51.53, "date": "2020-01-15", "width": 4, "height": 4,
         "pixel_size_m": 10.0, "bands": vegetated},
        {"lat": 25.29, "lon": 51.53, "date": "2023-01-15", "width": 4, "height": 4,
         "pixel_size_m": 10.0, "bands": bare},
    ]})

    # Biodiversity stubs --------------------------------------------------------
    write("detect_bird.json", {"version": 1, "rows": [
        {"ref": "audio_0001", "candidates": [["greater flamingo", 0.92],
                                             ["western reef heron", 0.05],
                                             ["crab-plover", 0.02]]},
        {"ref": "audio_0002", "candidates": [["crested lark", 0.81],
                                             ["white-eared bulbul", 0.11]]},
    ]})
    write("detect_species.json", {"version": 1, "rows": [
        {"ref": "img_0001", "candidates": [["ghaf tree", 0.88],
                                           ["date palm", 0.07],
                                           ["sidr tree", 0.03]]},
        {"ref": "img_0002", "candidates": [["arabian oryx", 0.95],
                                           ["sand gazelle", 0.04]]},
    ]})

    # Carbon factors -------------------------------------------------------------
    (FIXTURES / "carbon_factors.csv").write_text(
        "country,industry,year,factor\n"
        "Qatar,energy,2022,0.5\n"
        "Qatar,construction,2022,0.21\n"
        "UAE,energy,2022,0.47\n"
        "UAE,construction,2022,0.19\n"
        "Saudi Arabia,energy,2022,0.55\n"
        "Kuwait,energy,2022,0.52\n"
        "Bahrain,energy,2022,0.44\n"
        "Oman,energy,2022,0.41\n",
        encoding="utf-8",
    )
    print(f"wrote {FIXTURES / 'carbon_factors.csv'}")

    # Recorded search + pages (shared by the search tool and the text forge) -----
    page_heatwave = """<!DOCTYPE html>
<html><head>
<title>Qatar National Heatwave Preparedness Plan</title>
<meta name="date" content="2023-06-01">
<meta name="organization" content="Ministry of Environment and Climate Change">
<link rel="canonical" href="https://mecc.gov.qa/heatwave-plan">
</head><body>
<nav><a href="/">Home</a> <a href="/plans">Plans</a> <a href="/contact">Contact</a></nav>
<header><h1>Ministry portal</h1></header>
<article>
<h2>Heatwave preparedness</h2>
<p>The national heatwave plan activates when forecast temperatures exceed 46 °C for
two consecutive days. Outdoor work is suspended between 11:30 and 15:00 from June
through mid-September. Cooling centres open in Doha and Al Rayyan municipalities.</p>
<h2>Health advisories</h2>
<p>Hospitals report a 30 percent rise in heat-stress admissions during July 2022.
The plan directs employers to provide shaded rest areas and water every 45 minutes.
Public alerts are issued through SMS in Arabic, English, Hindi, and Urdu.</p>
<h2>Dust storm coordination</h2>
<p>Dust storm advisories are coordinated with the Civil Aviation Authority. Schools
close when visibility drops below 500 metres. N95 masks are distributed to outdoor
workers during prolonged dust events.</p>
</article>
<footer>© 2023 Ministry of Environment and Climate Change</footer>
</body></html>
"""
    page_flood = """<!DOCTYPE html>
<html><head>
<title>UAE Flash Flood Response Review 2024</title>
<meta name="date" content="2024-05-20">
<meta name="organization" content="National Emergency Crisis and Disasters Management Authority">
</head><body>
<nav><a href="/">Home</a></nav>
<article>
<h2>April 2024 storm</h2>
<p>The April 2024 storm delivered 254 millimetres of rain to Al Ain within 24 hours,
the heaviest daily total on record for the UAE. Dubai International Airport recorded
142 millimetres, disrupting operations for 3 days.</p>
<h2>Response measures</h2>
<p>Pump capacity in Dubai was expanded by 40 percent after the event. A federal
stormwater masterplan allocates 30 billion dirhams to drainage upgrades through 2033.</p>
</article>
</body></html>
"""
    queries = {}
    for query, retrieved_at, results in [
        ("heatwave preparedness Qatar Doha", "2024-06-01T00:00:00Z", [
            {"title": "Qatar National Heatwave Preparedness Plan",
             "url": "https://mecc.gov.qa/heatwave-plan",
             "snippet": "National heatwave plan: thresholds, outdoor work suspension, cooling centres in Doha."},
            {"title": "Buy beach umbrellas online",
             "url": "https://shop.example.com/umbrellas",
             "snippet": "Great deals on umbrellas and parasols."},
        ]),
        ("dust storm health advisory Qatar Doha", "2024-06-01T00:00:00Z", [
            {"title": "Qatar National Heatwave Preparedness Plan",
             "url": "https://mecc.gov.qa/heatwave-plan",
             "snippet": "Dust storm advisories, school closures, N95 distribution for outdoor workers in Doha."},
        ]),
        ("flash flood response UAE Dubai", "2024-06-01T00:00:00Z", [
            {"title": "UAE Flash Flood Response Review 2024",
             "url": "https://ncema.gov.ae/flood-review-2024",
             "snippet": "Review of the April 2024 storm: rainfall records, drainage upgrades in Dubai."},
        ]),
        ("adaptation heat policy Kuwait", "2024-06-01T00:00:00Z", [
            {"title": "Holiday packages Kuwait",
             "url": "https://travel.example.com/kuwait",
             "snippet": "Sun, sand, and shopping breaks."},
        ]),
        ("heat adaptation plan Kuwait City municipality", "2024-06-01T00:00:00Z", [
            {"title": "Qatar National Heatwave Preparedness Plan",
             "url": "https://mecc.gov.qa/heatwave-plan",
             "snippet": "Regional heat adaptation measures referenced by Kuwait City municipality plan."},
        ]),
    ]:
        queries[query_key(query)] = {"query": query, "retrieved_at": retrieved_at, "results": results}
    write("online_search.json", {
        "version": 1,
        "queries": queries,
        "pages": {
            "https://mecc.gov.qa/heatwave-plan": {"content_type": "html", "text": page_heatwave},
            "https://ncema.gov.ae/flood-review-2024": {"content_type": "html", "text": page_flood},
        },
    })


if __name__ == "__main__":
    main()
