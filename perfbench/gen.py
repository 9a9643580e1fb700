"""Seeded input generators for the benchmark workloads.

Every file the program reads during a run is made here from the workload
seed: a gridded product (forge-visual), a search corpus with the table of the
prompt-keyed fake backend (forge-text), and a tool-use instance suite with its
gold and corrupted replays and the fixture files its tools read (bench-*).

The seed changes values and choices, never sizes: every seed gives the same
number of windows, jobs, pages, keywords, instances and backend calls, so the
work one pass does is the same for every seed and throughput can be compared
across seeds.
"""

from __future__ import annotations

import json
import math
import random
import re
from datetime import date, timedelta
from pathlib import Path

from gulfclimate.geoforge.inventory import CityInventory
from gulfclimate.textforge.embedding import HashingEmbedder
from gulfclimate.textforge.keywords import DEFAULT_TAU, Keyword, KeywordIndex
from gulfclimate.toolkit import ToolCall, serialize_call
from gulfclimate.tools.web import query_key

RETRIEVED_AT = "2024-06-01T00:00:00Z"


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
                    encoding="utf-8")


def _config(workdir: Path, replay: str | None = None) -> None:
    doc: dict = {"provider": {"mode": "fixture", "fixture_root": "fixtures"},
                 "output_dir": "out", "seed": 0}
    if replay is not None:
        doc["backend"] = {"kind": "scripted", "replay": replay}
    _write_json(workdir / "config.json", doc)
    (workdir / "fixtures").mkdir(parents=True, exist_ok=True)


# -- forge-visual: gridded product ---------------------------------------------

GRID_START = date(2014, 1, 1)
GRID_STEP_DEG = 0.1
TRAILING_SPAN_DAYS = 3650  # segment_windows keeps the trailing ten years
WINDOW_DAYS = 90
WINDOW_RHO = 0.8
VISUAL_CATEGORIES = ("anomaly", "imputation")
QA_FORMATS = ("mcq", "tf", "open")
# Items per (window, category): one mcq, one open, and a true/false pair.
ITEMS_PER_CATEGORY = {"mcq": 1, "open": 1, "tf": 2}


def make_grid(workdir: Path, seed: int, years: int = 10, size: int = 5,
              missing_frac: float = 0.03) -> dict:
    """Daily temperature in kelvin on a ``size`` x ``size`` grid centred on a
    seeded inventory city; each cell misses a fixed share of its days, half
    as empty values and half as absent rows."""
    rng = random.Random(f"grid:{seed}")
    entry = rng.choice(list(CityInventory.default()))
    half = size // 2
    lats = [round(entry.location.lat + GRID_STEP_DEG * (k - half), 4) for k in range(size)]
    lons = [round(entry.location.lon + GRID_STEP_DEG * (k - half), 4) for k in range(size)]
    days = 365 * years
    day_text = [(GRID_START + timedelta(days=d)).isoformat() for d in range(days)]
    n_missing = round(days * missing_frac)

    lines = [
        "# gridded-fixture v1",
        "variable: temperature",
        "unit: K",
        "cadence: daily",
        "source: perfbench-grid",
        f"retrieved: {RETRIEVED_AT}",
        "lats: " + ",".join(repr(v) for v in lats),
        "lons: " + ",".join(repr(v) for v in lons),
        f"resolution_deg: {GRID_STEP_DEG}",
        "---",
    ]
    target_missing: set[int] = set()
    for i in range(size):
        for j in range(size):
            base = 300.0 + rng.uniform(-2.0, 2.0)
            amplitude = rng.uniform(6.0, 10.0)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            # First and last days stay present so the series span is fixed.
            missing = set(rng.sample(range(1, days - 1), n_missing))
            if (i, j) == (half, half):
                target_missing = missing
            for d in range(days):
                if d in missing:
                    if d % 2 == 0:
                        lines.append(f"{day_text[d]},{i},{j},")
                    continue
                value = (base + amplitude * math.sin(2.0 * math.pi * d / 365.25 + phase)
                         + rng.gauss(0.0, 0.8))
                lines.append(f"{day_text[d]},{i},{j},{value:.2f}")
    path = workdir / "grid.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    # The windows segment_windows must find, by its documented rule: anchor at
    # the first day of the trailing ten-year span, whole windows only, kept
    # when the share of present days reaches rho.
    anchor = max(0, (days - 1) - TRAILING_SPAN_DAYS)
    scanned = (days - anchor) // WINDOW_DAYS
    kept = 0
    for t in range(scanned):
        start = anchor + t * WINDOW_DAYS
        absent = sum(1 for d in range(start, start + WINDOW_DAYS) if d in target_missing)
        if (WINDOW_DAYS - absent) / WINDOW_DAYS >= WINDOW_RHO:
            kept += 1
    items_per_window = len(VISUAL_CATEGORIES) * sum(ITEMS_PER_CATEGORY[f] for f in QA_FORMATS)
    _config(workdir)
    return {
        "grid": str(path),
        "city": entry.city,
        "variable": "temperature",
        "cells": size * size,
        "windows_scanned": scanned,
        "windows_kept": kept,
        "charts": kept * (1 + len(VISUAL_CATEGORIES)),
        "items": kept * items_per_window,
    }


# -- forge-text: search corpus and fake-backend table ----------------------------

TOPICS = ("heatwave", "desalination", "dust", "flooding", "mangrove", "cooling",
          "groundwater", "pollution", "coral", "solar", "palms", "reuse",
          "drought", "sandstorm", "salinity", "emissions")
ASPECTS = ("policy", "report", "study", "plan", "survey", "assessment", "strategy",
           "monitoring", "guidelines", "programme", "audit", "roadmap", "review",
           "framework", "inventory", "forecast")
ORGS = (("Ministry", "gov.example.org"), ("Agency", "agency.example.org"),
        ("Institute", "institute.example.edu"), ("Observatory", "observatory.example.net"),
        ("Council", "council.example.org"), ("Authority", "authority.example.gov"))
SUBJECTS = ("Authorities", "Researchers", "Engineers", "Officials", "Inspectors",
            "Planners", "Analysts", "Scientists")
VERBS = ("recorded", "reported", "measured", "estimated", "documented", "tracked")
UNITS = ("hectares", "sites", "households", "stations", "kilometres", "facilities")
NOUNS = ("shoreline", "farmland", "wetlands", "aquifers", "reservoirs", "districts",
         "schools", "clinics", "beaches", "harbours", "orchards", "parks")
ADJECTIVES = ("regional", "national", "municipal", "coastal", "seasonal", "annual")
HEADINGS = ("Background", "Findings", "Measures", "Outlook", "Methods", "Impacts",
            "Funding", "Partners")
OFF_DOMAIN = (("Holiday packages and weekend deals", "Sun sand and shopping breaks"),
              ("Luxury watches for sale", "Exclusive discounts on timepieces"),
              ("Football league fixtures", "Match schedules and ticket offers"))

KEYWORDS_PER_JOB = 5         # distinct keywords proposed per job (all kept)
PAGES_PER_KEYWORD = 3
SECTIONS_PER_PAGE = 5
PARAGRAPHS_PER_SECTION = 2
SENTENCES_PER_PARAGRAPH = 6
QA_ITEMS_PER_DOC = 12        # 3 mcq + 3 open + 3 true/false pairs (fake backend)
QA_DROPPED_PER_DOC = 2       # one malformed mcq and one malformed open item


def _sentence(rng: random.Random, place: str, year: int) -> str:
    """Twelve whitespace tokens, a count then a year, one sentence, no clause joins."""
    return (f"{rng.choice(SUBJECTS)} {rng.choice(VERBS)} {rng.randint(12, 9800)} "
            f"{rng.choice(UNITS)} of {rng.choice(NOUNS)} in {place} during {year} "
            f"{rng.choice(ADJECTIVES)} {rng.choice(NOUNS)}.")


def _page_html(rng: random.Random, title: str, url: str, org: str, place: str,
               year: int) -> str:
    sections = []
    for heading in rng.sample(HEADINGS, SECTIONS_PER_PAGE):
        paragraphs = "\n".join(
            "<p>" + " ".join(_sentence(rng, place, year)
                             for _ in range(SENTENCES_PER_PARAGRAPH)) + "</p>"
            for _ in range(PARAGRAPHS_PER_SECTION))
        sections.append(f"<h2>{heading} overview</h2>\n{paragraphs}")
    body = "\n".join(sections)
    return (f"<!DOCTYPE html>\n<html><head>\n<title>{title}</title>\n"
            f'<meta name="date" content="{year}-0{rng.randint(1, 9)}-1{rng.randint(0, 9)}">\n'
            f'<meta name="organization" content="{org}">\n'
            f'<link rel="canonical" href="{url}">\n</head><body>\n'
            '<nav><a href="/">Home</a> <a href="/reports">Reports</a> '
            '<a href="/contact">Contact</a></nav>\n'
            f"<header><h1>{org} portal</h1></header>\n<article>\n{body}\n</article>\n"
            f"<footer>{year} {org}</footer>\n</body></html>\n")


def _distinct_keywords(rng: random.Random, topic: str, place: str,
                       embedder: HashingEmbedder) -> list[str]:
    """Keywords that the program's own index keeps, so kept counts are fixed."""
    while True:
        aspects = rng.sample(ASPECTS, KEYWORDS_PER_JOB)
        years = rng.sample(range(2012, 2025), KEYWORDS_PER_JOB)
        texts = [f"{topic} {a} {place} {y}" for a, y in zip(aspects, years)]
        index = KeywordIndex(dim=embedder.dim, tau=DEFAULT_TAU)
        if all(index.filter(Keyword(t, embedder.embed(t))).kept for t in texts):
            return texts


def make_corpus(workdir: Path, seed: int, jobs: int = 12, no_result_keywords: int = 2) -> dict:
    """A recorded search corpus, the fake backend's table and the job list.

    Per job: one topic under one (country, city) constraint; the backend
    proposes five distinct keywords plus one reordered duplicate that the
    keyword index drops. One keyword per job first returns off-domain results
    and needs a refined query. ``no_result_keywords`` keywords across all jobs
    have empty recorded result sets for both their query and its refinement.
    Every other keyword returns three on-domain pages.
    """
    rng = random.Random(f"corpus:{seed}")
    embedder = HashingEmbedder(dim=64)
    cities = list(CityInventory.default())
    queries: dict[str, dict] = {}
    pages: dict[str, dict] = {}
    expansions: dict[str, list[str]] = {}
    refinements: dict[str, str] = {}
    job_docs = []

    def record(query: str, results: list[dict]) -> None:
        queries[query_key(query)] = {"query": query, "results": results,
                                     "retrieved_at": RETRIEVED_AT}

    def on_domain(query: str, place: str, year: int) -> list[dict]:
        results = []
        for k in range(PAGES_PER_KEYWORD):
            org, domain = rng.choice(ORGS)
            slug = re.sub(r"[^a-z0-9]+", "-", query.casefold()).strip("-")
            url = f"https://{domain}/{slug}/{k}"
            title = f"{query.title()} {org} brief {k + 1}"
            pages[url] = {"content_type": "html",
                          "text": _page_html(rng, title, url, org, place, year)}
            results.append({"title": title, "url": url,
                            "snippet": f"{org} findings on {query}."})
        return results

    topics = rng.sample(TOPICS * (1 + jobs // len(TOPICS)), jobs)
    slots = [(j, k) for j in range(jobs) for k in range(1, KEYWORDS_PER_JOB)]
    no_result = set(rng.sample(slots, no_result_keywords))
    for j, topic in enumerate(topics):
        entry = rng.choice(cities)
        place = re.sub(r"[^a-z]", "", entry.city.casefold())
        keywords = _distinct_keywords(rng, topic, place, embedder)
        off_domain = 0  # position of the keyword that needs refinement
        urls = []
        for k, text in enumerate(keywords):
            year = int(text.rsplit(" ", 1)[1])
            refined = f"{text} gulf climate"
            if (j, k) in no_result:
                record(text, [])
                refinements[text] = refined
                record(refined, [])
            elif k == off_domain:
                record(text, [{"title": t, "url": f"https://offtopic.example.com/{j}/{n}",
                               "snippet": s} for n, (t, s) in enumerate(OFF_DOMAIN)])
                refinements[text] = refined
                results = on_domain(refined, place, year)
                record(refined, results)
                urls.extend(r["url"] for r in results)
            else:
                results = on_domain(text, place, year)
                record(text, results)
                urls.extend(r["url"] for r in results)
        m = rng.randrange(len(keywords))
        a, b, *rest = keywords[m].split()
        duplicate = " ".join([b, a, *rest])  # same bag of words: the index drops it
        proposed = list(keywords)
        proposed.insert(rng.randrange(m + 1, len(proposed) + 1), duplicate)
        where = ", ".join(p for p in (entry.city, entry.country) if p)
        expansions[f"{where}|{topic}"] = proposed
        n_failed_keywords = sum(1 for k in range(KEYWORDS_PER_JOB) if (j, k) in no_result)
        job_docs.append({
            "seeds": [topic],
            "constraint": [entry.country, entry.city],
            "keywords_proposed": len(proposed),
            "keywords_kept": KEYWORDS_PER_JOB,
            "keywords_no_results": n_failed_keywords,
            "documents": len(urls),
            "items": QA_ITEMS_PER_DOC * len(urls),
            "urls": urls,
        })

    _config(workdir)
    _write_json(workdir / "fixtures" / "online_search.json",
                {"version": 1, "queries": queries, "pages": pages})
    _write_json(workdir / "backend.json", {"expansions": expansions,
                                           "refinements": refinements})
    _write_json(workdir / "jobs.json", job_docs)
    return {"jobs": job_docs, "pages": len(pages), "queries": len(queries)}


# -- bench-*: instance suite, replays and tool fixtures ---------------------------

def call(tool: str, **args) -> str:
    return serialize_call(ToolCall(tool, args))


def fact(label: str = "", value=None) -> dict:
    return {"label": label, "value": value}


CAPITALS = {"Bahrain": "Manama", "Kuwait": "Kuwait City", "Oman": "Muscat",
            "Qatar": "Doha", "Saudi Arabia": "Riyadh", "UAE": "Abu Dhabi"}

# Template counts of the full suite; a smaller suite divides them.
SUITE_TEMPLATES = (("rain_chain", 8), ("weather_chain", 6), ("aqi_chain", 6),
                   ("aqi_direct", 4), ("forecast", 6), ("country", 4), ("capital", 4),
                   ("weather_analysis", 4), ("rain_analysis", 4), ("aqi_analysis", 4))
# (corruption, template, count) in the full suite; each corruption targets one
# metric. Smaller suites keep the first entry of each corruption.
SUITE_CORRUPTIONS = (("wrong_tool", "rain_chain", 2), ("wrong_tool", "weather_chain", 1),
                     ("bad_args", "aqi_chain", 1), ("bad_args", "rain_chain", 1),
                     ("bad_args", "aqi_direct", 1),
                     ("ungrounded", "weather_chain", 1), ("ungrounded", "forecast", 1),
                     ("ungrounded", "weather_analysis", 1), ("ungrounded", "aqi_analysis", 1))
FORECAST_DAYS = 5
ANALYSIS_YEARS = (2019, 2021, 2022, 2023)  # 365 days each, so series sizes do not vary
SWAP_TOOL = {"rain_inquiry": "weather_inquiry", "weather_inquiry": "rain_inquiry"}


class _Fixtures:
    """Rows of the fixture files the suite's tools read."""

    def __init__(self) -> None:
        self.rows: dict[str, list] = {name: [] for name in (
            "rain_inquiry", "weather_inquiry", "aqi_inquiry", "weather_forecast",
            "weather_analysis", "rain_analysis", "aqi_analysis")}

    def write(self, root: Path) -> None:
        for name, rows in self.rows.items():
            _write_json(root / f"{name}.json", {"version": 1, "rows": rows})


def _geocode_step(entry) -> tuple[dict, dict]:
    lat, lon = entry.location.lat, entry.location.lon
    gold = {"tool": "geocode_mapping", "arg_names": ["region"],
            "arg_values": {"region": entry.city},
            "summary_facts": [fact(entry.city.casefold()), fact("", lat), fact("", lon)]}
    replay = {"action": call("geocode_mapping", region=entry.city),
              "summary": f"{entry.city} resolves to lat {lat}, lon {lon} "
                         f"({entry.city}, {entry.country})."}
    return gold, replay


def _instance(rng: random.Random, template: str, n: int, entry, fx: _Fixtures,
              used_days: set) -> tuple[dict, dict, dict]:
    """One instance, its gold replay run, and the value its answer states."""
    lat, lon = entry.location.lat, entry.location.lon
    city = entry.city
    while True:
        day = date(2020, 1, 1) + timedelta(days=rng.randrange(4 * 365))
        if (city, day) not in used_days:
            used_days.add((city, day))
            break
    when = day.isoformat()
    iid = f"{template}-{n:03d}"
    steps: list[tuple[dict, dict]] = []
    extra: dict = {}

    if template in ("rain_chain", "weather_chain", "aqi_chain", "aqi_direct"):
        if template != "aqi_direct":
            steps.append(_geocode_step(entry))
        args = {"lat": lat, "lon": lon, "date": when}
        if template == "rain_chain":
            value = round(rng.uniform(0.5, 45.0), 1)
            fx.rows["rain_inquiry"].append({"date": when, "lat": lat, "lon": lon,
                                            "unit": "mm", "value": value})
            tool, label, unit = "rain_inquiry", "mm", "mm"
            query = f"How much rain fell in {city} on {when}?"
            stated = f"{city} received {{v}} mm of rain on {when} [step {{s}}]."
            summary = f"rain_inquiry returned {value} mm at {city} for {when}."
            allowed = ["geocode_mapping", "rain_inquiry", "weather_inquiry", "rain_analysis"]
        elif template == "weather_chain":
            value = round(rng.uniform(10.0, 90.0), 1)
            celsius = round(rng.uniform(18.0, 46.0), 2)
            fx.rows["weather_inquiry"].append({
                "date": when, "lat": lat, "lon": lon,
                "units": {"humidity": "%", "temperature": "K", "wind_speed": "m/s"},
                "values": {"humidity": value, "temperature": round(celsius + 273.15, 2),
                           "wind_speed": round(rng.uniform(0.5, 12.0), 1)}})
            tool, label, unit = "weather_inquiry", "humidity", "%"
            query = f"What was the relative humidity in {city} on {when}?"
            stated = f"The humidity in {city} on {when} was {{v}} % [step {{s}}]."
            summary = f"weather_inquiry returned humidity {value} % at {city} for {when}."
            allowed = ["geocode_mapping", "weather_inquiry", "rain_inquiry", "weather_forecast"]
        else:
            value = rng.randint(20, 260)
            fx.rows["aqi_inquiry"].append({
                "aqi": value, "date": when, "lat": lat, "lon": lon,
                "pollutant_unit": "µg/m³",
                "pollutants": {"no2": round(rng.uniform(5, 60), 1),
                               "o3": round(rng.uniform(20, 90), 1),
                               "pm10": round(rng.uniform(20, 250), 1),
                               "pm25": round(rng.uniform(5, 90), 1)}})
            tool, label, unit = "aqi_inquiry", "aqi", ""
            query = f"What was the AQI in {city} on {when}?"
            stated = f"The AQI in {city} on {when} was {{v}} [step {{s}}]."
            summary = f"aqi_inquiry returned AQI {value} for {city} on {when}."
            allowed = ["aqi_inquiry", "aqi_analysis", "geocode_mapping"]
        steps.append(({"tool": tool, "arg_names": ["date", "lat", "lon"], "arg_values": args,
                       "summary_facts": [fact(label, value)]},
                      {"action": call(tool, **args), "summary": summary}))
        facts = [fact(label, value)]
        if template == "rain_chain":
            facts.append(fact(city.casefold()))
    elif template == "forecast":
        values = [round(rng.uniform(20.0, 46.0), 1) for _ in range(7)]
        start = (day + timedelta(days=1)).isoformat()
        fx.rows["weather_forecast"].append({"city": city, "lat": lat, "lon": lon,
                                            "start": start, "unit": "°C", "values": values})
        days = FORECAST_DAYS
        value, label = values[0], "temperature"
        query = f"Chart the temperature forecast for {city} over the next {days} days."
        stated = f"The temperature forecast for {city} starts at {{v}} °C on {start} [step {{s}}]."
        args = {"lat": lat, "lon": lon, "days": days}
        steps.append(({"tool": "weather_forecast", "arg_names": ["days", "lat", "lon"],
                       "arg_values": args, "summary_facts": [fact(label, value)]},
                      {"action": call("weather_forecast", **args),
                       "summary": f"weather_forecast: {days}-day temperature series "
                                  f"starting at {value} °C."}))
        facts = [fact(label, value)]
        allowed = ["geocode_mapping", "weather_forecast", "weather_inquiry"]
        extra["requires_chart"] = True
    elif template in ("country", "capital"):
        if template == "country":
            query = f"Which Gulf country is {city} located in?"
            answer = entry.country
            final = f"{city} is located in {entry.country}."
        else:
            query = f"Name the capital city of {entry.country}."
            answer = CAPITALS[entry.country]
            final = f"The capital city of {entry.country} is {answer}."
        instance = {"id": iid, "query": query, "allowed_tools": ["online_search"],
                    "gold_trace": [], "answer_facts": [fact(answer.casefold())],
                    "requires_tools": False}
        return instance, {"steps": [], "final": final}, {"value": None, "stated": None}
    else:  # year-long range analysis after a geocode step
        tool = template
        year = rng.choice(ANALYSIS_YEARS)
        variable, unit, label = {"weather_analysis": ("temperature", "°C", "temperature"),
                                 "rain_analysis": ("precipitation", "mm", "rainfall"),
                                 "aqi_analysis": ("aqi", "index", "aqi")}[tool]
        records = []
        first = date(year, 1, 1)
        n_days = (date(year + 1, 1, 1) - first).days
        missing = set(rng.sample(range(1, n_days - 1), 6))
        for d in range(n_days):
            phase = 2.0 * math.pi * d / 365.25
            if tool == "weather_analysis":
                v = round(29.0 + 9.0 * math.sin(phase - 1.8) + rng.gauss(0.0, 1.2), 2)
            elif tool == "rain_analysis":
                v = round(rng.expovariate(0.15), 1) if rng.random() < 0.12 else 0.0
            else:
                v = float(max(10, int(90 + 40 * math.sin(phase) + rng.gauss(0.0, 18.0))))
            records.append({"date": (first + timedelta(days=d)).isoformat(),
                            "value": None if d in missing else v})
        fx.rows[tool].append({"city": city, "lat": lat, "lon": lon,
                              "unit": {"temperature": "°C", "precipitation": "mm",
                                       "aqi": "index"}[variable],
                              "records": records})
        value = max(r["value"] for r in records if r["value"] is not None)
        args = {"lat": lat, "lon": lon, "start": f"{year}-01-01", "end": f"{year}-12-31"}
        query = f"What was the maximum daily {label} in {city} during {year}?"
        stated = f"The maximum daily {label} in {city} during {year} was {{v}} {unit} [step {{s}}]."
        steps.append(_geocode_step(entry))
        steps.append(({"tool": tool, "arg_names": ["end", "lat", "lon", "start"],
                       "arg_values": args, "summary_facts": [fact(label, value)]},
                      {"action": call(tool, **args),
                       "summary": f"{tool}: maximum daily {label} {value} {unit} "
                                  f"in {city} over {year}."}))
        facts = [fact(label, value)]
        allowed = ["geocode_mapping", tool, "weather_inquiry"]

    instance = {"id": iid, "query": query, "allowed_tools": allowed,
                "gold_trace": [g for g, _ in steps], "answer_facts": facts, **extra}
    run = {"steps": [r for _, r in steps],
           "final": stated.format(v=value, s=len(steps))}
    return instance, run, {"value": value, "stated": stated, "n_steps": len(steps)}


def make_suite(workdir: Path, seed: int, divisor: int = 1) -> dict:
    """The instance suite, one replay with gold and corrupted runs, and the
    fixtures its tools read. ``divisor`` shrinks every template count."""
    rng = random.Random(f"suite:{seed}")
    cities = list(CityInventory.default())
    fx = _Fixtures()
    instances, runs, answers = [], {}, {}
    used_days: set = set()
    by_template: dict[str, list[str]] = {}
    analysis_cities = {t: rng.sample(cities, len(cities))
                       for t in ("weather_analysis", "rain_analysis", "aqi_analysis")}
    forecast_cities = rng.sample(cities, len(cities))
    for template, count in SUITE_TEMPLATES:
        for n in range(max(1, count // divisor)):
            if template in analysis_cities:
                entry = analysis_cities[template][n]  # one analysis row per city
            elif template == "forecast":
                entry = forecast_cities[n]
            else:
                entry = rng.choice(cities)
            instance, run, answer = _instance(rng, template, n, entry, fx, used_days)
            instances.append(instance)
            runs[instance["id"]] = run
            answers[instance["id"]] = answer
            by_template.setdefault(template, []).append(instance["id"])

    expect = {i["id"]: {"kind": "gold", "step": None,
                        "requires_chart": bool(i.get("requires_chart")),
                        "n_steps": len(i["gold_trace"])} for i in instances}
    corruptions = SUITE_CORRUPTIONS if divisor == 1 else \
        [(k, t, 1) for k, t, _ in {c[0]: c for c in reversed(SUITE_CORRUPTIONS)}.values()]
    taken: set[str] = set()
    for kind, template, count in corruptions:
        pool = [iid for iid in by_template[template] if iid not in taken]
        for iid in rng.sample(pool, count):
            taken.add(iid)
            run = runs[iid]
            step = len(run["steps"]) - 1  # the step that fetches the answer
            if kind == "wrong_tool":
                call_doc = json.loads(run["steps"][step]["action"].split("\n")[1])
                run["steps"][step]["action"] = call(SWAP_TOOL[call_doc["tool"]],
                                                    **call_doc["args"])
            elif kind == "bad_args":
                call_doc = json.loads(run["steps"][step]["action"].split("\n")[1])
                args = dict(call_doc["args"])
                args["latitude"] = args.pop("lat")
                run["steps"][step]["action"] = call(call_doc["tool"], **args)
            else:
                answer = answers[iid]
                wrong = answer["value"] + (7.5 if isinstance(answer["value"], float) else 7)
                run["final"] = answer["stated"].format(v=wrong, s=answer["n_steps"])
                step = None
            expect[iid] = {**expect[iid], "kind": kind, "step": step}

    _config(workdir, replay="replay.json")
    fx.write(workdir / "fixtures")
    (workdir / "instances.jsonl").write_text(
        "\n".join(json.dumps(i, sort_keys=True, ensure_ascii=False) for i in instances) + "\n",
        encoding="utf-8")
    _write_json(workdir / "replay.json", {"runs": runs})
    _write_json(workdir / "expect.json", expect)
    return {"instances": len(instances), "expect": expect}
