"""End-to-end dataset forges wiring the stage modules together.

A scripted replay backend hands out its emissions in call order, so each
forge fixes the order in which it calls the backend:

- ``forge_text``: keyword expansion (one emission per constraint), then
  keyword by keyword the retrieval refinements (one per off-domain round),
  then document by document fact induction (one per chunk) and QA synthesis
  (one per requested format).
- ``forge_visual``: window by window, then category by category, one
  emission per requested format, in order, for the backend categories
  (``forecasting``, ``reasoning``); a window with a malformed emission still
  consumes all of its emissions. ``anomaly`` and ``imputation`` items are
  built without the backend.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from pathlib import Path

from .core import GeoPoint
from .errors import ConfigError
from .geoforge.charts import EmptySlice, build_chart, metadata_to_jsonable
from .geoforge.gridded import GriddedProduct, extract_series
from .geoforge.gridmatch import nearest_grid_cell
from .geoforge.inventory import CityInventory
from .geoforge.visualqa import VisualQAError, check_categories, synthesize_visual_qa
from .geoforge.windows import segment_windows, window_slice
from .textforge.chunking import chunk, tokenize
from .textforge.facts import induce_facts
from .textforge.keywords import KeywordIndex, expand_keywords
from .textforge.parsing import parse_document
from .textforge.qa import QASynthesisError, synthesize_qa, write_dataset
from .textforge.retrieval import DomainPolicy, NoRelevantResults, retrieve_documents
from .tools.providers import FixtureStore
from .tools.web import FixtureSearch


def _section_breaks(text: str) -> tuple[list[int], list[tuple[int, str]]]:
    """Token indices of section starts and (index, header) markers."""
    breaks: list[int] = []
    headers: list[tuple[int, str]] = []
    position = 0
    for line in text.splitlines():
        tokens = line.split()
        if line.startswith("## "):
            breaks.append(position)
            headers.append((position, line[3:].strip()))
        position += len(tokens)
    return breaks, headers


def forge_text(seeds: list[str], constraints: list[tuple[str | None, str | None]],
               backend, fixture_root: Path | None, out_dir: Path,
               formats: tuple[str, ...] = ("mcq", "tf", "open"),
               tau: float = 0.85, embedding_dim: int = 64,
               max_rounds: int = 2) -> dict:
    """Run the textual pipeline over the recorded search corpus.

    Returns summary counts; writes ``qa_text.jsonl`` (items with resolved
    provenance) and the persisted keyword index under ``out_dir``.
    """
    if fixture_root is None:
        raise ConfigError("forge text currently requires a fixture search provider")
    search = FixtureSearch(FixtureStore(fixture_root))
    out_dir.mkdir(parents=True, exist_ok=True)

    index = KeywordIndex(dim=embedding_dim, tau=tau)
    kept = expand_keywords(seeds, constraints, backend, index)

    docs_by_url: dict[str, tuple] = {}
    skipped_keywords = 0
    for keyword in kept:
        try:
            retrieved = retrieve_documents(keyword, search, backend,
                                           max_rounds=max_rounds,
                                           policy=DomainPolicy())
        except NoRelevantResults:
            skipped_keywords += 1
            continue
        for doc in retrieved:
            docs_by_url.setdefault(doc.url, doc)

    counters: Counter = Counter()
    all_items = []
    facts_by_id: dict = {}
    chunks_by_id: dict = {}
    n_chunks = 0
    for url, doc in docs_by_url.items():
        text, meta = parse_document(doc.raw, kind="html")
        tokens = tokenize(text)
        breaks, headers = _section_breaks(text)

        def section_lookup(start: int, _headers=tuple(headers)) -> tuple[str, ...]:
            active = [h for pos, h in _headers if pos <= start]
            return (active[-1],) if active else ()

        doc_chunks = chunk(tokens, doc_id=url, provenance=doc.provenance,
                           breaks=breaks, section_lookup=section_lookup)
        n_chunks += len(doc_chunks)
        doc_facts = []
        for c in doc_chunks:
            chunks_by_id[c.chunk_id] = c
            for fact in induce_facts(c, backend):
                facts_by_id[fact.fact_id] = fact
                doc_facts.append(fact)
        if not doc_facts:
            counters["documents_without_facts"] += 1
            continue
        for fmt in formats:
            all_items.extend(synthesize_qa(doc_facts, fmt, backend, counters=counters))

    dataset_path = out_dir / "qa_text.jsonl"
    written = write_dataset(all_items, facts_by_id, chunks_by_id, dataset_path)
    index_path = out_dir / "keyword_index.jsonl"
    index.save(index_path)

    return {
        "keywords_kept": len(kept),
        "keywords_skipped": skipped_keywords,
        "documents": len(docs_by_url),
        "chunks": n_chunks,
        "facts": len(facts_by_id),
        "items_written": written,
        "dropped": dict(sorted(counters.items())),
        "dataset": str(dataset_path),
        "keyword_index": str(index_path),
    }


def forge_visual(gridded_path: Path, city: str, variable: str, out_dir: Path,
                 categories: tuple[str, ...] = ("anomaly", "imputation"),
                 formats: tuple[str, ...] = ("mcq",),
                 backend=None, seed: int = 0, rho: float = 0.8,
                 delta_days: int = 90,
                 inventory: CityInventory | None = None) -> dict:
    """Run the visual-temporal pipeline over one gridded product.

    Writes charts (SVG + CSV + a colocated metadata CSV) and
    ``qa_visual.jsonl`` under ``out_dir``; returns summary counts. A window
    whose items for one category cannot be made (too few values to perturb,
    nothing left to chart, a malformed backend emission) counts under
    ``dropped`` as ``<category>_windows_dropped`` and the job goes on.
    """
    check_categories(categories, backend)
    inventory = inventory or CityInventory.default()
    entry = inventory.lookup(city)
    product = GriddedProduct.from_file(gridded_path)
    cell = nearest_grid_cell(entry.location, product.grid)
    series = extract_series(product, cell, variable, city=entry.city)
    windows = segment_windows(series, delta_days=delta_days, rho=rho)
    provenance = product.provenance(cell)

    out_dir.mkdir(parents=True, exist_ok=True)
    charts_dir = out_dir / "charts"
    charts_dir.mkdir(exist_ok=True)

    counters: Counter = Counter()
    chart_store: dict = {}
    evidence_store: dict = {}
    items = []
    for window in windows:
        window_series = window_slice(series, window)
        artifact = build_chart(window_series, window, entry.city, variable,
                               provenance=provenance)
        chart_store[artifact.chart_id] = artifact
        for category in categories:
            try:
                items.extend(synthesize_visual_qa(
                    artifact, category, formats, backend,
                    seed=seed + window.index,
                    series=window_series,
                    chart_store=chart_store,
                    evidence_store=evidence_store,
                    counters=counters,
                ))
            except (VisualQAError, EmptySlice, QASynthesisError):
                counters[f"{category}_windows_dropped"] += 1

    metadata_rows = []
    for chart_id in sorted(chart_store):
        artifact = chart_store[chart_id]
        (charts_dir / f"{chart_id}.svg").write_text(artifact.svg, encoding="utf-8")
        (charts_dir / f"{chart_id}.csv").write_text(artifact.data_csv, encoding="utf-8")
        metadata_rows.append(metadata_to_jsonable(artifact.metadata) | {"chart_id": chart_id})

    meta_path = charts_dir / "metadata.csv"
    with open(meta_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["chart_id", "city", "variable", "unit", "span_start",
                         "span_end", "count", "min", "max", "mean", "std",
                         "slope_per_day"])
        for row in metadata_rows:
            writer.writerow([row["chart_id"], row["city"], row["variable"],
                             row["unit"], row["span"][0], row["span"][1],
                             row["count"], repr(row["min"]), repr(row["max"]),
                             repr(row["mean"]), repr(row["std"]),
                             repr(row["slope_per_day"])])

    facts_by_id = {fid: fact for fid, (fact, _chunk) in evidence_store.items()}
    chunks_by_id = {chunk.chunk_id: chunk for _fid, (_fact, chunk) in evidence_store.items()}
    dataset_path = out_dir / "qa_visual.jsonl"
    written = write_dataset(items, facts_by_id, chunks_by_id, dataset_path)

    return {
        "city": entry.city,
        "variable": variable,
        "grid_cell": list(cell),
        "windows_kept": len(windows),
        "charts": len(chart_store),
        "items_written": written,
        "dropped": dict(sorted(counters.items())),
        "dataset": str(dataset_path),
        "charts_dir": str(charts_dir),
        "metadata_csv": str(meta_path),
    }
