"""End-to-end dataset forges wiring the stage modules together.

A scripted replay backend hands out its emissions in call order, so each
forge fixes the order in which it calls the backend:

- ``forge_text``: keyword expansion (one emission per constraint), then
  keyword by keyword the retrieval refinements (one per off-domain round; a
  round whose query or page has no recording ends its keyword), then
  document by document fact induction (one per chunk) and QA synthesis (one
  per requested format). A document with no content left after cleaning
  consumes no emission; a malformed QA emission is still consumed.
- ``forge_visual``: window by window, then category by category, one
  emission per requested format, in order, for the backend categories
  (``forecasting``, ``reasoning``); a window with a malformed emission still
  consumes all of its emissions. ``anomaly`` and ``imputation`` items are
  built without the backend.
"""

from __future__ import annotations

import functools
from collections import Counter
from pathlib import Path

from .core.csvio import format_row
from .core.timeutil import format_timestamp
from .errors import ConfigError
from .geoforge.charts import EmptySlice, build_chart
from .geoforge.gridded import GriddedProduct, extract_series
from .geoforge.inventory import CityInventory
from .geoforge.visualqa import VisualQAError, check_categories, synthesize_visual_qa
from .geoforge.windows import segment_windows, window_slice
from .textforge.chunking import chunk
from .textforge.facts import induce_facts
from .textforge.keywords import KeywordIndex, expand_keywords
from .textforge.parsing import EmptyAfterCleaning, parse_document
from .textforge.qa import FORMATS, QASynthesisError, synthesize_qa, write_dataset
from .textforge.retrieval import NoRelevantResults, retrieve_documents
from .tools.errors import ProviderFailure
from .tools.providers import FixtureStore
from .tools.web import FixtureSearch

# Dimension of the keyword embeddings a job's index stores.
EMBEDDING_DIM = 64

# Distinct fixture roots a process keeps parsed at once.
_FIXTURE_ROOTS_CACHED = 4


def _check_formats(formats: tuple[str, ...]) -> None:
    """Reject a QA format that neither forge can build, or one named twice
    (its items would be written twice under the same ids)."""
    unknown = sorted(set(formats) - set(FORMATS))
    if unknown:
        raise ConfigError(f"unknown QA formats {unknown}; choose from {FORMATS}")
    if len(set(formats)) != len(formats):
        raise ConfigError(f"repeated QA formats in {list(formats)}")


@functools.lru_cache(maxsize=_FIXTURE_ROOTS_CACHED)
def _fixture_search(root: Path) -> FixtureSearch:
    """One store per fixture root per process, so every job of a process
    parses the recorded search corpus once. A file changed under a root after
    a job has read it is not seen again by later jobs in the same process."""
    return FixtureSearch(FixtureStore(root))


def forge_text(seeds: list[str], constraints: list[tuple[str | None, str | None]],
               backend, fixture_root: Path | None, out_dir: Path,
               formats: tuple[str, ...] = ("mcq", "tf", "open")) -> dict:
    """Run the textual pipeline over the recorded search corpus.

    Returns summary counts; writes ``qa_text.jsonl`` (items with resolved
    provenance) and the persisted keyword index under ``out_dir``. Each page
    is parsed once, by :func:`parse_document`, into the word tokens of its
    content and the token indices where its sections start; the tokens are
    chunked, and the section starts only steer where chunk starts snap.

    One bad input drops only its own part of the job, counted under
    ``dropped``: a keyword whose query or page has no recording
    (``keywords_provider_failure``), a page with no content after cleaning
    (``documents_empty_after_cleaning``) and one malformed QA emission
    (``<format>_documents_dropped``). A keyword whose every round is
    off-domain counts under ``keywords_skipped``.
    """
    if fixture_root is None:
        raise ConfigError("forge text currently requires a fixture search provider")
    _check_formats(formats)
    search = _fixture_search(Path(fixture_root).resolve())
    out_dir.mkdir(parents=True, exist_ok=True)

    index = KeywordIndex(dim=EMBEDDING_DIM)
    kept = expand_keywords(seeds, constraints, backend, index)

    counters: Counter = Counter()
    docs_by_url: dict[str, tuple] = {}
    skipped_keywords = 0
    for keyword in kept:
        try:
            retrieved = retrieve_documents(keyword, search, backend)
        except NoRelevantResults:
            skipped_keywords += 1
            continue
        except ProviderFailure:
            counters["keywords_provider_failure"] += 1
            continue
        for doc in retrieved:
            docs_by_url.setdefault(doc.url, doc)

    all_items = []
    facts_by_id: dict = {}
    n_chunks = 0
    for url, doc in docs_by_url.items():
        try:
            tokens, breaks = parse_document(doc.text)
        except EmptyAfterCleaning:
            counters["documents_empty_after_cleaning"] += 1
            continue
        doc_chunks = chunk(tokens, doc_id=url, provenance=doc.provenance, breaks=breaks)
        n_chunks += len(doc_chunks)
        doc_facts = []
        for c in doc_chunks:
            for fact in induce_facts(c, backend):
                facts_by_id[fact.fact_id] = fact
                doc_facts.append(fact)
        if not doc_facts:
            counters["documents_without_facts"] += 1
            continue
        for fmt in formats:
            try:
                all_items.extend(synthesize_qa(doc_facts, fmt, backend, counters=counters))
            except QASynthesisError:
                counters[f"{fmt}_documents_dropped"] += 1

    dataset_path = out_dir / "qa_text.jsonl"
    written = write_dataset(all_items, facts_by_id, dataset_path)
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
                 backend=None, seed: int = 0, rho: float = 0.8) -> dict:
    """Run the visual-temporal pipeline over one gridded product.

    The product is loaded for the grid cell nearest ``city``: every row of
    the file is checked, but only that cell's rows are kept. Writes charts
    (SVG + CSV + a colocated metadata CSV) and ``qa_visual.jsonl`` under
    ``out_dir``; returns summary counts. The charts
    are each window's chart plus the chart and evidence fact that every
    :func:`synthesize_visual_qa` call returns; they are written in one pass
    over the sorted chart ids, each chart's SVG, its CSV and its row of
    ``metadata.csv``. An unknown or repeated category raises
    ``VisualQAError`` and an unknown or repeated format ``ConfigError`` (as in
    :func:`forge_text`), before any file is written. A window whose items for
    one category cannot be made (too few values to perturb, nothing left to
    chart, a malformed backend emission) counts under ``dropped`` as
    ``<category>_windows_dropped`` and the job goes on; an item that fails
    structural validation counts as ``dropped_<reason>``, such as
    ``dropped_too_few_options``.
    """
    check_categories(categories, backend)
    _check_formats(formats)
    entry = CityInventory.default().lookup(city)
    product = GriddedProduct.from_file(gridded_path, entry.location)
    series = extract_series(product, variable, city=entry.city)
    windows = segment_windows(series, rho=rho)
    provenance = product.provenance()

    out_dir.mkdir(parents=True, exist_ok=True)
    charts_dir = out_dir / "charts"
    charts_dir.mkdir(exist_ok=True)

    counters: Counter = Counter()
    charts: dict = {}
    facts_by_id: dict = {}
    items = []
    for window in windows:
        window_series = window_slice(series, window)
        artifact = build_chart(window_series, window, entry.city, variable,
                               provenance=provenance)
        charts[artifact.chart_id] = artifact
        for category in categories:
            try:
                made, chart, fact = synthesize_visual_qa(
                    artifact, category, formats, backend,
                    seed=seed + window.index, series=window_series, counters=counters)
            except (VisualQAError, EmptySlice, QASynthesisError):
                counters[f"{category}_windows_dropped"] += 1
                continue
            items.extend(made)
            charts[chart.chart_id] = chart
            facts_by_id[fact.fact_id] = fact

    meta_path = charts_dir / "metadata.csv"
    with open(meta_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_row(["chart_id", "city", "variable", "unit", "span_start",
                             "span_end", "count", "min", "max", "mean", "std",
                             "slope_per_day"]))
        for chart_id in sorted(charts):
            chart = charts[chart_id]
            (charts_dir / f"{chart_id}.svg").write_text(chart.svg, encoding="utf-8")
            (charts_dir / f"{chart_id}.csv").write_text(chart.data_csv, encoding="utf-8")
            meta = chart.metadata
            fh.write(format_row([chart_id, meta.city, meta.variable, meta.unit,
                                 format_timestamp(meta.span_start),
                                 format_timestamp(meta.span_end), meta.count,
                                 repr(meta.vmin), repr(meta.vmax), repr(meta.mean),
                                 repr(meta.std), repr(meta.slope_per_day)]))

    dataset_path = out_dir / "qa_visual.jsonl"
    written = write_dataset(items, facts_by_id, dataset_path)

    return {
        "city": entry.city,
        "variable": variable,
        "grid_cell": list(product.cell),
        "windows_kept": len(windows),
        "charts": len(charts),
        "items_written": written,
        "dropped": dict(sorted(counters.items())),
        "dataset": str(dataset_path),
        "charts_dir": str(charts_dir),
        "metadata_csv": str(meta_path),
    }
