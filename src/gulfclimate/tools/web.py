"""Web retrieval and summarization executors."""

from __future__ import annotations

import hashlib
import re

from ..toolkit.types import ToolResult
from .errors import ProviderFailure
from .providers import FixtureStore


def query_key(query: str) -> str:
    """Stable lookup key for a search query (used by the replay fixture)."""
    normalized = re.sub(r"\s+", " ", query.strip().casefold())
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:16]


class FixtureSearch:
    """Replays recorded result sets keyed by query hash, from the
    ``online_search.json`` fixture (its format is in :mod:`.providers`). A
    document, table or entry of another shape raises
    :class:`ProviderFailure`."""

    def __init__(self, store: FixtureStore):
        self.store = store

    def _entry(self, table: str, key: str) -> dict | None:
        """Entry ``key`` of the document's ``table`` object, ``None`` when absent."""
        doc = self.store.document("online_search")
        entries = doc.get(table, {}) if isinstance(doc, dict) else None
        if not isinstance(entries, dict):
            raise ProviderFailure(f"fixture 'online_search' has no {table!r} object")
        entry = entries.get(key)
        if not (entry is None or isinstance(entry, dict)):
            raise ProviderFailure(
                f"fixture 'online_search' {table}[{key!r}] is not an object: {entry!r}")
        return entry

    def search(self, query: str) -> list[dict]:
        entry = self._entry("queries", query_key(query))
        if entry is None:
            raise ProviderFailure(f"no recorded results for query {query!r}")
        results = entry.get("results")
        if not (isinstance(results, list)
                and all(isinstance(r, dict) and isinstance(r.get("url"), str) for r in results)):
            raise ProviderFailure(f"recorded results for query {query!r} are not an array "
                                  f"of objects with a 'url' string: {results!r}")
        return list(results)

    def page(self, url: str) -> str:
        entry = self._entry("pages", url)
        if entry is None:
            raise ProviderFailure(f"no recorded page for {url!r}")
        text = entry.get("text")
        if not isinstance(text, str):
            raise ProviderFailure(f"recorded page {url!r} has no 'text' string")
        return text

    def retrieved_at(self, query: str) -> str | None:
        entry = self._entry("queries", query_key(query))
        stamp = entry.get("retrieved_at") if entry else None
        if not (stamp is None or isinstance(stamp, str)):
            raise ProviderFailure(f"recorded retrieved_at for query {query!r} is not a string")
        return stamp


def make_search_executor(search, top_k: int = 5):
    def run(query: str) -> ToolResult:
        if not query.strip():
            raise ProviderFailure("empty query")
        results = search.search(query)[:top_k]
        return ToolResult(payload=[
            {"title": r["title"], "url": r["url"], "snippet": r.get("snippet", "")}
            for r in results
        ])
    return run


_SENTENCE_END = re.compile(r"(?<=[.!?])\s+")


def extractive_summary(text: str, word_budget: int) -> str:
    """Leading whole sentences within the word budget (backend-free fallback)."""
    sentences = _SENTENCE_END.split(text.strip())
    out: list[str] = []
    used = 0
    for sentence in sentences:
        words = sentence.split()
        if not words:
            continue
        if out and used + len(words) > word_budget:
            break
        out.append(sentence.strip())
        used += len(words)
        if used >= word_budget:
            break
    return " ".join(out)


def make_summarize_executor(backend=None, word_budget: int = 60):
    """Summarize via the bound LLM backend, or extractively when none is bound."""
    def run(text: str) -> ToolResult:
        if not text.strip():
            raise ProviderFailure("empty input text")
        if backend is None:
            return ToolResult(payload=extractive_summary(text, word_budget))
        prompt = (f"Summarize the following in at most {word_budget} words, "
                  f"preserving key facts:\n\n{text}")
        summary = backend.complete([{"role": "user", "content": prompt}])
        return ToolResult(payload=summary.strip())
    return run
