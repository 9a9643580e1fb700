"""Keyword expansion with a persistent cosine-deduplicating index.

A candidate keyword is kept iff its maximum cosine similarity against every
stored keyword is strictly below the index threshold; kept candidates are
inserted atomically, so the stored set never contains a pair at or above the
threshold.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import GulfClimateError
from . import has_surrogate
from .embedding import HashingEmbedder

DEFAULT_TAU = 0.85

INDEX_FORMAT = "keyword-index"
INDEX_VERSION = 1


class KeywordIndexError(GulfClimateError, ValueError):
    pass


@dataclass(frozen=True)
class Keyword:
    text: str
    embedding: np.ndarray
    country: str | None = None
    city: str | None = None

    def __post_init__(self) -> None:
        emb = np.asarray(self.embedding, dtype=np.float64)
        if emb.ndim != 1 or not np.any(emb):
            raise KeywordIndexError(f"embedding for {self.text!r} must be a non-zero vector")
        emb.setflags(write=False)
        object.__setattr__(self, "embedding", emb)


@dataclass(frozen=True)
class FilterVerdict:
    kept: bool


@dataclass
class KeywordIndex:
    """Persistent store of accepted keywords with similarity threshold tau."""

    dim: int
    tau: float = DEFAULT_TAU
    keywords: list[Keyword] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.tau <= 1.0:
            raise KeywordIndexError(f"tau must be in (0, 1]: {self.tau}")
        self._lock = threading.Lock()
        self._matrix = np.zeros((0, self.dim), dtype=np.float64)

    def __len__(self) -> int:
        return len(self.keywords)

    def filter(self, candidate: Keyword) -> FilterVerdict:
        """Keep the candidate iff max cosine < tau; kept ones insert atomically."""
        with self._lock:
            unit = _unit(candidate.embedding)
            kept = not self.keywords or bool((self._matrix @ unit).max() < self.tau)
            if kept:
                self._matrix = np.vstack([self._matrix, unit])
                self.keywords.append(candidate)
            return FilterVerdict(kept=kept)

    # -- persistence (versioned line-delimited file) --------------------------

    def save(self, path: str | Path) -> None:
        lines = [json.dumps({"format": INDEX_FORMAT, "version": INDEX_VERSION,
                             "dim": self.dim, "tau": self.tau}, sort_keys=True)]
        for kw in self.keywords:
            lines.append(json.dumps({
                "text": kw.text,
                "embedding": [float(v) for v in kw.embedding],
                "country": kw.country,
                "city": kw.city,
            }, sort_keys=True))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _unit(vec: np.ndarray) -> np.ndarray:
    return vec / np.linalg.norm(vec)


_EXPANSION_PROMPT = (
    "Propose search keywords for the topics below, one per line, targeted at "
    "{where}. Cover policies, reports, academic work, and event coverage.\n"
    "Topics: {seeds}"
)


def expand_keywords(seeds: list[str], constraints: list[tuple[str | None, str | None]],
                    backend, index: KeywordIndex) -> list[Keyword]:
    """LLM-propose candidates per (country, city) constraint, dedup via the index.

    Every returned keyword passed the similarity filter and carries the
    constraint tuple it was generated under. Candidates are embedded with a
    :class:`HashingEmbedder` of the index's dimension; a line holding a
    surrogate is no candidate.
    """
    if not seeds:
        raise KeywordIndexError("seed list must be non-empty")
    embedder = HashingEmbedder(dim=index.dim)
    kept: list[Keyword] = []
    for country, city in constraints or [(None, None)]:
        where = ", ".join(p for p in (city, country) if p) or "the Gulf region"
        prompt = _EXPANSION_PROMPT.format(where=where, seeds="; ".join(seeds))
        emission = backend.complete([{"role": "user", "content": prompt}])
        for line in emission.splitlines():
            text = line.strip().lstrip("-*0123456789. ").strip()
            if not text or has_surrogate(text):
                continue
            candidate = Keyword(text=text, embedding=embedder.embed(text),
                                country=country, city=city)
            if index.filter(candidate).kept:
                kept.append(candidate)
    return kept
