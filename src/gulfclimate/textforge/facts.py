"""Atomic fact induction from document chunks."""

from __future__ import annotations

import re
from dataclasses import dataclass
from hashlib import sha256

from ..core.records import Provenance
from . import has_surrogate
from .chunking import Chunk

_SENTENCE_SPLIT = re.compile(r"[.!?]+(?:\s|$)")
_COMPOUND_CLAUSE = re.compile(r",\s+(?:and|or|but)\s+", re.IGNORECASE)
_CONTENT_WORD = re.compile(r"[A-Za-z]{3,}")

_STOPWORDS = frozenset(
    "the a an and or but of to in on for with is are was were be been this "
    "that these those it its as at by from into over under".split()
)


@dataclass(frozen=True)
class AtomicFact:
    """One verifiable claim and the chunk it was read from."""

    statement: str
    chunk: Chunk

    @property
    def provenance(self) -> Provenance:
        return self.chunk.provenance

    @property
    def fact_id(self) -> str:
        """``fact:`` and the first 16 hex digits of the sha256 of the chunk id
        and the statement, computed once per fact and kept with it."""
        # Kept in the instance __dict__, which a frozen dataclass still
        # allows, as CanonicalSeries.timestamp_text is: the forge's evidence
        # table and each QA format read it.
        fact_id = self.__dict__.get("_fact_id")
        if fact_id is None:
            digest = sha256(f"{self.chunk.chunk_id}|{self.statement}".encode()).hexdigest()
            fact_id = self.__dict__["_fact_id"] = f"fact:{digest[:16]}"
        return fact_id


def passes_structural_checks(statement: str) -> bool:
    """Single-sentence, not clause-joined, carries content words, holds no
    surrogate."""
    text = statement.strip()
    if not text or has_surrogate(text):
        return False
    sentences = [s for s in _SENTENCE_SPLIT.split(text) if s.strip()]
    if len(sentences) > 1:
        return False
    if ";" in text:
        return False
    if _COMPOUND_CLAUSE.search(text):
        return False
    content = [w for w in _CONTENT_WORD.findall(text) if w.casefold() not in _STOPWORDS]
    return len(content) >= 2


_INDUCTION_PROMPT = (
    "Extract atomic factual statements from the passage below: one claim per "
    "line, each verifiable on its own, no compound sentences.\n\nPassage:\n{chunk}"
)


def induce_facts(chunk: Chunk, backend) -> list[AtomicFact]:
    """LLM-extract single-claim statements from a chunk.

    Statements failing the structural checks are dropped; an empty emission
    yields an empty list.
    """
    if not chunk.tokens:
        raise ValueError("chunk must be non-empty")
    prompt = _INDUCTION_PROMPT.format(chunk=" ".join(chunk.tokens))
    emission = backend.complete([{"role": "user", "content": prompt}])
    facts: list[AtomicFact] = []
    for line in emission.splitlines():
        statement = line.strip().lstrip("-*0123456789. ").strip()
        if not statement or not passes_structural_checks(statement):
            continue
        facts.append(AtomicFact(statement=statement, chunk=chunk))
    return facts
