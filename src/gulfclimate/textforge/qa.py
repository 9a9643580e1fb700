"""QA item synthesis, structural validation, and dataset serialization."""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Sequence

from ..agent.serialization import write_text_escaped
from ..core.records import Provenance
from ..core.timeutil import format_timestamp
from ..errors import GulfClimateError
from . import has_surrogate
from .facts import AtomicFact

FORMATS = ("mcq", "open", "tf")

OPEN_ANSWER_WORD_BUDGET = 60


class QASynthesisError(GulfClimateError, ValueError):
    pass


@dataclass(frozen=True)
class QAItem:
    """One supervision item with provenance-bearing evidence refs."""

    format: str
    question: str
    answer: str
    options: tuple[str, ...] = ()
    evidence: tuple[str, ...] = ()
    split: str = "text"  # text | visual
    chart_ref: str | None = None
    answer_tolerance: float | None = None
    review_flag: bool = False

    @property
    def item_id(self) -> str:
        payload = f"{self.format}|{self.question}|{self.answer}|{','.join(self.options)}"
        return f"qa:{hashlib.sha256(payload.encode()).hexdigest()[:16]}"


def validate_item(item: QAItem) -> str | None:
    """Return the violated rule, or None when the item is structurally sound."""
    if item.format not in FORMATS:
        return "unknown_format"
    if not item.question.strip():
        return "empty_question"
    if not item.evidence:
        return "no_evidence"
    if item.split not in ("text", "visual"):
        return "unknown_split"
    if has_surrogate(item.question, item.answer, *item.options):
        return "unencodable_text"
    if item.format == "mcq":
        if len(item.options) < 3:
            return "too_few_options"
        if len(set(item.options)) != len(item.options):
            return "duplicate_options"
        if item.answer not in item.options:
            return "answer_not_in_options"
    elif item.format == "tf":
        if item.answer not in ("true", "false"):
            return "bad_tf_answer"
    elif item.format == "open":
        if not item.answer.strip():
            return "empty_answer"
        if len(item.answer.split()) > OPEN_ANSWER_WORD_BUDGET:
            return "answer_over_budget"
    return None


def validate_items(items: Iterable[QAItem], counters: Counter | None = None) -> list[QAItem]:
    """Keep structurally valid items, counting each drop reason."""
    kept = []
    for item in items:
        problem = validate_item(item)
        if problem is None:
            kept.append(item)
        elif counters is not None:
            counters[f"dropped_{problem}"] += 1
    return kept


def decode_qa_emission(emission: str) -> list:
    """The entries of a backend emission, which must be a JSON array."""
    try:
        payload = json.loads(emission)
    except json.JSONDecodeError as exc:
        raise QASynthesisError(f"backend emission is not valid JSON: {exc.msg}") from exc
    if not isinstance(payload, list):
        raise QASynthesisError("backend emission must be a JSON array")
    return payload


def qa_items(entries: Iterable, format: str, evidence: Sequence[str],
             split: str, *, chart_ref: str | None = None,
             answer_tolerance: float | None = None) -> list[QAItem]:
    """Build the candidate items (not yet validated) of entries in the shape of
    ``format``; an entry that is not an object is skipped. Every item carries
    ``evidence``, ``split``, ``chart_ref`` and ``answer_tolerance``.

    Entry shapes:
      mcq:  {"question", "answer", "options": [...]}; ``options`` that are
            not an array give none, so :func:`validate_item` rejects the item
      open: {"question", "answer"}
      tf:   {"entailed": "...", "contradicted": "..."}: a true item for a
            non-empty ``entailed`` and a false one for a non-empty
            ``contradicted``, so an entry with no false variant yields one item

    Any other format is built as ``open`` is, under its own name, so
    :func:`validate_item` rejects it as ``unknown_format``.
    """
    evidence = tuple(evidence)
    items: list[QAItem] = []
    for entry in entries:
        if not isinstance(entry, dict):
            continue
        if format == "tf":
            for key, answer in (("entailed", "true"), ("contradicted", "false")):
                statement = str(entry.get(key, "")).strip()
                if statement:
                    items.append(QAItem(format="tf", question=statement, answer=answer,
                                        evidence=evidence, split=split, chart_ref=chart_ref,
                                        answer_tolerance=answer_tolerance))
        else:
            options = entry.get("options") if format == "mcq" else None
            items.append(QAItem(
                format=format,
                question=str(entry.get("question", "")),
                answer=str(entry.get("answer", "")),
                options=tuple(str(o) for o in options) if isinstance(options, list) else (),
                evidence=evidence, split=split, chart_ref=chart_ref,
                answer_tolerance=answer_tolerance,
            ))
    return items


_SYNTHESIS_PROMPT = (
    "Write {format} items grounded ONLY in these statements. {shape_hint} "
    "Reply with a JSON array.\n\nStatements:\n{facts}"
)

_SHAPE_HINTS = {
    "mcq": ('Each item: {"question", "answer", "options"} with at least 3 options, '
            'distractors locally plausible but inconsistent with the statements.'),
    "open": ('Each item: {"question", "answer"} with a concise evidence-anchored answer.'),
    "tf": ('For each statement produce {"entailed": <restatement that is true>, '
           '"contradicted": <minimally altered false variant>}.'),
}


def synthesize_qa(facts: Sequence[AtomicFact], format: str, backend,
                  counters: Counter | None = None) -> list[QAItem]:
    """Condition the backend on facts and return validated items.

    Invalid generations are dropped and counted in ``counters``. For ``tf``,
    each fact contributes a paired entailed (true) and contradicted (false)
    variant.
    """
    if not facts:
        raise QASynthesisError("fact list must be non-empty")
    if format not in FORMATS:
        raise QASynthesisError(f"unknown format {format!r}")
    prompt = _SYNTHESIS_PROMPT.format(
        format=format, shape_hint=_SHAPE_HINTS[format],
        facts="\n".join(f"- {f.statement}" for f in facts),
    )
    emission = backend.complete([{"role": "user", "content": prompt}])
    evidence = tuple(f.fact_id for f in facts)
    items = qa_items(decode_qa_emission(emission), format, evidence, "text")
    return validate_items(items, counters=counters)


# -- dataset output ---------------------------------------------------------------


class BrokenEvidenceChain(GulfClimateError, ValueError):
    pass


def resolve_evidence(item: QAItem, facts_by_id: dict[str, AtomicFact]) -> list[dict]:
    """Expand an item's evidence refs into fact/chunk/provenance records.

    Raises :class:`BrokenEvidenceChain` when the item has no refs, cites an
    unknown fact, or when a fact's provenance has neither a URL nor a title.
    Facts with equal provenance (every fact of one document) share one
    provenance record, built once.
    """
    if not item.evidence:
        raise BrokenEvidenceChain(f"{item.item_id} has no evidence refs")
    resolved = []
    records: dict[Provenance, dict] = {}
    for fact_id in item.evidence:
        fact = facts_by_id.get(fact_id)
        if fact is None:
            raise BrokenEvidenceChain(f"{item.item_id}: unknown fact {fact_id}")
        prov = fact.provenance
        if prov.url is None and prov.title is None:
            raise BrokenEvidenceChain(f"{item.item_id}: provenance lacks url/title")
        record = records.get(prov)
        if record is None:
            record = records[prov] = {
                "url": prov.url,
                "title": prov.title,
                "organization": prov.organization,
                "published": prov.published,
                "query": prov.query,
                "retrieved_at": format_timestamp(prov.retrieved_at),
            }
        resolved.append({
            "fact_id": fact_id,
            "statement": fact.statement,
            "chunk_id": fact.chunk.chunk_id,
            "doc_id": fact.chunk.doc_id,
            "provenance": record,
        })
    return resolved


_encode = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode


def write_dataset(items: Sequence[QAItem], facts_by_id: dict[str, AtomicFact],
                  path: str | Path) -> int:
    """Write items as line-delimited JSON with embedded provenance.

    Each line is one item as ``json.dumps(doc, sort_keys=True,
    ensure_ascii=False)`` would write it: keys in sorted order, ``", "`` and
    ``": "`` separators, non-ASCII characters as themselves (a lone
    surrogate as its escape, by :func:`write_text_escaped`). The keys are
    ``answer``, ``answer_tolerance`` and ``chart_ref`` (when set),
    ``evidence`` (the records of :func:`resolve_evidence`), ``format``,
    ``id``, ``options`` (when non-empty), ``question``, ``review_flag`` and
    ``split``. Each line is one f-string template with the keys in that
    order: strings are encoded by ``json.encoder.encode_basestring``, as the
    encoder does with ``ensure_ascii=False``, and ``answer_tolerance`` by the
    encoder itself, so NaN and ±inf read as ``json.dumps`` writes them.
    ``facts_by_id`` is the one table needed: a record's chunk id, doc id and
    provenance come from the cited fact's own chunk. Items often share an
    evidence tuple (every item of a document cites all its facts), so each
    distinct tuple is resolved and encoded once per call. The first item
    whose chain is broken raises :class:`BrokenEvidenceChain`, and then no
    file is written.
    """
    string = encode_basestring
    evidence_json: dict[tuple[str, ...], str] = {}
    lines = []
    for item in items:
        evidence = evidence_json.get(item.evidence)
        if evidence is None:
            evidence = evidence_json[item.evidence] = _encode(
                resolve_evidence(item, facts_by_id))
        tolerance = ("" if item.answer_tolerance is None
                     else f'"answer_tolerance": {_encode(item.answer_tolerance)}, ')
        chart = "" if item.chart_ref is None else f'"chart_ref": {string(item.chart_ref)}, '
        options = (f'"options": [{", ".join(map(string, item.options))}], ' if item.options
                   else "")
        lines.append(
            f'{{"answer": {string(item.answer)}, {tolerance}{chart}"evidence": {evidence}, '
            f'"format": {string(item.format)}, "id": {string(item.item_id)}, {options}'
            f'"question": {string(item.question)}, '
            f'"review_flag": {"true" if item.review_flag else "false"}, '
            f'"split": {string(item.split)}}}')
    write_text_escaped(path, "\n".join(lines) + ("\n" if lines else ""))
    return len(lines)
