"""``write_dataset`` against the per-item encoder it replaced, and the options of
mcq entries."""

import json
import tempfile
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gulfclimate.core.records import Provenance
from gulfclimate.core.timeutil import format_timestamp
from gulfclimate.textforge.chunking import Chunk
from gulfclimate.textforge.facts import AtomicFact
from gulfclimate.textforge.qa import (BrokenEvidenceChain, QAItem, decode_qa_emission,
                                      qa_items, validate_items, write_dataset)

UTC = timezone.utc


# -- the reference: one dict per item, encoded whole ------------------------------


def _reference_evidence(item, facts_by_id, chunks_by_id):
    if not item.evidence:
        raise BrokenEvidenceChain(f"{item.item_id} has no evidence refs")
    resolved = []
    for fact_id in item.evidence:
        fact = facts_by_id.get(fact_id)
        if fact is None:
            raise BrokenEvidenceChain(f"{item.item_id}: unknown fact {fact_id}")
        chunk = chunks_by_id.get(fact.chunk.chunk_id)
        if chunk is None:
            raise BrokenEvidenceChain(f"{item.item_id}: unresolvable chunk {fact.chunk.chunk_id}")
        prov = fact.provenance
        resolved.append({
            "fact_id": fact_id,
            "statement": fact.statement,
            "chunk_id": chunk.chunk_id,
            "doc_id": chunk.doc_id,
            "provenance": {
                "url": prov.url,
                "title": prov.title,
                "organization": prov.organization,
                "published": prov.published,
                "query": prov.query,
                "retrieved_at": format_timestamp(prov.retrieved_at),
            },
        })
    return resolved


def _reference_item(item, facts_by_id, chunks_by_id):
    doc = {
        "id": item.item_id,
        "format": item.format,
        "split": item.split,
        "question": item.question,
        "answer": item.answer,
        "evidence": _reference_evidence(item, facts_by_id, chunks_by_id),
        "review_flag": item.review_flag,
    }
    if item.options:
        doc["options"] = list(item.options)
    if item.chart_ref is not None:
        doc["chart_ref"] = item.chart_ref
    if item.answer_tolerance is not None:
        doc["answer_tolerance"] = item.answer_tolerance
    return doc


def _chunk_table(facts_by_id):
    """The chunk table the reference resolves through, built from the facts."""
    return {f.chunk.chunk_id: f.chunk for f in facts_by_id.values()}


def _reference_bytes(items, facts_by_id) -> bytes:
    chunks_by_id = _chunk_table(facts_by_id)
    lines = [json.dumps(_reference_item(i, facts_by_id, chunks_by_id),
                        sort_keys=True, ensure_ascii=False) for i in items]
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


def _written(items, facts_by_id) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "qa.jsonl"
        assert write_dataset(items, facts_by_id, path) == len(items)
        return path.read_bytes()


# -- strategies -------------------------------------------------------------------

# Pieces that stress the encoder and the splice: quotes, backslashes, control
# characters, NUL, U+2028, non-ASCII text and the splice marker itself.
TRICKY = ('"', "\\", "\x00", "\x1f", "\n", "\u2028", "é", "漢",
          "\U0001f600", '", "evidence": [', "}", "{", ", ")

text = st.lists(st.one_of(st.text(max_size=6), st.sampled_from(TRICKY)),
                max_size=4).map("".join)
optional_text = st.one_of(st.none(), text)

provenances = st.builds(
    Provenance,
    retrieved_at=st.datetimes(min_value=datetime(1990, 1, 1), max_value=datetime(2040, 1, 1),
                              timezones=st.sampled_from([None, UTC])),
    query=text, url=text, title=optional_text, organization=optional_text,
    published=optional_text,
)


@st.composite
def evidence_pools(draw):
    """Chunks, the facts read from them, and the evidence tuples items draw from."""
    chunks = draw(st.lists(st.builds(Chunk, doc_id=text, start=st.integers(0, 500),
                                     tokens=st.just(("t",)), provenance=provenances),
                           min_size=1, max_size=3))
    facts = draw(st.lists(st.builds(AtomicFact, statement=text,
                                    chunk=st.sampled_from(chunks)),
                          min_size=1, max_size=5))
    facts_by_id = {f.fact_id: f for f in facts}
    # Tuples may repeat a fact id; several items may share one tuple.
    tuples = draw(st.lists(st.lists(st.sampled_from(sorted(facts_by_id)), min_size=1,
                                    max_size=4).map(tuple), min_size=1, max_size=3))
    return facts_by_id, tuples


def items(tuples):
    return st.lists(st.builds(
        QAItem,
        format=st.one_of(st.sampled_from(("mcq", "open", "tf")), text),
        question=text,
        answer=text,
        options=st.lists(text, max_size=4).map(tuple),
        evidence=st.sampled_from(tuples),
        split=st.sampled_from(("text", "visual")),
        chart_ref=optional_text,
        answer_tolerance=st.one_of(st.none(), st.sampled_from([0.0, -0.0, -2.5, 1e-9]),
                                   st.floats()),
        review_flag=st.booleans(),
    ), max_size=12)


# -- equivalence ------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_lines_equal_the_per_item_encoder(data):
    facts_by_id, tuples = data.draw(evidence_pools())
    batch = data.draw(items(tuples))
    assert _written(batch, facts_by_id) == _reference_bytes(batch, facts_by_id)


def _fact(statement="Doha recorded 47 C.", url="https://example.org/a",
          retrieved_at=datetime(2024, 6, 1, tzinfo=UTC)):
    prov = Provenance(retrieved_at=retrieved_at, query="q", url=url)
    return AtomicFact(statement, Chunk(doc_id="doc", start=0, tokens=("t",), provenance=prov))


def test_fixed_cases_equal_the_per_item_encoder():
    fact = _fact()
    other = _fact("Rain fell \u2028 twice \\ \"here\"\x00.")
    facts_by_id = {fact.fact_id: fact, other.fact_id: other}
    shared = (fact.fact_id, other.fact_id)
    batch = [
        QAItem("mcq", 'Which? ", "evidence": [', "a", options=("a", "b", "c"),
               evidence=shared),
        QAItem("tf", "Tést\u2028ok", "true", evidence=shared, review_flag=True),
        QAItem("open", "Q", "A", evidence=(fact.fact_id, fact.fact_id), split="visual",
               chart_ref="chart_1", answer_tolerance=0.0),
        QAItem("open", "Q2", "A2", evidence=(other.fact_id,), answer_tolerance=-1.5),
    ]
    assert _written(batch, facts_by_id) == _reference_bytes(batch, facts_by_id)


def test_empty_item_list_gives_an_empty_file(tmp_path):
    path = tmp_path / "qa.jsonl"
    assert write_dataset([], {}, path) == 0
    assert path.read_bytes() == b""


def test_nothing_is_cached_across_calls():
    old = _fact()
    new = _fact(url="https://example.org/b", retrieved_at=datetime(2025, 1, 1, tzinfo=UTC))
    assert old.fact_id == new.fact_id
    batch = [QAItem("tf", "Q", "true", evidence=(old.fact_id,))]
    for fact in (old, new):
        assert _written(batch, {fact.fact_id: fact}) == \
            _reference_bytes(batch, {fact.fact_id: fact})
    with pytest.raises(BrokenEvidenceChain, match="unknown fact"):
        _written(batch, {})


# -- broken chains ----------------------------------------------------------------

BROKEN = ("no_evidence", "unknown_fact")


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kinds=st.lists(st.sampled_from(BROKEN), min_size=1, max_size=3))
def test_first_broken_item_raises_and_nothing_is_written(data, kinds):
    facts_by_id, tuples = data.draw(evidence_pools())
    broken_evidence = {"no_evidence": (), "unknown_fact": (*tuples[0], "fact:unknown")}
    batch = data.draw(items(tuples))
    for n, kind in enumerate(kinds):
        at = data.draw(st.integers(0, len(batch)))
        batch.insert(at, QAItem("tf", f"broken {n}", "true", evidence=broken_evidence[kind]))
    with pytest.raises(BrokenEvidenceChain) as expected:
        _reference_bytes(batch, facts_by_id)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "qa.jsonl"
        with pytest.raises(BrokenEvidenceChain) as raised:
            write_dataset(batch, facts_by_id, path)
        assert not path.exists()
    assert str(raised.value) == str(expected.value)


# -- mcq options ------------------------------------------------------------------


@pytest.mark.parametrize("options", ["5", '"abc"', "null"])
def test_mcq_options_that_are_not_an_array_give_none_and_the_item_is_dropped(options):
    emission = f'[{{"question": "q", "answer": "a", "options": {options}}}]'
    (item,) = qa_items(decode_qa_emission(emission), "mcq", ["fact:1"], "text")
    assert item.options == ()
    counters = Counter()
    assert validate_items([item], counters) == []
    assert counters == Counter({"dropped_too_few_options": 1})

