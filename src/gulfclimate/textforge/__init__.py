"""Textual curation pipeline: keywords, retrieval, parsing, chunking, facts, QA."""

from .chunking import Chunk, chunk, chunk_starts, tokenize
from .embedding import EmbeddingProvider, HashingEmbedder, cosine
from .facts import AtomicFact, induce_facts, passes_structural_checks
from .keywords import (
    DEFAULT_TAU,
    DimensionMismatch,
    FilterVerdict,
    Keyword,
    KeywordIndex,
    expand_keywords,
)
from .parsing import DocumentMeta, EmptyAfterCleaning, UnsupportedFormat, parse_document
from .qa import (
    BrokenEvidenceChain,
    QAItem,
    QASynthesisError,
    parse_qa_emission,
    resolve_evidence,
    synthesize_qa,
    validate_item,
    validate_items,
    write_dataset,
)
from .retrieval import DomainPolicy, NoRelevantResults, RetrievedDoc, retrieve_documents

__all__ = [
    "AtomicFact",
    "BrokenEvidenceChain",
    "Chunk",
    "DEFAULT_TAU",
    "DimensionMismatch",
    "DocumentMeta",
    "DomainPolicy",
    "EmbeddingProvider",
    "EmptyAfterCleaning",
    "FilterVerdict",
    "HashingEmbedder",
    "Keyword",
    "KeywordIndex",
    "NoRelevantResults",
    "QAItem",
    "QASynthesisError",
    "RetrievedDoc",
    "UnsupportedFormat",
    "chunk",
    "chunk_starts",
    "cosine",
    "expand_keywords",
    "induce_facts",
    "parse_document",
    "parse_qa_emission",
    "passes_structural_checks",
    "resolve_evidence",
    "synthesize_qa",
    "tokenize",
    "validate_item",
    "validate_items",
    "write_dataset",
]
