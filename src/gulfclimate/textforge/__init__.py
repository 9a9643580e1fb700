"""Textual curation pipeline: keywords, retrieval, parsing, chunking, facts, QA."""
