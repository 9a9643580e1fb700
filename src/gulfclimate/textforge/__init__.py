"""Textual curation pipeline: keywords, retrieval, parsing, chunking, facts, QA."""


def has_surrogate(*texts: str) -> bool:
    """Whether any of ``texts`` holds a surrogate code point, which UTF-8
    cannot encode, so no hash, query or dataset line can carry it. JSON may
    escape a lone one, so a backend emission can hold it."""
    try:
        "".join(texts).encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False
