"""Overlapping token-window chunking with boundary snapping.

Every document's word tokens, as :func:`.parsing.parse_document` returns them
with its section breaks, are cut the same way: windows of ``WINDOW_TOKENS``
tokens whose raw starts are ``STRIDE_TOKENS`` apart, so neighbours overlap by
128 tokens. A raw start snaps back to a section break at most ``SNAP_WINDOW``
tokens before it; the breaks only steer where chunk starts snap, and a chunk
records no section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..core.records import Provenance

WINDOW_TOKENS = 512
STRIDE_TOKENS = 384
SNAP_WINDOW = 48


@dataclass(frozen=True)
class Chunk:
    """One token window of a document."""

    doc_id: str
    start: int
    tokens: tuple[str, ...]
    provenance: Provenance

    @property
    def chunk_id(self) -> str:
        return f"{self.doc_id}:{self.start}"


def chunk_starts(total: int) -> list[int]:
    """Window start indices covering ``total`` tokens.

    Starts are multiples of the stride; emission stops once a window reaches
    the end, so the count is ``ceil(max(total - window, 0) / stride) + 1``
    and consecutive windows overlap by exactly ``window - stride`` tokens.
    """
    if total <= 0:
        return []
    if total <= WINDOW_TOKENS:
        return [0]
    count = math.ceil((total - WINDOW_TOKENS) / STRIDE_TOKENS) + 1
    return [m * STRIDE_TOKENS for m in range(count)]


def _snap(start: int, breaks: Sequence[int], previous_start: int) -> int:
    """Snap a start backward to the nearest break within the snap window.

    Falls back to the raw stride position when snapping would stall (not
    advance past the previous chunk) — coverage always wins over alignment.
    """
    candidates = [b for b in breaks if start - SNAP_WINDOW <= b <= start]
    if not candidates:
        return start
    snapped = max(candidates)
    if snapped <= previous_start:
        return start
    return snapped


def chunk(tokens: Sequence[str], *, provenance: Provenance, doc_id: str = "doc",
          breaks: Sequence[int] = ()) -> list[Chunk]:
    """Split a token list into overlapping chunks.

    Window starts snap backward to the nearest of ``breaks`` (token indices
    of section starts) within ``SNAP_WINDOW`` tokens; snapping never creates
    coverage gaps.
    """
    tokens = tuple(tokens)
    chunks: list[Chunk] = []
    previous_start = -1
    for raw_start in chunk_starts(len(tokens)):
        start = raw_start
        if breaks and raw_start > 0:
            start = _snap(raw_start, breaks, previous_start)
        chunks.append(Chunk(doc_id=doc_id, start=start,
                            tokens=tokens[start:start + WINDOW_TOKENS],
                            provenance=provenance))
        previous_start = start
    return chunks


def tokenize(text: str) -> list[str]:
    """Whitespace word tokens; the pipeline's backend-independent token unit."""
    return text.split()
