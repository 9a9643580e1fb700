"""Deterministic offline text embeddings for keyword deduplication."""

from __future__ import annotations

import hashlib
import re

import numpy as np

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class HashingEmbedder:
    """Feature-hashed bag-of-words embedding, unit-normalized.

    Deterministic across processes (SHA-256, no interpreter hash seed), so
    similarity-threshold behavior is reproducible offline.
    """

    def __init__(self, dim: int = 64):
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=np.float64)
        for token in _TOKEN_RE.findall(text.casefold()):
            digest = hashlib.sha256(token.encode("utf-8")).digest()
            index = int.from_bytes(digest[:4], "big") % self.dim
            sign = 1.0 if digest[4] % 2 == 0 else -1.0
            vec[index] += sign
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            # No recognizable tokens: a fixed direction keeps the vector non-zero.
            vec[0] = 1.0
            return vec
        return vec / norm
