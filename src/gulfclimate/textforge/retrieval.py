"""Retrieval agent: search, relevance-gate, fetch, refine, repeat.

Each keyword gets at most ``MAX_ROUNDS`` searches: the keyword itself, then
one backend-refined query when the first round is all off-domain. A result
is on-domain when at least ``MIN_OVERLAP`` of the query's word tokens appear
in its title or snippet.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING
from urllib.parse import urlparse

from ..core.records import Provenance
from ..errors import GulfClimateError
from . import has_surrogate
from .keywords import Keyword

if TYPE_CHECKING:
    from ..tools.web import FixtureSearch

MIN_OVERLAP = 0.34
MAX_ROUNDS = 2

_WORD_RE = re.compile(r"[a-z0-9]+")


class NoRelevantResults(GulfClimateError):
    """Every round came back off-domain."""


@dataclass(frozen=True)
class RetrievedDoc:
    url: str
    text: str
    provenance: Provenance


def on_domain(query: str, result: dict) -> bool:
    """Whether enough of the query's word tokens appear in the result's
    title and snippet."""
    q_tokens = set(_WORD_RE.findall(query.casefold()))
    if not q_tokens:
        return False
    text = f"{result.get('title', '')} {result.get('snippet', '')}".casefold()
    r_tokens = set(_WORD_RE.findall(text))
    return len(q_tokens & r_tokens) / len(q_tokens) >= MIN_OVERLAP


_REFINE_PROMPT = (
    "The search results for '{query}' were off-domain for Gulf climate "
    "content. Propose one refined query. Reply with the query only."
)


def retrieve_documents(keyword: Keyword, search: FixtureSearch,
                       backend) -> list[RetrievedDoc]:
    """Search-and-refine loop for one keyword.

    Each round searches, gates results by domain relevance, and fetches the
    accepted ones; when nothing passes, the backend refines the query and the
    loop repeats up to ``MAX_ROUNDS``. A refinement that is empty, unchanged
    or holds a surrogate ends the loop. Every document carries provenance with
    the full query chain. Raises :class:`NoRelevantResults` when all rounds
    come back off-domain.
    """
    query = keyword.text
    chain: list[str] = []
    for _ in range(MAX_ROUNDS):
        chain.append(query)
        accepted = [result for result in search.search(query) if on_domain(query, result)]
        if accepted:
            query_chain = " -> ".join(chain)
            retrieved_at = search.retrieved_at(query)
            return [
                RetrievedDoc(
                    url=result["url"],
                    text=search.page(result["url"]),
                    provenance=Provenance(
                        retrieved_at=retrieved_at,
                        query=query_chain,
                        url=result["url"],
                        title=result.get("title"),
                        organization=urlparse(result["url"]).netloc or None,
                    ),
                )
                for result in accepted
            ]
        refined = backend.complete([
            {"role": "user", "content": _REFINE_PROMPT.format(query=query)},
        ]).strip().strip('"')
        if not refined or refined == query or has_surrogate(refined):
            break
        query = refined
    raise NoRelevantResults(f"no on-domain results after {len(chain)} round(s): {chain}")
