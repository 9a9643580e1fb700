"""Backends the workloads run against: deterministic, offline, and cheap.

``PromptKeyedBackend`` answers the text forge's four prompt kinds from the
prompt alone, so its replies do not depend on call order. ``DelayedBackend``
adds a fixed wait to every call of another backend, standing in for a remote
model whose latency dominates the harness.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import time
from collections import Counter
from pathlib import Path

_EXPANSION = re.compile(r"targeted at (?P<where>.*?)\. Cover .*\nTopics: (?P<seeds>.*)\Z", re.S)
_REFINE = re.compile(r"The search results for '(?P<query>.*)' were off-domain")
_PASSAGE = re.compile(r"\nPassage:\n(?P<passage>.*)\Z", re.S)
_QA = re.compile(r"\AWrite (?P<format>mcq|open|tf) items grounded ONLY.*\nStatements:\n(?P<facts>.*)\Z",
                 re.S)
_SENTENCE_END = re.compile(r"(?<=\.)\s+")
_COUNT = re.compile(r"\b\d+\b")

QA_ITEMS_PER_PROMPT = 3  # statements turned into items per QA prompt


def _rng(text: str) -> random.Random:
    return random.Random(hashlib.sha256(text.encode("utf-8")).hexdigest())


class PromptKeyedBackend:
    """Answers keyword expansion, query refinement, fact induction and QA
    synthesis prompts; any other prompt is an error.

    Expansion and refinement replies come from the generated table; facts are
    complete sentences of the passage (plus one compound sentence the
    program's structural check must reject); QA items are built from the
    statements, with one malformed mcq and one malformed open item per prompt
    for the program's validation to drop.
    """

    model = "prompt-keyed-fake"

    def __init__(self, table: dict):
        self.expansions = table["expansions"]
        self.refinements = table["refinements"]
        self.calls: Counter = Counter()
        # Replies are kept per prompt, so after the first pass the fake costs
        # one dictionary lookup per call: a backend with no latency.
        self._replies: dict[str, str] = {}

    @classmethod
    def from_file(cls, path: str | Path) -> "PromptKeyedBackend":
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))

    def complete(self, messages) -> str:
        prompt = messages[-1]["content"]
        kind, reply = self._replies.get(prompt, (None, None))
        if reply is None:
            kind, reply = self._answer(prompt)
            self._replies[prompt] = (kind, reply)
        self.calls[kind] += 1
        return reply

    def _answer(self, prompt: str) -> tuple[str, str]:
        if prompt.startswith("Propose search keywords"):
            m = _EXPANSION.search(prompt)
            keywords = self.expansions[f"{m['where']}|{m['seeds']}"]
            return "expand", "\n".join(f"- {k}" for k in keywords)
        if m := _REFINE.match(prompt):
            query = m["query"]
            return "refine", self.refinements.get(query, f"{query} gulf climate")
        if prompt.startswith("Extract atomic factual statements"):
            return "facts", self._facts(_PASSAGE.search(prompt)["passage"])
        if m := _QA.match(prompt):
            facts = [line[2:] for line in m["facts"].splitlines() if line.startswith("- ")]
            return "qa", json.dumps(self._qa(m["format"], facts, _rng(prompt)))
        raise ValueError(f"prompt of unknown kind: {prompt[:60]!r}")

    @staticmethod
    def _facts(passage: str) -> str:
        pieces = _SENTENCE_END.split(passage)
        # The first and last pieces may be cut by the chunk boundary.
        whole = [p for p in pieces[1:-1] if p.endswith(".") and "##" not in p]
        facts = whole[:3]
        compound = f"{whole[3][:-1]}, and {whole[4][0].lower()}{whole[4][1:]}"
        return "\n".join(facts + [compound])

    @staticmethod
    def _qa(fmt: str, facts: list[str], rng: random.Random) -> list[dict]:
        items: list[dict] = []
        for statement in facts[:QA_ITEMS_PER_PROMPT]:
            count = _COUNT.search(statement).group()
            if fmt == "mcq":
                offsets = rng.sample((-9, -5, -3, 4, 7, 11, 13), 3)
                options = [count] + [str(int(count) + o) for o in offsets]
                rng.shuffle(options)
                items.append({"question": "Which figure completes the statement: "
                                          + statement.replace(count, "___", 1),
                              "answer": count, "options": options})
            elif fmt == "open":
                items.append({"question": "What does the source report in the sentence "
                                          f"starting '{' '.join(statement.split()[:3])}'?",
                              "answer": statement})
            else:
                items.append({"entailed": statement,
                              "contradicted": statement.replace(count, str(int(count) + 1), 1)})
        if fmt == "mcq":
            first = items[0]
            items.append({"question": first["question"], "answer": first["answer"],
                          "options": [first["answer"]] * 3})
        elif fmt == "open":
            items.append({"question": items[0]["question"], "answer": ""})
        return items


class DelayedBackend:
    """Forwards to ``inner`` after a fixed wall-clock wait per call."""

    def __init__(self, inner, delay_s: float):
        self.inner = inner
        self.delay_s = delay_s
        self.model = f"scripted-replay+{delay_s * 1000:g}ms"

    def complete(self, messages) -> str:
        time.sleep(self.delay_s)
        return self.inner.complete(messages)
