"""``parse_document`` returns the tokens and section breaks of the reference.

The reference is the earlier two-pass design: an extractor that also captured
the page's title, ``<meta>`` and ``<link>`` tags and decoded the page from
bytes, then a second pass that re-split the cleaned text into lines to find
the ``## `` headings. The one-pass ``parse_document`` takes the page as a
``str`` and must give the tokens of the reference's text (its ``split()``)
and the same breaks.

Two differences are intended. First, the reference reads everything after a
``<title>`` left open as title text, so such a page loses its body;
``parse_document`` ends an open title at ``</head>`` or at the first start
tag that cannot sit in a head. :func:`close_titles` writes those ends into a
page, and ``parse_document`` must give on any page what the reference gives
on that page with its titles closed. Second, the reference's text pass takes
any line that starts with ``## `` for a heading, so ``<p>## x</p>`` makes a
section break; ``parse_document`` breaks at heading tags only.
:func:`tag_breaks_only` keeps just the reference's breaks at heading tags.
"""

import json
import re
import sys
from html.parser import HTMLParser
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gulfclimate.textforge.parsing import EmptyAfterCleaning, parse_document
from gulfclimate.tools.providers import FixtureStore
from gulfclimate.tools.web import FixtureSearch

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import generate  # noqa: E402

# -- the reference: extractor and break finder as they were ----------------------

_BOILERPLATE_TAGS = frozenset(
    {"nav", "header", "footer", "aside", "script", "style", "form", "button", "noscript"}
)
_BLOCK_TAGS = frozenset({"p", "li", "td", "th", "blockquote", "pre", "div", "article", "section"})
_HEADING_TAGS = frozenset({"h1", "h2", "h3", "h4", "h5", "h6"})


class _ReferenceExtractor(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.blocks: list[str] = []
        self.tag_headings: set[int] = set()  # indices of blocks from heading tags
        self.meta: dict[str, str] = {}
        self._boilerplate_depth = 0
        self._link_depth = 0
        self._heading: list[str] | None = None
        self._text: list[str] = []
        self._link_chars = 0
        self._in_title = False
        self._title: list[str] = []

    def handle_starttag(self, tag, attrs):
        attrs = dict(attrs)
        if tag in _BOILERPLATE_TAGS:
            self._boilerplate_depth += 1
            return
        if self._boilerplate_depth:
            return
        if tag == "title":
            self._in_title = True
        elif tag == "meta":
            name = (attrs.get("name") or attrs.get("property") or "").casefold()
            content = attrs.get("content")
            if content and name in ("date", "article:published_time", "dc.date"):
                self.meta.setdefault("date", content)
            elif content and name in ("organization", "og:site_name", "author", "publisher"):
                self.meta.setdefault("organization", content)
            elif content and name == "og:url":
                self.meta.setdefault("url", content)
        elif tag == "link" and attrs.get("rel") == "canonical" and attrs.get("href"):
            self.meta.setdefault("url", attrs["href"])
        elif tag == "a":
            self._link_depth += 1
        elif tag in _HEADING_TAGS:
            self._flush()
            self._heading = []
        elif tag in _BLOCK_TAGS:
            self._flush()

    def handle_endtag(self, tag):
        if tag in _BOILERPLATE_TAGS:
            self._boilerplate_depth = max(0, self._boilerplate_depth - 1)
            return
        if self._boilerplate_depth:
            return
        if tag == "title":
            self._in_title = False
        elif tag == "a":
            self._link_depth = max(0, self._link_depth - 1)
        elif tag in _HEADING_TAGS and self._heading is not None:
            heading = " ".join(" ".join(self._heading).split())
            if heading:
                self.tag_headings.add(len(self.blocks))
                self.blocks.append(f"## {heading}")
            self._heading = None
        elif tag in _BLOCK_TAGS:
            self._flush()

    def handle_data(self, data):
        if self._boilerplate_depth:
            return
        if self._in_title:
            self._title.append(data)
            return
        if self._heading is not None:
            self._heading.append(data)
            return
        self._text.append(data)
        if self._link_depth:
            self._link_chars += len(data.strip())

    def _flush(self):
        text = " ".join(" ".join(self._text).split())
        chars = len(text)
        if chars:
            if self._link_chars / max(chars, 1) <= 0.5:
                self.blocks.append(text)
        self._text = []
        self._link_chars = 0

    def close(self):
        self._flush()
        super().close()


def _section_breaks(text: str) -> tuple[list[int], list[tuple[int, str]]]:
    breaks: list[int] = []
    headers: list[tuple[int, str]] = []
    position = 0
    for line in text.splitlines():
        tokens = line.split()
        if line.startswith("## "):
            breaks.append(position)
            headers.append((position, line[3:].strip()))
        position += len(tokens)
    return breaks, headers


def _reference_extract(raw: bytes) -> tuple[_ReferenceExtractor, str]:
    extractor = _ReferenceExtractor()
    extractor.feed(raw.decode("utf-8", errors="replace"))
    extractor.close()
    content = "\n\n".join(extractor.blocks).strip()
    if not content:
        raise EmptyAfterCleaning("no content blocks after boilerplate removal")
    return extractor, content


def reference_parse(raw: bytes) -> tuple[str, list[int]]:
    _extractor, content = _reference_extract(raw)
    return content, _section_breaks(content)[0]


def tag_breaks_only(raw: bytes) -> tuple[str, list[int]]:
    """:func:`reference_parse`, keeping only the breaks that start a block the
    extractor made from a heading tag."""
    extractor, content = _reference_extract(raw)
    starts, position = set(), 0
    for index, block in enumerate(extractor.blocks):
        if index in extractor.tag_headings:
            starts.add(position)
        position += len(block.split())
    return content, [b for b in _section_breaks(content)[0] if b in starts]


# Where parse_document ends a title left open: before a start tag that cannot
# sit in a head, and before ``</head>``.
_TITLE_ENDS = re.compile(
    r"(?=<(?!(?:base|link|meta|noscript|script|style|template|title)\b)[a-z]|</head>)")


def close_titles(page: str) -> str:
    """``page`` with ``</title>`` before every place an open title ends.

    The reference ignores an end tag inside boilerplate and treats one
    outside a title as a no-op, so only a title left open changes.
    """
    return _TITLE_ENDS.sub("</title>", page)


def outcome(parse, page):
    try:
        return parse(page)
    except EmptyAfterCleaning:
        return "empty"


def reference_tokens(page: str):
    """:func:`tag_breaks_only` of ``page``, its text split into tokens."""
    got = outcome(tag_breaks_only, page.encode("utf-8"))
    return got if got == "empty" else (got[0].split(), got[1])


def assert_parses_as_reference(page: str, reference_page: str) -> None:
    """``parse_document(page)`` is the reference's tokens and breaks for
    ``reference_page``, and every break indexes a ``##`` token."""
    got = outcome(parse_document, page)
    assert got == reference_tokens(reference_page)
    if got != "empty":
        tokens, breaks = got
        assert all(tokens[b] == "##" for b in breaks)


# -- generated HTML ----------------------------------------------------------------

WORDS = st.sampled_from([
    "rain", "Doha", "47", "C", "##", "## ", "#", "&amp;", "&lt;p&gt;", "\u00e9t\u00e9",
    " ", "  ", "\n", "\t", "\u00a0", "\x0c", "\u2028",
])
text = st.lists(WORDS, max_size=8).map("".join)
CONTAINERS = ["p", "div", "li", "td", "article", "section", "span", "em", "a", "a",
              "h1", "h2", "h3", "h6", "nav", "header", "footer", "aside", "title"]
heading_para = st.builds(lambda t: f"<p>## {t}</p>", text)
head_tag = st.sampled_from([
    '<meta name="date" content="2023-04-15">',
    '<meta property="og:site_name" content="Gulf Climate Office">',
    '<meta name="og:url" content="https://example.org/a">',
    '<link rel="canonical" href="https://example.org/a">',
    '<link rel="stylesheet" href="/a.css">',
    "<title>Annual rain report</title>",
])


def _wrap(children):
    return st.builds(lambda tag, parts: f"<{tag}>{''.join(parts)}</{tag}>",
                     st.sampled_from(CONTAINERS), st.lists(children, max_size=4))


def _link_dense(words):
    return f"<p>{words} <a href='/x'>home reports contact archive</a></p>"


fragment = st.recursive(
    st.one_of(text, heading_para, st.builds(_link_dense, text)),
    _wrap, max_leaves=12)


@st.composite
def pages(draw):
    head = "".join(draw(st.lists(head_tag, max_size=4)))
    if draw(st.integers(0, 3)) == 0:
        head += "<title>" + draw(text)  # left open: ends at </head>
    body = "".join(draw(st.lists(fragment, max_size=6)))
    return f"<!DOCTYPE html><html><head>{head}</head><body>{body}</body></html>"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(page=pages())
def test_generated_pages_parse_as_the_reference(page):
    assert_parses_as_reference(page, close_titles(page))


@settings(max_examples=100, deadline=None)
@given(chrome=st.sampled_from(["nav", "header", "footer", "aside"]),
       inner=st.lists(fragment, max_size=4), head=st.lists(head_tag, max_size=4))
def test_boilerplate_only_pages_are_empty_after_cleaning(chrome, inner, head):
    page = (f"<html><head>{''.join(head)}</head><body>"
            f"<{chrome}>{''.join(inner)}</{chrome}></body></html>")
    with pytest.raises(EmptyAfterCleaning):
        parse_document(page)
    with pytest.raises(EmptyAfterCleaning):
        reference_parse(page.encode("utf-8"))


def test_an_unclosed_title_ends_at_the_head_or_the_body():
    page = ("<html><head><title>Rain brief</head><body><h1>Rain</h1>"
            "<p>12 mm fell in Doha.</p></body></html>")
    assert parse_document(page) == ("## Rain 12 mm fell in Doha.".split(), [0])
    assert outcome(reference_parse, page.encode("utf-8")) == "empty"
    body_only = "<title>Rain brief<h1>Rain</h1><p>12 mm fell in Doha.</p>"
    assert parse_document(body_only) == parse_document(page)
    assert parse_document("<title>Rain brief</head>12 mm fell.") == (["12", "mm", "fell."], [])
    # Tags inside boilerplate are skipped, so they leave an open title open.
    in_chrome = "<title>Rain brief<noscript><p>Enable JS</p></noscript> still title"
    assert outcome(parse_document, in_chrome) == "empty"


def test_a_fixed_page_keeps_headings_and_drops_head_and_chrome():
    page = ("<html><head><title>Rain brief</title>"
            '<meta name="date" content="2023-04-15"></head><body>'
            "<nav><h2>Menu</h2></nav><h1>Rain  in Doha</h1><p>12 mm fell.</p>"
            "<p>## not a tag heading</p><p><a href='/'>Home page link</a> x</p>"
            "<h2>Outlook</h2><div>More\nrain due.</div></body></html>")
    tokens, breaks = parse_document(page)
    assert tokens == ("## Rain in Doha 12 mm fell. ## not a tag heading "
                      "## Outlook More rain due.").split()
    assert breaks == [0, 12]
    assert reference_parse(page.encode("utf-8"))[1] == [0, 7, 12]


# -- the benchmark's generated corpus and the checked-in fixtures -----------------


def _corpus_pages(root: Path) -> list[str]:
    search = FixtureSearch(FixtureStore(root))
    urls = json.loads((root / "online_search.json").read_text(encoding="utf-8"))["pages"]
    return [search.page(url) for url in sorted(urls)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_corpus_pages_parse_as_the_reference(tmp_path, seed):
    meta = generate("forge-text", tmp_path, seed)
    pages = _corpus_pages(tmp_path / "fixtures")
    assert len(pages) == meta["pages"] > 0
    for page in pages:
        assert_parses_as_reference(page, page)


def test_fixture_pages_parse_as_the_reference():
    pages = _corpus_pages(ROOT / "fixtures")
    assert pages
    for page in pages:
        assert_parses_as_reference(page, page)
