"""HTML page parsing into word tokens and section breaks.

The recorded search corpus holds HTML pages only, so HTML is the one input
kind. :func:`parse_document` returns two things: the whitespace word tokens
of the page's content blocks, in page order, each heading led by one ``##``
token, and the token index at which each heading starts. Only heading tags
make breaks; a paragraph whose text starts with ``## `` does not. The breaks
only steer where chunk starts snap (see :mod:`.chunking`); no heading is kept
apart from the tokens.
"""

from __future__ import annotations

from html.parser import HTMLParser

from ..errors import GulfClimateError

# Blocks dropped wholesale: navigation chrome and non-content machinery.
_BOILERPLATE_TAGS = frozenset(
    {"nav", "header", "footer", "aside", "script", "style", "form", "button", "noscript"}
)
_BLOCK_TAGS = frozenset({"p", "li", "td", "th", "blockquote", "pre", "div", "article", "section"})
_HEADING_TAGS = frozenset({"h1", "h2", "h3", "h4", "h5", "h6"})
_HEADING_MARKER = "##"
# Tags that may sit in a page's head. Outside boilerplate, any other start
# tag, or ``</head>``, ends a ``<title>`` left open, so an unclosed title
# cannot swallow the body.
_HEAD_TAGS = frozenset(
    {"base", "link", "meta", "noscript", "script", "style", "template", "title"}
)

# A block whose characters are mostly link text is navigation, not content.
LINK_DENSITY_LIMIT = 0.5


class EmptyAfterCleaning(GulfClimateError, ValueError):
    pass


class _Extractor(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.tokens: list[str] = []
        self.breaks: list[int] = []  # token index of each heading's marker
        self._boilerplate_depth = 0
        self._link_depth = 0
        self._heading: list[str] | None = None
        self._text: list[str] = []
        self._link_chars = 0
        self._in_title = False  # the page title is not content

    def handle_starttag(self, tag, attrs):
        if tag not in _HEAD_TAGS and not self._boilerplate_depth:
            self._in_title = False
        if tag in _BOILERPLATE_TAGS:
            self._boilerplate_depth += 1
            return
        if self._boilerplate_depth:
            return
        if tag == "title":
            self._in_title = True
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
        if tag in ("title", "head"):
            self._in_title = False
        elif tag == "a":
            self._link_depth = max(0, self._link_depth - 1)
        elif tag in _HEADING_TAGS and self._heading is not None:
            words = " ".join(self._heading).split()
            if words:
                self.breaks.append(len(self.tokens))
                self.tokens.append(_HEADING_MARKER)
                self.tokens.extend(words)
            self._heading = None
        elif tag in _BLOCK_TAGS:
            self._flush()

    def handle_data(self, data):
        if self._boilerplate_depth or self._in_title:
            return
        if self._heading is not None:
            self._heading.append(data)
            return
        self._text.append(data)
        if self._link_depth:
            self._link_chars += len(data.strip())

    def _flush(self):
        words = " ".join(self._text).split()
        if words:
            # The block's length with its words joined by single spaces.
            chars = sum(map(len, words)) + len(words) - 1
            if self._link_chars / chars <= LINK_DENSITY_LIMIT:
                self.tokens.extend(words)
        self._text = []
        self._link_chars = 0

    def close(self):
        self._flush()
        super().close()

    def updatepos(self, i, j):
        # The base class counts lines and columns here, for getpos() alone,
        # on every tag and text run; nothing here reads them.
        return j


def parse_document(page: str) -> tuple[list[str], list[int]]:
    """The page's main content as word tokens, and the token index of each
    section start.

    Blocks are kept or dropped by tag and by link density; a kept block adds
    its whitespace tokens, and a heading adds one ``##`` token before its
    words. Each heading tag is a section break at the index of its ``##``
    token. Raises :class:`EmptyAfterCleaning` when no content block is left.
    """
    extractor = _Extractor()
    extractor.feed(page)
    extractor.close()
    if not extractor.tokens:
        raise EmptyAfterCleaning("no content blocks after boilerplate removal")
    return extractor.tokens, extractor.breaks
