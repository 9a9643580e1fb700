"""HTML page parsing into clean text and section breaks.

The recorded search corpus holds HTML pages only, so HTML is the one input
kind. :func:`parse_document` returns two things: the page's content blocks
joined by blank lines, each heading written as a ``## `` line, and the token
index at which each heading starts. Only heading tags make breaks; a
paragraph whose text starts with ``## `` does not. The breaks only steer
where chunk starts snap (see :mod:`.chunking`); no heading is kept apart from
the text.
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
_HEADING_MARKER = "## "
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
        self.blocks: list[str] = []
        self.breaks: list[int] = []  # token index of each heading block
        self._tokens = 0
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
                self.breaks.append(self._tokens)
                # The marker is one more token.
                self._append(_HEADING_MARKER + " ".join(words), 1 + len(words))
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
        # One split gives both the normalised block and its token count.
        words = " ".join(self._text).split()
        if words:
            text = " ".join(words)
            if self._link_chars / len(text) <= LINK_DENSITY_LIMIT:
                self._append(text, len(words))
        self._text = []
        self._link_chars = 0

    def _append(self, block: str, tokens: int) -> None:
        """Keep ``block``, which is ``tokens`` whitespace tokens long."""
        self.blocks.append(block)
        self._tokens += tokens

    def close(self):
        self._flush()
        super().close()

    def updatepos(self, i, j):
        # The base class counts lines and columns here, for getpos() alone,
        # on every tag and text run; nothing here reads them.
        return j


def parse_document(raw: bytes) -> tuple[str, list[int]]:
    """The page's main content and the token index of each section start.

    Blocks are kept or dropped by tag and by link density; headings become
    ``## `` lines, and the text is the blocks joined by blank lines. Each
    heading tag's block is a section break at the index of its first
    whitespace token, so the breaks index ``text.split()``. Raises
    :class:`EmptyAfterCleaning` when no content block is left.
    """
    extractor = _Extractor()
    extractor.feed(raw.decode("utf-8", errors="replace"))
    extractor.close()
    if not extractor.blocks:
        raise EmptyAfterCleaning("no content blocks after boilerplate removal")
    return "\n\n".join(extractor.blocks), extractor.breaks
