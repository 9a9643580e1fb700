"""HTML page parsing into clean text with section markers.

The recorded search corpus holds HTML pages only, so HTML is the one input
kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from html.parser import HTMLParser

from ..errors import GulfClimateError

# Blocks dropped wholesale: navigation chrome and non-content machinery.
_BOILERPLATE_TAGS = frozenset(
    {"nav", "header", "footer", "aside", "script", "style", "form", "button", "noscript"}
)
_BLOCK_TAGS = frozenset({"p", "li", "td", "th", "blockquote", "pre", "div", "article", "section"})
_HEADING_TAGS = frozenset({"h1", "h2", "h3", "h4", "h5", "h6"})

# A block whose characters are mostly link text is navigation, not content.
LINK_DENSITY_LIMIT = 0.5


class EmptyAfterCleaning(GulfClimateError, ValueError):
    pass


@dataclass(frozen=True)
class DocumentMeta:
    title: str | None = None
    organization: str | None = None
    date: str | None = None
    url: str | None = None


class _Extractor(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.blocks: list[str] = []  # heading markers use a "## " prefix
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
            if self._link_chars / max(chars, 1) <= LINK_DENSITY_LIMIT:
                self.blocks.append(text)
        self._text = []
        self._link_chars = 0

    def close(self):
        self._flush()
        super().close()

    @property
    def title(self) -> str | None:
        title = " ".join(" ".join(self._title).split())
        return title or None


def parse_document(raw: bytes) -> tuple[str, DocumentMeta]:
    """Extract main content, drop boilerplate, keep ``## `` section markers.

    Blocks are kept or dropped by tag and by link density; headings become
    ``## `` lines. Raises :class:`EmptyAfterCleaning` when no content block
    is left.
    """
    extractor = _Extractor()
    extractor.feed(raw.decode("utf-8", errors="replace"))
    extractor.close()
    content = "\n\n".join(extractor.blocks).strip()
    if not content:
        raise EmptyAfterCleaning("no content blocks after boilerplate removal")
    meta = DocumentMeta(
        title=extractor.title,
        organization=extractor.meta.get("organization"),
        date=extractor.meta.get("date"),
        url=extractor.meta.get("url"),
    )
    return content, meta
