"""JSON over HTTP on the standard library: one request, one decoded reply.

Both HTTP clients of the package, the remote chat backend and the live
climate providers, send their requests through :func:`request_json`, which
maps every failure to one of four errors:

- a non-2xx reply raises :class:`HttpStatusError`, carrying the status code;
- a socket timeout, at connect or at read, raises :class:`TimeoutError`;
- a failed or dropped connection raises :class:`ConnectionError`;
- an undecodable body, a broken HTTP exchange or an unusable URL raises
  :class:`BadResponse`.

Callers decide which of these to retry.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Mapping
from urllib.parse import urlencode

from .errors import GulfClimateError


class BadResponse(GulfClimateError):
    """The exchange completed, or could not start, without a usable JSON reply."""


class HttpStatusError(GulfClimateError):
    """The server answered with a status outside 2xx."""

    def __init__(self, status: int, reason: str):
        super().__init__(f"HTTP {status} {reason}".rstrip())
        self.status = status


def request_json(url: str, *, timeout: float, params: Mapping[str, Any] | None = None,
                 body: Any = None, headers: Mapping[str, str] | None = None,
                 opener: Callable | None = None) -> Any:
    """GET ``url`` with ``params`` URL-encoded, or POST ``body`` as JSON when it
    is given, and return the decoded JSON reply.

    ``timeout`` bounds the connect and each socket read. ``opener`` stands in
    for :func:`urllib.request.urlopen` (tests inject one).
    """
    # Imported on first use: http.client, ssl and email cost about 50 ms of
    # start-up, and most runs make no HTTP call.
    import urllib.request
    from http.client import HTTPException
    from urllib.error import HTTPError, URLError

    if params:
        url = f"{url}{'&' if '?' in url else '?'}{urlencode(params)}"
    data = None
    all_headers = dict(headers or {})
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        all_headers["Content-Type"] = "application/json"
    try:
        request = urllib.request.Request(url, data=data, headers=all_headers)
        with (opener or urllib.request.urlopen)(request, timeout=timeout) as response:
            raw = response.read()
    except HTTPError as exc:
        exc.close()
        raise HttpStatusError(exc.code, str(exc.reason or "")) from exc
    except URLError as exc:
        if isinstance(exc.reason, TimeoutError):
            raise TimeoutError(f"{url}: timed out after {timeout} s") from exc
        if isinstance(exc.reason, OSError):
            raise ConnectionError(f"{url}: {exc.reason}") from exc
        raise BadResponse(f"{url}: {exc.reason}") from exc
    except TimeoutError as exc:
        raise TimeoutError(f"{url}: timed out after {timeout} s") from exc
    except OSError as exc:
        raise ConnectionError(f"{url}: {exc}") from exc
    except (HTTPException, ValueError) as exc:
        raise BadResponse(f"{url}: {exc}") from exc
    try:
        return json.loads(raw)
    except ValueError as exc:
        raise BadResponse(f"{url}: reply is not JSON: {exc}") from exc
