"""LLM backend bindings: a remote chat endpoint or a deterministic script."""

from __future__ import annotations

import os
from pathlib import Path
from time import sleep
from typing import Callable, Mapping, Protocol, Sequence

from ..errors import ConfigError, GulfClimateError
from ..httpjson import BadResponse, HttpStatusError, request_json
from ..jsoninput import read_json

Message = Mapping[str, str]

RETRY_TRIES = 4  # tries per remote call before a retryable failure is final
RETRY_BACKOFF_S = 1.0  # sleep before the second try, doubled before each further one


class BackendFailure(GulfClimateError):
    """The backend could not produce an emission."""


class LLMBackend(Protocol):
    def complete(self, messages: Sequence[Message]) -> str:
        """Produce the next emission given the conversation so far."""
        ...


class ScriptedBackend:
    """Replays a fixed emission sequence; deterministic by construction.

    The replay file format is a JSON object with an ``emissions`` array of
    strings; each ``complete`` call returns the next entry regardless of the
    incoming conversation, so a replay is only meaningful against the run it
    was written for. :meth:`from_file` raises :class:`ConfigError` for a file
    of another shape, naming the first emission that is not a string.
    """

    def __init__(self, emissions: Sequence[str]):
        self._emissions = tuple(emissions)
        self._cursor = 0

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedBackend":
        doc = read_json(path, "replay file")
        emissions = doc.get("emissions") if isinstance(doc, dict) else None
        if not isinstance(emissions, list):
            raise ConfigError(f"replay file {path} has no 'emissions' array")
        for k, emission in enumerate(emissions):
            if not isinstance(emission, str):
                raise ConfigError(f"replay file {path}: emissions[{k}] is not a string: "
                                  f"{emission!r}")
        return cls(emissions)

    @property
    def remaining(self) -> int:
        return len(self._emissions) - self._cursor

    def complete(self, messages: Sequence[Message]) -> str:
        if self._cursor >= len(self._emissions):
            raise BackendFailure("scripted replay exhausted")
        emission = self._emissions[self._cursor]
        self._cursor += 1
        return emission


class RemoteChatBackend:
    """A chat-completion HTTP endpoint (OpenAI-style request/response shape).

    A timeout, a connection error, an HTTP 429 or a 5xx response is retried,
    up to ``RETRY_TRIES`` tries in all, after sleeping ``RETRY_BACKOFF_S`` and
    then twice as long before each further try; any other failure, or the
    last try's, raises ``BackendFailure``. Each try opens its own connection
    through ``opener`` (``urllib.request.urlopen`` unless a test injects
    another), so one backend may serve several harness threads at once: a
    ``gulfclimate bench`` run can have up to ``evalharness.runner.MAX_WORKERS``
    requests in flight, and the 429/5xx retry policy absorbs the rate limits
    that this may hit.
    """

    def __init__(self, endpoint: str, model: str, api_key_env: str = "",
                 timeout_s: float = 60.0,
                 opener: Callable | None = None):
        self.endpoint = endpoint
        self.model = model
        self.api_key_env = api_key_env
        self.timeout_s = timeout_s
        self.opener = opener

    def complete(self, messages: Sequence[Message]) -> str:
        headers: dict[str, str] = {}
        if self.api_key_env:
            key = os.environ.get(self.api_key_env)
            if not key:
                raise BackendFailure(f"environment variable {self.api_key_env} is not set")
            headers["Authorization"] = f"Bearer {key}"
        body = {
            "model": self.model,
            "temperature": 0.0,
            "messages": [dict(m) for m in messages],
        }
        delay = RETRY_BACKOFF_S
        for attempt in range(1, RETRY_TRIES + 1):
            try:
                data = request_json(self.endpoint, timeout=self.timeout_s, body=body,
                                    headers=headers, opener=self.opener)
                return data["choices"][0]["message"]["content"]
            except HttpStatusError as exc:
                if exc.status != 429 and exc.status < 500:
                    raise BackendFailure(f"backend request failed: {exc}") from exc
                failure = f"HTTP {exc.status}"
            except (TimeoutError, ConnectionError) as exc:
                failure = str(exc)
            except BadResponse as exc:
                raise BackendFailure(f"backend request failed: {exc}") from exc
            except (KeyError, IndexError, TypeError) as exc:
                raise BackendFailure(f"malformed backend response: {exc}") from exc
            if attempt < RETRY_TRIES:
                sleep(delay)
                delay *= 2
        raise BackendFailure(f"backend request failed after {RETRY_TRIES} tries: {failure}")
