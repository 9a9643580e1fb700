"""Tests of the HTTP clients with injected openers: backend retry, provider errors."""

import io
import json
import threading
import urllib.error

import pytest

from gulfclimate.agent import backend as backend_module
from gulfclimate.agent.backend import BackendFailure, RemoteChatBackend
from gulfclimate.tools.errors import ProviderFailure
from gulfclimate.tools.providers import HttpSession, ProviderConfig

MESSAGES = [{"role": "user", "content": "Rain in Doha on 2023-04-15?"}]


class FakeResponse:
    """What ``urlopen`` returns for a 2xx reply: a context manager with ``read``."""

    def __init__(self, payload):
        self.body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self):
        return self.body


def status(code):
    """What ``urlopen`` raises for a non-2xx reply."""
    return urllib.error.HTTPError("http://chat.invalid/v1", code, "error", {}, io.BytesIO())


def ok(content):
    return FakeResponse({"choices": [{"message": {"content": content}}]})


class FakeOpener:
    """Answers each request with the next outcome, raising it if an exception."""

    def __init__(self, *outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    def __call__(self, request, timeout):
        body = json.loads(request.data) if request.data is not None else None
        self.requests.append({"url": request.full_url, "method": request.get_method(),
                              "json": body, "headers": dict(request.header_items()),
                              "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


@pytest.fixture
def sleeps(monkeypatch):
    slept = []
    monkeypatch.setattr(backend_module, "sleep", slept.append)
    return slept


def backend(opener, **kwargs):
    return RemoteChatBackend("http://chat.invalid/v1", "m", opener=opener, **kwargs)


def test_retries_rate_limits_and_server_errors_with_doubling_backoff(sleeps):
    opener = FakeOpener(status(429), status(503), ok("rain_inquiry(...)"))
    assert backend(opener).complete(MESSAGES) == "rain_inquiry(...)"
    assert len(opener.requests) == 3
    assert sleeps == [1.0, 2.0]


@pytest.mark.parametrize("timeout", [
    urllib.error.URLError(TimeoutError("timed out")),  # urlopen's connect timeout
    TimeoutError("timed out"),  # a read timeout
])
def test_retries_timeouts_and_connection_errors(sleeps, timeout):
    opener = FakeOpener(timeout,
                        urllib.error.URLError(ConnectionRefusedError(111, "refused")),
                        ConnectionResetError(104, "reset"), ok("done"))
    assert backend(opener).complete(MESSAGES) == "done"
    assert sleeps == [1.0, 2.0, 4.0]


def test_gives_up_after_the_last_try_without_sleeping_after_it(sleeps):
    opener = FakeOpener(*[status(500) for _ in range(4)])
    with pytest.raises(BackendFailure, match="after 4 tries: HTTP 500"):
        backend(opener).complete(MESSAGES)
    assert len(opener.requests) == 4
    assert sleeps == [1.0, 2.0, 4.0]


@pytest.mark.parametrize("response", [status(400), status(401),
                                      FakeResponse({"choices": []}),
                                      FakeResponse(b"<html>not json</html>")])
def test_client_errors_and_malformed_bodies_fail_at_once(sleeps, response):
    opener = FakeOpener(response, ok("never reached"))
    with pytest.raises(BackendFailure):
        backend(opener).complete(MESSAGES)
    assert len(opener.requests) == 1
    assert sleeps == []


def test_request_carries_model_messages_and_key(monkeypatch, sleeps):
    monkeypatch.setenv("CHAT_KEY", "k-123")
    opener = FakeOpener(ok("x"))
    backend(opener, api_key_env="CHAT_KEY", timeout_s=7.0).complete(MESSAGES)
    (request,) = opener.requests
    assert request["method"] == "POST"
    assert request["json"] == {"model": "m", "temperature": 0.0, "messages": MESSAGES}
    assert request["headers"]["Authorization"] == "Bearer k-123"
    assert request["headers"]["Content-type"] == "application/json"
    assert request["timeout"] == 7.0


def test_missing_key_fails_before_any_request(monkeypatch, sleeps):
    monkeypatch.delenv("CHAT_KEY", raising=False)
    opener = FakeOpener()
    with pytest.raises(BackendFailure, match="CHAT_KEY"):
        backend(opener, api_key_env="CHAT_KEY").complete(MESSAGES)
    assert opener.requests == []


@pytest.mark.parametrize("outcome, error", [
    (urllib.error.URLError(TimeoutError("timed out")), TimeoutError),
    (TimeoutError("timed out"), TimeoutError),
    (status(404), ProviderFailure),
    (status(503), ProviderFailure),
    (urllib.error.URLError(ConnectionRefusedError(111, "refused")), ProviderFailure),
    (FakeResponse(b"not json"), ProviderFailure),
])
def test_http_session_maps_timeouts_apart_from_other_failures(outcome, error):
    http = HttpSession(ProviderConfig(kind="live_http", timeout_s=3.0), opener=FakeOpener(outcome))
    with pytest.raises(error):
        http.get_json("http://weather.invalid/v1/archive", {"latitude": 25.29})


def test_http_session_serves_threads_at_once():
    """No per-thread state: each call opens its own connection."""
    opener = FakeOpener(*[FakeResponse({"n": n}) for n in range(8)])
    http = HttpSession(ProviderConfig(kind="live_http"), opener=opener)
    seen = []
    threads = [threading.Thread(target=lambda: seen.append(http.get_json("http://x.invalid/")))
               for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert sorted(d["n"] for d in seen) == list(range(8))
    assert all(r["timeout"] == 30.0 for r in opener.requests)
