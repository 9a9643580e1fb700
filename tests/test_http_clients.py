"""Tests of the HTTP clients with fake sessions: backend retry, per-thread sessions."""

import threading

import pytest
import requests

from gulfclimate.agent import backend as backend_module
from gulfclimate.agent.backend import BackendFailure, RemoteChatBackend
from gulfclimate.tools import ProviderConfig
from gulfclimate.tools.providers import HttpSession

MESSAGES = [{"role": "user", "content": "Rain in Doha on 2023-04-15?"}]


class FakeResponse:
    def __init__(self, status_code, payload=None):
        self.status_code = status_code
        self.payload = payload

    def raise_for_status(self):
        if self.status_code >= 400:
            raise requests.HTTPError(f"{self.status_code} error")

    def json(self):
        return self.payload


def ok(content):
    return FakeResponse(200, {"choices": [{"message": {"content": content}}]})


class FakeSession:
    """Answers each ``post`` with the next outcome, raising it if an exception."""

    def __init__(self, *outcomes):
        self.outcomes = list(outcomes)
        self.posts = []

    def post(self, url, json, headers, timeout):
        self.posts.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


@pytest.fixture
def sleeps(monkeypatch):
    slept = []
    monkeypatch.setattr(backend_module, "sleep", slept.append)
    return slept


def backend(session, **kwargs):
    return RemoteChatBackend("http://chat.invalid/v1", "m", session=session, **kwargs)


def test_retries_rate_limits_and_server_errors_with_doubling_backoff(sleeps):
    session = FakeSession(FakeResponse(429), FakeResponse(503), ok("rain_inquiry(...)"))
    assert backend(session).complete(MESSAGES) == "rain_inquiry(...)"
    assert len(session.posts) == 3
    assert sleeps == [1.0, 2.0]


def test_retries_timeouts_and_connection_errors(sleeps):
    session = FakeSession(requests.ReadTimeout("slow"), requests.ConnectionError("reset"),
                          ok("done"))
    assert backend(session).complete(MESSAGES) == "done"
    assert sleeps == [1.0, 2.0]


def test_gives_up_after_the_last_try_without_sleeping_after_it(sleeps):
    session = FakeSession(*[FakeResponse(500)] * 4)
    with pytest.raises(BackendFailure, match="after 4 tries: HTTP 500"):
        backend(session).complete(MESSAGES)
    assert len(session.posts) == 4
    assert sleeps == [1.0, 2.0, 4.0]


@pytest.mark.parametrize("response", [FakeResponse(400), FakeResponse(401),
                                      FakeResponse(200, {"choices": []})])
def test_client_errors_and_malformed_bodies_fail_at_once(sleeps, response):
    session = FakeSession(response, ok("never reached"))
    with pytest.raises(BackendFailure):
        backend(session).complete(MESSAGES)
    assert len(session.posts) == 1
    assert sleeps == []


def test_request_carries_model_messages_and_key(monkeypatch, sleeps):
    monkeypatch.setenv("CHAT_KEY", "k-123")
    session = FakeSession(ok("x"))
    backend(session, api_key_env="CHAT_KEY", timeout_s=7.0).complete(MESSAGES)
    (post,) = session.posts
    assert post["json"] == {"model": "m", "temperature": 0.0, "messages": MESSAGES}
    assert post["headers"]["Authorization"] == "Bearer k-123"
    assert post["timeout"] == 7.0


def test_missing_key_fails_before_any_request(monkeypatch, sleeps):
    monkeypatch.delenv("CHAT_KEY", raising=False)
    session = FakeSession()
    with pytest.raises(BackendFailure, match="CHAT_KEY"):
        backend(session, api_key_env="CHAT_KEY").complete(MESSAGES)
    assert session.posts == []


def test_http_session_keeps_one_session_per_thread():
    http = HttpSession(ProviderConfig(kind="live_http"))
    seen = {}

    def grab(name):
        seen[name] = (http.session(), http.session())

    threads = [threading.Thread(target=grab, args=(n,)) for n in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    grab("main")
    assert all(first is second for first, second in seen.values())
    assert len({id(first) for first, _ in seen.values()}) == 3
