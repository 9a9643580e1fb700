"""``request_json`` against a real HTTP server on the loopback interface.

The server runs inside the test on 127.0.0.1 with an OS-chosen port, so the
requests go through urllib's opener, real sockets and real timeouts. The
opener ignores any proxy settings in the environment, so nothing leaves the
machine.
"""

import json
import os
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit
from urllib.request import ProxyHandler, build_opener

import pytest

from gulfclimate.agent import backend as backend_module
from gulfclimate.agent.backend import BackendFailure, RemoteChatBackend
from gulfclimate.httpjson import BadResponse, HttpStatusError, request_json

DIRECT = build_opener(ProxyHandler({})).open
STALL_S = 5.0  # how long /stall holds a request unless the fixture releases it


class Handler(BaseHTTPRequestHandler):
    """``/echo`` returns the request; ``/status/N`` answers N; ``/notjson``
    answers HTML; ``/flaky`` answers 503 on its first request and a chat reply
    after; ``/stall`` answers nothing until released."""

    def do_GET(self):
        self._answer(None)

    def do_POST(self):
        self._answer(self.rfile.read(int(self.headers["Content-Length"])))

    def _answer(self, body):
        path = urlsplit(self.path).path
        self.server.hits[path] = self.server.hits.get(path, 0) + 1
        if path == "/stall":
            self.server.release.wait(STALL_S)
            return
        if path == "/echo":
            self._send(200, {"method": self.command, "path": self.path,
                             "headers": dict(self.headers),
                             "body": None if body is None else body.decode("utf-8")})
        elif path.startswith("/status/"):
            self._send(int(path.rsplit("/", 1)[1]), {"error": "status"})
        elif path == "/notjson":
            self._send(200, b"<html><body>rate limited</body></html>")
        elif path == "/flaky" and self.server.hits[path] == 1:
            self._send(503, {"error": "warming up"})
        elif path == "/flaky":
            self._send(200, {"choices": [{"message": {"content": "answer(...)"}}]})
        else:
            self._send(404, {"error": "no route"})

    def _send(self, code, payload):
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class Server(ThreadingHTTPServer):
    daemon_threads = False  # server_close joins every handler thread


@pytest.fixture
def base_url():
    server = Server(("127.0.0.1", 0), Handler)
    server.hits = {}
    server.release = threading.Event()
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.release.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.fixture
def sleeps(monkeypatch):
    slept = []
    monkeypatch.setattr(backend_module, "sleep", slept.append)
    return slept


def test_post_body_and_headers_arrive_as_sent(base_url):
    body = {"model": "m", "messages": [{"role": "user", "content": "Doha été 47 °C"}]}
    echo = request_json(f"{base_url}/echo", timeout=5.0, body=body,
                        headers={"Authorization": "Bearer k-123"}, opener=DIRECT)
    assert echo["method"] == "POST"
    assert json.loads(echo["body"]) == body
    assert echo["headers"]["Content-Type"] == "application/json"
    assert echo["headers"]["Authorization"] == "Bearer k-123"


def test_get_params_are_url_encoded(base_url):
    params = {"latitude": 25.29, "daily": "temperature_2m_mean,precipitation_sum",
              "q": "rain & dust?"}
    echo = request_json(f"{base_url}/echo", timeout=5.0, params=params, opener=DIRECT)
    assert echo["method"] == "GET" and echo["body"] is None
    path, _, query = echo["path"].partition("?")
    assert path == "/echo"
    assert query == ("latitude=25.29&daily=temperature_2m_mean%2Cprecipitation_sum"
                     "&q=rain+%26+dust%3F")
    assert parse_qs(query) == {k: [str(v)] for k, v in params.items()}


def test_backend_retries_a_503_then_takes_the_200(base_url, sleeps):
    chat = RemoteChatBackend(f"{base_url}/flaky", "m", timeout_s=5.0, opener=DIRECT)
    assert chat.complete([{"role": "user", "content": "hi"}]) == "answer(...)"
    assert sleeps == [1.0]


def test_a_400_fails_at_once(base_url, sleeps):
    with pytest.raises(HttpStatusError) as info:
        request_json(f"{base_url}/status/400", timeout=5.0, opener=DIRECT)
    assert info.value.status == 400
    chat = RemoteChatBackend(f"{base_url}/status/400", "m", timeout_s=5.0, opener=DIRECT)
    with pytest.raises(BackendFailure, match="HTTP 400"):
        chat.complete([{"role": "user", "content": "hi"}])
    assert sleeps == []


def test_a_body_that_is_not_json_fails(base_url, sleeps):
    with pytest.raises(BadResponse, match="not JSON"):
        request_json(f"{base_url}/notjson", timeout=5.0, opener=DIRECT)
    chat = RemoteChatBackend(f"{base_url}/notjson", "m", timeout_s=5.0, opener=DIRECT)
    with pytest.raises(BackendFailure):
        chat.complete([{"role": "user", "content": "hi"}])
    assert sleeps == []


def test_a_stalled_reply_raises_timeout_error(base_url):
    with pytest.raises(TimeoutError):
        request_json(f"{base_url}/stall", timeout=0.2, opener=DIRECT)


def test_a_refused_connection_raises_connection_error():
    with socket.socket() as probe:  # a loopback port with nothing listening
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with pytest.raises(ConnectionError):
        request_json(f"http://127.0.0.1:{port}/", timeout=5.0, opener=DIRECT)


def test_cli_import_loads_no_http_client_library():
    """``requests`` and ``urllib3`` are not dependencies, and urllib's HTTP
    stack loads only when a request is made."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import json, sys, gulfclimate.cli.main; "
             "print(json.dumps(sorted(sys.modules)))")
    loaded = set(json.loads(subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                           capture_output=True, text=True).stdout))
    assert "gulfclimate.cli.main" in loaded
    assert not {m for m in loaded if m.split(".")[0] in ("requests", "urllib3")}
    assert not loaded & {"urllib.request", "http.client"}
