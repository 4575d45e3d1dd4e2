"""The one HTTP/1.1 server the tests script: each request gets the reply step a script
chooses for it, over plain TCP or TLS, with Nagle's algorithm on or off.

It imports nothing from bteval or pytest, so a script can load it by path:

    with serve(lambda request: chat("译文")) as stub:
        ...  # POST to http://127.0.0.1:{stub.port}/v1/chat/completions
    stub.requests  # each request's index, path, headers and body

The server shuts down within 10 ms of the with block's end.
"""

from __future__ import annotations

import contextlib
import json
import ssl
import threading
from dataclasses import dataclass, field
from http.client import HTTPMessage
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, NamedTuple, Sequence, Union

TLS_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "tls"
TLS_CERT, TLS_KEY = TLS_DIR / "localhost.crt", TLS_DIR / "localhost.key"


@dataclass(frozen=True)
class Step:
    """One scripted reply. Its head carries Content-Length, an empty body's too, so a
    keep-alive client never reads to EOF; the head and body go out in two writes."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict = field(default_factory=dict)  # sent after Content-Type and Content-Length
    close: bool = False  # close the connection after the reply, without Connection: close
    raw: bytes | None = None  # written in place of a reply; then the connection closes
    cut: int | None = None  # send this many bytes of the body, then close the connection


def chat(content, **fields) -> Step:
    """A chat-completion reply carrying content (None for a refusal's null content)."""
    return Step(body=json.dumps({"choices": [{"message": {"content": content}}]}).encode("utf-8"),
                **fields)


def plain(body: str | bytes, content_type: str = "text/plain; charset=utf-8", **fields) -> Step:
    """A plain-text reply; a str body goes out as UTF-8."""
    return Step(body=body.encode("utf-8") if isinstance(body, str) else body,
                content_type=content_type, **fields)


class Request(NamedTuple):
    index: int  # 0 for the first request the stub read, over any connection
    path: str
    headers: HTTPMessage
    body: bytes


Reply = Union[Sequence[Step], Callable[[Request], Step]]


class Stub(ThreadingHTTPServer):
    """A running stub: its port, how many connections it accepted, each request it read
    and a semaphore released once per connection it closed."""

    def __init__(self, reply: Reply, nagle: bool) -> None:
        super().__init__(("127.0.0.1", 0), _Handler)
        self.port = self.server_address[1]
        self.reply = reply
        self.nagle = nagle
        self.connections = 0
        self.requests: list[Request] = []
        self.closed = threading.Semaphore(0)
        self.lock = threading.Lock()

    def answer(self, path: str, headers: HTTPMessage, body: bytes) -> Step:
        with self.lock:
            request = Request(len(self.requests), path, headers, body)
            self.requests.append(request)
        # outside the lock: a reply function may wait for another request
        return self.reply(request) if callable(self.reply) else self.reply[request.index]

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        self.closed.release()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive unless a step closes

    def setup(self) -> None:
        self.disable_nagle_algorithm = not self.server.nagle
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self) -> None:
        step = self.server.answer(self.path, self.headers,
                                  self.rfile.read(int(self.headers["Content-Length"])))
        self.close_connection = step.close or step.raw is not None or step.cut is not None
        if step.raw is not None:
            self.wfile.write(step.raw)
            return
        self.send_response(step.status)
        self.send_header("Content-Type", step.content_type)
        self.send_header("Content-Length", str(len(step.body)))
        for name, value in step.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(step.body[:step.cut])

    def log_message(self, *args) -> None:
        pass


@contextlib.contextmanager
def serve(reply: Reply, tls: bool = False, nagle: bool = True):
    """Serve on 127.0.0.1 for the with block. reply is a list whose i-th step answers the
    i-th request, or a function from each Request to its step. With tls the stub speaks
    HTTPS with the self-signed fixture certificate for 127.0.0.1 and localhost."""
    stub = Stub(reply, nagle)
    if tls:
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(TLS_CERT, TLS_KEY)
        stub.socket = context.wrap_socket(stub.socket, server_side=True)
    threading.Thread(target=stub.serve_forever, args=(0.01,), daemon=True).start()
    try:
        yield stub
    finally:
        stub.shutdown()
        stub.server_close()
