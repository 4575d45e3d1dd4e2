"""How a request is sent: an HTTP chat-completion (or raw text) backend over pooled
keep-alive connections, with its rate limiter, retries and reply parsing.
"""

from __future__ import annotations

import functools
import json
import queue
import random
import threading
import time
from urllib.parse import urlsplit

from .config import PROMPT_VARIANTS, ZH_TO_EN, BackendConfig, api_key
from .jsonio import has_surrogate, loads

# A reply body longer than this is a failed attempt, not read into memory.
MAX_REPLY_BYTES = 16 * 1024 * 1024


class BackendError(RuntimeError):
    """A translation request that failed after all retries."""


class TokenBucket:
    """Blocking rate limiter, one per HTTP backend: each acquire reserves the next send
    slot, 1 / rate after the last one reserved and never in the past, and sleeps until it."""

    def __init__(self, rate_per_sec: float, clock=time.monotonic, sleep=time.sleep) -> None:
        self.rate = rate_per_sec
        self._clock = clock
        self._sleep = sleep
        self._next = clock()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        with self._lock:
            now = self._clock()
            start = max(now, self._next)
            self._next = start + 1.0 / self.rate
        if start > now:
            self._sleep(start - now)


def _template_for(config: BackendConfig, direction: str, variant: int) -> str:
    override = (config.prompt_template_forward if direction == ZH_TO_EN
                else config.prompt_template_backward)
    if override is not None:
        return override
    variants = PROMPT_VARIANTS[direction]
    return variants[variant % len(variants)]


class HttpBackend:
    """Chat-completion (or raw text) endpoint with retries and rate limiting.

    Requests go over stdlib keep-alive connections, at most one per calling
    thread, so a backend run on max_workers threads holds up to max_workers;
    an idle one waits in a queue for the next request. No cookies are kept,
    no proxy is used and no redirect is followed. HTTPS certificates are
    checked against the system trust store. A reused connection the server
    has dropped is reopened once without counting as a retry. A reply cut
    short of its Content-Length is a failed attempt, and its connection is
    closed. On Linux each reply's first segment is ACKed at once
    (TCP_QUICKACK), so a server that sends head and body apart with Nagle
    on adds no delayed-ACK wait; other platforms keep their default.
    """

    def __init__(self, config: BackendConfig, sleep=time.sleep) -> None:
        import http.client  # imported here: only a run with an http_llm backend needs them
        import socket
        import ssl

        self.config = config
        key = api_key(config)
        self._headers = {"Content-Type": "text/plain; charset=utf-8"
                         if config.wire_format == "raw" else "application/json"}
        if key is not None:
            self._headers["Authorization"] = f"Bearer {key}"
        parts = urlsplit(config.endpoint)
        if parts.scheme == "https":
            self._connect = functools.partial(
                http.client.HTTPSConnection, parts.hostname, parts.port or http.client.HTTPS_PORT,
                timeout=config.timeout, context=ssl.create_default_context())
        else:
            self._connect = functools.partial(
                http.client.HTTPConnection, parts.hostname, parts.port or http.client.HTTP_PORT,
                timeout=config.timeout)
        self._target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self._transport_errors = (OSError, http.client.HTTPException)
        quickack = getattr(socket, "TCP_QUICKACK", None)  # Linux only
        self._quickack = None if quickack is None else (socket.IPPROTO_TCP, quickack, 1)
        self._idle: queue.SimpleQueue = queue.SimpleQueue()
        self._sleep = sleep
        self._bucket = TokenBucket(config.rate_limit_rps, sleep=sleep)

    def close(self) -> None:
        """Close every idle keep-alive connection."""
        while True:
            try:
                self._idle.get_nowait().close()
            except queue.Empty:
                return

    def translate(self, text: str, direction: str, seed: int, variant: int) -> str:
        prompt = _template_for(self.config, direction, variant).replace("{text}", text)
        if self.config.wire_format == "raw":
            body = prompt.encode("utf-8")
        else:
            payload = {
                "model": self.config.model_name,
                "messages": [{"role": "user", "content": prompt}],
                "temperature": self.config.temperature,
                "seed": seed,
            }
            body = json.dumps(payload, allow_nan=False).encode()
        # retry jitter derives from the request seed so the schedule replays
        jitter_rng = random.Random(seed * 4 + 3)
        for attempt in range(self.config.max_retries + 1):
            self._bucket.acquire()
            try:
                return self._completion(*self._post(body))
            except self._transport_errors as exc:
                last_error = f"transport error: {exc}"
            except ValueError as exc:  # an oversized reply, an error status, or no completion
                last_error = str(exc)
            if attempt < self.config.max_retries:
                self._sleep((2 ** attempt) * 0.5 + jitter_rng.random() * 0.1)
        raise BackendError(f"{self.config.id}: {last_error}")

    def _post(self, body: bytes):
        """One POST over a pooled connection: (status, headers, body bytes)."""
        try:
            conn = self._idle.get_nowait()
        except queue.Empty:
            conn = self._connect()
        reused = conn.sock is not None
        try:
            try:
                response = self._exchange(conn, body)
            except (ConnectionResetError, BrokenPipeError):
                # RemoteDisconnected is a ConnectionResetError: the server closed
                # an idle keep-alive connection before this request reached it
                if not reused:
                    raise
                conn.close()
                response = self._exchange(conn, body)
            reply = response.read(MAX_REPLY_BYTES + 1)
            if len(reply) > MAX_REPLY_BYTES:  # closed below: its unread rest would be the next reply
                raise ValueError(f"reply longer than MAX_REPLY_BYTES ({MAX_REPLY_BYTES} bytes)")
            if response.length:  # the server closed short of its Content-Length (RFC 9112 6.3)
                import http.client  # read(amt) returns the short body without raising

                raise http.client.IncompleteRead(reply, response.length)
        except BaseException:
            conn.close()
            raise
        self._idle.put(conn)
        return response.status, response.headers, reply

    def _exchange(self, conn, body: bytes):
        """Send the POST on conn and read the reply's status line and headers."""
        conn.request("POST", self._target, body, self._headers)
        if self._quickack is not None:
            # ACK the reply's first segment at once: a server that sends the head and
            # body apart with Nagle on holds the body until then (RFC 896 against RFC
            # 1122's delayed ACK). Linux clears the flag after an exchange, so set it
            # on every request.
            conn.sock.setsockopt(*self._quickack)
        return conn.getresponse()

    def _completion(self, status: int, headers, reply: bytes) -> str:
        """The completion a reply carries; a ValueError says why it carries none."""
        if not 200 <= status < 300:
            raise ValueError(f"HTTP {status}")
        if self.config.wire_format == "raw":
            # the prompt goes out as UTF-8, so the reply is UTF-8 unless it names a text codec
            charset = headers.get_content_charset() or "utf-8"
            try:
                completion = reply.decode(charset, errors="replace").strip()
            except (LookupError, UnicodeError):  # no such codec, or idna or undefined
                completion = reply.decode("utf-8", errors="replace").strip()
        else:
            try:
                content = loads(reply)["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise ValueError(f"malformed reply: {type(exc).__name__}: {exc}") from None
            # a refusal or tool call carries null content: an empty completion
            completion = content.strip() if isinstance(content, str) else ""
        if not completion:
            raise ValueError("empty completion")
        if has_surrogate(completion):
            raise ValueError("completion holds a lone surrogate, which UTF-8 cannot encode")
        return completion
