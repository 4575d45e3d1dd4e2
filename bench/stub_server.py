"""Stub chat-completion server for the latency-bound HTTP workload.

Run as a child process:

    python3 bench/stub_server.py --latency-ms 10

It prints the port it listens on (127.0.0.1) as its first stdout line,
then answers commands on stdin, one per line:

    stats   -> one JSON line {"requests", "connections", "non_2xx"}
    quit    -> shut down and exit

Every POST sleeps the fixed latency, then replies with a pure function of
the endpoint path, the payload text and the request's seed (see
``reply_text``). The path carries the perturbation strength, for example
``/drop-0.02/swap-0.02/v1/chat/completions``, so five backends pointed at
five paths score differently and the Friedman/Dunn battery has work to do.
A path may add ``/trad-<rate>`` after the swap rate: the reply then turns
simplified characters into their traditional forms (from bteval's variant
table file) at that rate, so some back-translations carry the traditional
flag and others do not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import sys
import threading
import time
from functools import lru_cache
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

VARIANT_TABLE = Path(__file__).resolve().parent.parent / "src" / "bteval" / "data" / "variant_table.txt"

_RATE = r"(\d+(?:\.\d+)?)"
_PATH = re.compile(rf"^/drop-{_RATE}/swap-{_RATE}(?:/trad-{_RATE})?/v1/chat/completions$")


def endpoint_path(drop: float, swap: float, trad: float = 0.0) -> str:
    trad_part = f"/trad-{trad}" if trad else ""
    return f"/drop-{drop}/swap-{swap}{trad_part}/v1/chat/completions"


def path_rates(path: str) -> tuple[float, float, float] | None:
    match = _PATH.match(path)
    if match is None:
        return None
    return float(match.group(1)), float(match.group(2)), float(match.group(3) or 0.0)


@lru_cache(maxsize=1)
def traditional_forms() -> dict[str, str]:
    """Simplified character -> its first traditional form in the variant table file."""
    forms: dict[str, str] = {}
    with open(VARIANT_TABLE, encoding="utf-8") as handle:
        for line in handle:
            parts = line.split()
            if len(parts) == 2:
                forms.setdefault(parts[1], parts[0])
    return forms


def payload_text(prompt: str) -> str:
    """The text slot of a prompt: every shipped template puts it after the first blank line."""
    head, sep, text = prompt.partition("\n\n")
    return text if sep else head


def reply_text(path: str, text: str, seed: int) -> str:
    """Seeded character drop, adjacent swap and, when the path asks for it, traditional
    forms; never empty for non-blank input."""
    drop, swap, trad = path_rates(path)
    key = f"{path}\0{seed}\0{text}".encode("utf-8")
    rng = random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))
    chars = list(text.strip())
    if not chars:
        return ""
    kept = [ch for ch in chars if ch.isspace() or rng.random() >= drop]
    if not "".join(kept).strip():
        kept = chars[:1]
    i = 0
    while i < len(kept) - 1:
        if rng.random() < swap:
            kept[i], kept[i + 1] = kept[i + 1], kept[i]
            i += 2
        else:
            i += 1
    if trad:
        forms = traditional_forms()
        kept = [forms[ch] if ch in forms and rng.random() < trad else ch for ch in kept]
    return "".join(kept).strip()


class Counters:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0
        self.non_2xx = 0

    def snapshot(self) -> dict:
        with self.lock:
            return {"requests": self.requests, "connections": self.connections,
                    "non_2xx": self.non_2xx}


def make_server(latency_s: float, counters: Counters) -> ThreadingHTTPServer:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # lets keep-alive clients reuse a connection

        def setup(self):
            super().setup()
            with counters.lock:
                counters.connections += 1

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            time.sleep(latency_s)
            status, body = self._answer(raw)
            with counters.lock:
                counters.requests += 1
                if not 200 <= status < 300:
                    counters.non_2xx += 1
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _answer(self, raw: bytes) -> tuple[int, bytes]:
            if path_rates(self.path) is None:
                return 404, b"{}"
            try:
                payload = json.loads(raw)
                prompt = payload["messages"][0]["content"]
                seed = int(payload["seed"])
            except (ValueError, KeyError, IndexError, TypeError):
                return 400, b"{}"
            content = reply_text(self.path, payload_text(prompt), seed)
            reply = {"choices": [{"message": {"role": "assistant", "content": content}}]}
            return 200, json.dumps(reply, ensure_ascii=False).encode("utf-8")

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--latency-ms", type=float, required=True)
    args = parser.parse_args()
    counters = Counters()
    server = make_server(args.latency_ms / 1000.0, counters)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.server_address[1], flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                print(json.dumps(counters.snapshot()), flush=True)
            elif command == "quit":
                break
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    return 0


if __name__ == "__main__":
    sys.exit(main())
