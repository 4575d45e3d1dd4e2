"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py SPEC.json

SPEC names the bteval commands of the pass and what set-up loads. The
worker imports bteval, loads what the pass needs (lexicon and variant table,
then the corpus; or the matrices), prints ``ready`` on stdout and, unless
SPEC says ``setup_only``, runs each command through ``bteval.cli.main``
in-process. Its last stdout line is a JSON object with the pass's wall time,
CPU time, peak resident memory, the exit codes, bteval's stderr lines and,
when SPEC asks for it, the trace.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

import bteval.cli as cli
from bteval import corpus, segmentation, stats

import tracing


def set_up(spec: dict) -> None:
    if spec.get("corpus"):
        segmentation.default_lexicon()
        segmentation.default_variant_table()
        corpus.parse_corpus(spec["corpus"])
    for path in spec.get("matrices", ()):
        with open(path, encoding="utf-8") as handle:
            stats.ScoreMatrix.from_dict(json.load(handle))


def peak_rss_mb() -> float:
    """Peak resident set of this address space. ru_maxrss is not used: Linux
    carries it over from the parent across fork and exec."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    set_up(spec)
    print("ready", flush=True)
    if spec["setup_only"]:
        return 0
    setup_trace = tracer.snapshot() if tracer else None
    if tracer:
        tracer.reset()
    codes = []
    log = io.StringIO()
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    with contextlib.redirect_stderr(log):
        for argv in spec["commands"]:
            codes.append(cli.main(argv))
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0
    result = {
        "exit_codes": codes,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb(),
        "stderr": log.getvalue(),
    }
    if tracer:
        result["trace"] = {"setup": setup_trace, "pass": tracer.snapshot()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
