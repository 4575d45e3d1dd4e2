"""Call-boundary tracing for the traced benchmark run, installed from outside
the program.

``install`` replaces the public functions of each bteval module (plus the
few private boundaries and methods listed below) with timing wrappers, in
every bteval module namespace that holds them, so calls through
``from .x import y`` bindings are seen too. Time is summed across threads:
a function's ``busy_s`` counts only its outermost call on each thread, and
each module also gets a group total that counts only the outermost call into
that module. Per-character and per-n-gram helpers stay unwrapped, because
tracing them would cost more than the work they do.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict

MODULES = ("corpus", "segmentation", "metrics", "pipeline", "stats", "tails", "report", "cli")

LEAVES = {
    "segmentation": {"is_han", "ngrams", "route_score"},
    "metrics": {"modified_precision", "brevity_penalty", "edit_distance"},
}

# private boundaries that have no public equivalent
PRIVATE = {
    "pipeline": ("_roundtrip",),
    "cli": ("_load_matrices",),
}

# per-call durations are kept for these, for percentiles
SAMPLED = {"pipeline._roundtrip", "requests.post"}

# the distinct first argument is kept for these
UNIQUE_ARG = {"segmentation.segment_words"}

TRANSLATE_GROUP = "pipeline.translate"
TRANSLATE_CLASSES = ("IdentityMock", "LexiconMapperMock", "NoiseMock", "HttpBackend")


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls: dict[str, int] = defaultdict(int)
            self.busy: dict[str, float] = defaultdict(float)
            self.samples: dict[str, list[float]] = defaultdict(list)
            self.unique: dict[str, set] = defaultdict(set)

    def _depths(self) -> dict:
        depths = getattr(self._local, "depths", None)
        if depths is None:
            depths = self._local.depths = defaultdict(int)
        return depths

    def wrap(self, name: str, group: str, fn):
        tracer = self
        sampled = name in SAMPLED
        unique = name in UNIQUE_ARG
        keys = tuple(dict.fromkeys((name, group)))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depths = tracer._depths()
            outer = [key for key in keys if depths[key] == 0]
            for key in keys:
                depths[key] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                for key in keys:
                    depths[key] -= 1
                with tracer._lock:
                    tracer.calls[name] += 1
                    for key in outer:
                        tracer.busy[key] += elapsed
                    if sampled:
                        tracer.samples[name].append(elapsed)
                    if unique and args:
                        tracer.unique[name].add(args[0])

        return wrapper

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "busy_s": dict(self.busy),
                "samples_s": {k: list(v) for k, v in self.samples.items()},
                "unique": {k: len(v) for k, v in self.unique.items()},
            }


def _rebind(modules: list, original, wrapper) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap bteval's module boundaries, the translate legs, the token bucket and requests.post."""
    import requests

    modules = [importlib.import_module(f"bteval.{name}") for name in MODULES]
    modules.append(importlib.import_module("bteval"))
    for short, module in zip(MODULES, modules):
        names = [
            attr for attr, value in vars(module).items()
            if inspect.isfunction(value) and value.__module__ == module.__name__
            and not attr.startswith("_") and attr not in LEAVES.get(short, ())
        ]
        names.extend(PRIVATE.get(short, ()))
        for attr in names:
            original = getattr(module, attr)
            _rebind(modules, original, tracer.wrap(f"{short}.{attr}", short, original))

    pipeline = importlib.import_module("bteval.pipeline")
    for cls_name in TRANSLATE_CLASSES:
        cls = getattr(pipeline, cls_name)
        cls.translate = tracer.wrap(TRANSLATE_GROUP, TRANSLATE_GROUP, cls.translate)
    pipeline.TokenBucket.acquire = tracer.wrap(
        "pipeline.token_bucket.acquire", "pipeline.token_bucket", pipeline.TokenBucket.acquire)
    requests.post = tracer.wrap("requests.post", "requests", requests.post)
