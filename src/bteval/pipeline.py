"""ZHx -> EN -> ZHy round-trip execution against configured backends.

Backends are either HTTP chat-completion endpoints or deterministic
mocks (identity, bilingual token mapper, and a seeded noise wrapper over
the mapper). Every (sample, backend, repetition) triple yields exactly
one TranslationRecord whether it succeeded or not, anomaly flags
included, so a run is replayable byte-for-byte from its manifest and a
mock configuration.
"""

from __future__ import annotations

import datetime as _dt
import functools
import hashlib
import json
import math
import os
import queue
import random
import threading
import time
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from itertools import chain, groupby
from operator import attrgetter
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np

from .corpus import Corpus, TextSample
from .jsonio import ConfigError, config_from_json, loads
from .metrics import (
    METRIC_NAMES,
    BleuConfig,
    ScoringConfig,
    DEFAULT_SCORING,
    bleu,
    score_run,
)
from .segmentation import (
    DEFAULT_TRADITIONAL_THRESHOLD,
    Lexicon,
    Segmenter,
    has_surrogate,
    segment_words,
    traditional_ratios,
)
from .stats import ExperimentDesign, ScoreMatrix

ZH_TO_EN = "zh_to_en"
EN_TO_ZH = "en_to_zh"

DEFAULT_VERBATIM_THRESHOLD = 0.70

# Size caps checked when a config loads: a larger value would allocate or start
# threads without bound before any request is made, or, for max_retries, back off
# for 0.5 * 2**attempt s (about 8.5 min in all at the cap) until time.sleep overflows.
MAX_REPETITIONS = 1000
MAX_WORKERS = 64
MAX_RETRIES = 10
# A reply body longer than this is a failed attempt, not read into memory.
MAX_REPLY_BYTES = 16 * 1024 * 1024

# Instruction phrasings rotated across repetitions; {text} is the payload slot.
PROMPT_VARIANTS = {
    ZH_TO_EN: (
        "Translate the following Chinese text into English. Reply with the translation only.\n\n{text}",
        "Render this Chinese passage in natural English, returning nothing but the English text.\n\n{text}",
        "Please provide an English translation of the Chinese text below. Output only the translation.\n\n{text}",
    ),
    EN_TO_ZH: (
        "Translate the following English text into Simplified Chinese. Reply with the translation only.\n\n{text}",
        "Render this English passage in natural Simplified Chinese, returning nothing but the Chinese text.\n\n{text}",
        "Please provide a Simplified Chinese translation of the English text below. Output only the translation.\n\n{text}",
    ),
}


class BackendError(RuntimeError):
    """A translation request that failed after all retries."""


@dataclass
class BackendConfig:
    id: str
    kind: str  # "http_llm" or "mock"
    model_name: str = ""
    endpoint: str = ""
    prompt_template_forward: str | None = None
    prompt_template_backward: str | None = None
    temperature: float = 0.0
    timeout: float = 30.0
    max_retries: int = 2
    api_key_env: str | None = None
    wire_format: str = "chat"  # "chat" or "raw"
    rate_limit_rps: float = 1.0
    max_workers: int = 4
    # noise-mock parameters
    drop_prob: float = 0.0
    swap_prob: float = 0.0

    def __post_init__(self) -> None:
        if not self.id:
            raise ConfigError("backend id must be non-empty")
        if self.kind not in ("http_llm", "mock"):
            raise ConfigError(f"backend {self.id}: unknown kind {self.kind!r}")
        if self.kind == "mock" and self.model_name not in ("identity", "lexicon", "noise"):
            raise ConfigError(
                f"backend {self.id}: mock model_name must be identity, lexicon, or noise"
            )
        if self.kind == "http_llm":
            _check_endpoint(self.id, self.endpoint)
        if self.wire_format not in ("chat", "raw"):
            raise ConfigError(f"backend {self.id}: unknown wire format {self.wire_format!r}")
        for name in ("prompt_template_forward", "prompt_template_backward"):
            template = getattr(self, name)
            if template is not None and template.count("{text}") != 1:
                raise ConfigError(
                    f"backend {self.id}: {name} must contain exactly one {{text}} placeholder"
                )
        for name in ("drop_prob", "swap_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"backend {self.id}: {name} must lie in [0, 1]")
        for name, low, cap in (("max_retries", 0, MAX_RETRIES), ("max_workers", 1, MAX_WORKERS)):
            value = getattr(self, name)
            if not isinstance(value, int) or value < low:
                raise ConfigError(f"backend {self.id}: {name} must be an integer >= {low}")
            if value > cap:
                raise ConfigError(f"backend {self.id}: {name} must be <= {cap}")
        for name in ("rate_limit_rps", "timeout"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"backend {self.id}: {name} must be > 0")
        # A longer socket timeout or rate-limiter sleep overflows the platform's time_t;
        # a worker may wait out the send slots every other worker has reserved.
        for name, wait in (("timeout", self.timeout),
                           ("max_workers / rate_limit_rps",
                            self.max_workers / self.rate_limit_rps)):
            if not wait <= threading.TIMEOUT_MAX:
                raise ConfigError(
                    f"backend {self.id}: {name} must be <= {threading.TIMEOUT_MAX:.0f} s")
        if not math.isfinite(self.temperature):
            # a chat body is strict JSON, which has no NaN or infinity
            raise ConfigError(f"backend {self.id}: temperature must be finite")


def _check_endpoint(backend_id: str, endpoint: str) -> None:
    """An http_llm endpoint must be an http(s) URL with a host and a valid port."""
    if not endpoint:
        raise ConfigError(f"backend {backend_id}: http_llm requires an endpoint")
    parts = urlsplit(endpoint)
    if parts.scheme not in ("http", "https"):
        raise ConfigError(
            f"backend {backend_id}: endpoint {endpoint!r} must be an http or https URL")
    if not parts.hostname:
        raise ConfigError(f"backend {backend_id}: endpoint {endpoint!r} has no host")
    try:
        parts.port
    except ValueError as exc:
        raise ConfigError(f"backend {backend_id}: endpoint {endpoint!r}: {exc}") from exc


@dataclass
class TranslationRecord:
    sample_id: str
    backend_id: str
    repetition: int  # 1-based
    zhx: str
    en: str
    zhy: str
    seed: int
    prompt_variant: int
    verbatim_flag: bool = False
    traditional_flag: bool = False
    error: str | None = None


@dataclass
class RunManifest:
    corpus_name: str
    corpus_sha256: str
    backend_ids: list[str]
    design: dict  # {"n", "k", "r"}
    scoring: dict
    master_seed: int
    timestamp: str
    prompt_variants: dict = field(default_factory=lambda: {
        direction: list(templates) for direction, templates in PROMPT_VARIANTS.items()
    })
    verbatim_threshold: float = DEFAULT_VERBATIM_THRESHOLD
    traditional_threshold: float = DEFAULT_TRADITIONAL_THRESHOLD


def derive_seed(master_seed: int, sample_id: str, backend_id: str, repetition: int) -> int:
    """Stable 63-bit seed; Python's salted hash() is useless for replay."""
    key = f"{master_seed}:{sample_id}:{backend_id}:{repetition}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


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


class IdentityMock:
    """Round-trip no-op: the back-translation equals the original."""

    def __init__(self, config: BackendConfig) -> None:
        self.config = config

    def translate(self, text: str, direction: str, seed: int, variant: int) -> str:
        return text


# Invertible ZH <-> EN token table for the mapper mock; unknown tokens pass
# through unchanged, which keeps the mapping invertible for arbitrary input.
BILINGUAL_TABLE = {
    "人工智能": "artificial-intelligence",
    "化学": "chemistry",
    "工程": "engineering",
    "计算": "computation",
    "研究": "research",
    "分析": "analysis",
    "方法": "method",
    "结果": "result",
    "实验": "experiment",
    "反应": "reaction",
    "物质": "substance",
    "元素": "element",
    "组成": "composition",
    "性质": "property",
    "结构": "structure",
    "效率": "efficiency",
    "质量": "quality",
    "提高": "improve",
    "应用": "application",
    "技术": "technology",
    "系统": "system",
    "我": "i",
    "你": "you",
    "的": "de",
    "了": "le",
    "是": "is",
    "在": "at",
    "和": "and",
    "与": "with",
    "眼泪": "tears",
    "月光": "moonlight",
    "时间": "time",
}
_REVERSE_TABLE = {en: zh for zh, en in BILINGUAL_TABLE.items()}


class LexiconMapperMock:
    """Bilingual token mapper: segment, map each token, join; exactly invertible.
    segment is a run's Segmenter; a mock made outside a run keeps nothing."""

    def __init__(self, config: BackendConfig, segment: Segmenter | None = None) -> None:
        self.config = config
        self.segment = Segmenter() if segment is None else segment

    def translate(self, text: str, direction: str, seed: int, variant: int) -> str:
        if direction == ZH_TO_EN:
            return " ".join([BILINGUAL_TABLE.get(t, t) for t in self.segment(text)])
        return "".join([_REVERSE_TABLE.get(t, t) for t in text.split(" ")])


class NoiseMock(LexiconMapperMock):
    """Seeded token drop/swap noise over the mapper mock."""

    def translate(self, text: str, direction: str, seed: int, variant: int) -> str:
        clean = super().translate(text, direction, seed, variant)
        # int-only seed material: hash() of strings is salted per process
        draw = random.Random(seed * 2 + (1 if direction == EN_TO_ZH else 0)).random
        drop_prob, swap_prob = self.config.drop_prob, self.config.swap_prob
        tokens = clean.split(" ") if direction == ZH_TO_EN else list(self.segment(clean))
        kept = [t for t in tokens if draw() >= drop_prob]
        if not kept:
            kept = tokens[:1]
        i = 0
        while i < len(kept) - 1:
            if draw() < swap_prob:
                kept[i], kept[i + 1] = kept[i + 1], kept[i]
                i += 2
            else:
                i += 1
        return " ".join(kept) if direction == ZH_TO_EN else "".join(kept)


def api_key(config: BackendConfig) -> str | None:
    """The key an http_llm backend sends, read once from the variable its api_key_env names.

    None when api_key_env is null. An unset or empty variable is a ConfigError, as is a
    value no HTTP header may carry: CR, LF or NUL (RFC 9110 section 5.5), or a character
    outside Latin-1, the encoding http.client sends header values in. Errors never show the key.
    """
    if config.api_key_env is None:
        return None
    where = f"backend {config.id}: api_key_env variable {config.api_key_env!r}"
    try:
        key = os.environ.get(config.api_key_env)
    except ValueError:  # a name the environment cannot hold, such as a lone surrogate
        key = None
    if not key:
        raise ConfigError(f"{where} is unset or empty")
    if any(ch in key for ch in "\r\n\0"):
        raise ConfigError(f"{where} holds a CR, LF or NUL, which no HTTP header may carry")
    try:
        key.encode("latin-1")
    except UnicodeEncodeError:
        raise ConfigError(f"{where} holds a character outside Latin-1") from None
    return key


class HttpBackend:
    """Chat-completion (or raw text) endpoint with retries and rate limiting.

    Requests go over stdlib keep-alive connections, at most one per calling
    thread, so a backend run on max_workers threads holds up to max_workers;
    an idle one waits in a queue for the next request. No cookies are kept,
    no proxy is used and no redirect is followed. HTTPS certificates are
    checked against the system trust store. A reused connection the server
    has dropped is reopened once without counting as a retry.
    """

    def __init__(self, config: BackendConfig, sleep=time.sleep) -> None:
        import http.client  # imported here: only a run with an http_llm backend needs them
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
                conn.request("POST", self._target, body, self._headers)
                response = conn.getresponse()
            except (ConnectionResetError, BrokenPipeError):
                # RemoteDisconnected is a ConnectionResetError: the server closed
                # an idle keep-alive connection before this request reached it
                if not reused:
                    raise
                conn.close()
                conn.request("POST", self._target, body, self._headers)
                response = conn.getresponse()
            reply = response.read(MAX_REPLY_BYTES + 1)
            if len(reply) > MAX_REPLY_BYTES:  # closed below: its unread rest would be the next reply
                raise ValueError(f"reply longer than MAX_REPLY_BYTES ({MAX_REPLY_BYTES} bytes)")
        except BaseException:
            conn.close()
            raise
        self._idle.put(conn)
        return response.status, response.headers, reply

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


def make_backend(config: BackendConfig, segment: Segmenter | None = None):
    """The backend for a config; the mapper and noise mocks segment through segment."""
    if config.kind == "mock":
        if config.model_name == "identity":
            return IdentityMock(config)
        if config.model_name == "lexicon":
            return LexiconMapperMock(config, segment)
        return NoiseMock(config, segment)
    return HttpBackend(config)


def translate(backend, text: str, direction: str, seed: int = 0, variant: int = 0,
              lexicon: Lexicon | None = None) -> str:
    """One translation leg; accepts a BackendConfig or an instantiated backend."""
    if isinstance(backend, BackendConfig):
        backend = make_backend(backend, Segmenter(lexicon))
    return backend.translate(text, direction, seed, variant)


def detect_verbatim(zhx: str, zhy: str, lexicon: Lexicon | None = None,
                    threshold: float = DEFAULT_VERBATIM_THRESHOLD) -> tuple[float, bool]:
    """Word-level 1-2 gram BLEU of the back-translation against its own source."""
    if not zhx.strip():
        raise ValueError("zhx must be non-empty")
    reference = segment_words(zhx, lexicon)
    candidate = segment_words(zhy, lexicon)
    similarity = bleu(candidate, reference, BleuConfig())
    return similarity, similarity >= threshold


def _roundtrip(backend, config: BackendConfig, sample: TextSample, repetition: int,
               master_seed: int) -> TranslationRecord:
    """Both translation legs; a failed leg becomes the record's error."""
    seed = derive_seed(master_seed, sample.id, config.id, repetition)
    variant = (repetition - 1) % len(PROMPT_VARIANTS[ZH_TO_EN])
    record = TranslationRecord(
        sample_id=sample.id,
        backend_id=config.id,
        repetition=repetition,
        zhx=sample.text,
        en="",
        zhy="",
        seed=seed,
        prompt_variant=variant,
    )
    try:
        record.en = backend.translate(sample.text, ZH_TO_EN, seed, variant)
        record.zhy = backend.translate(record.en, EN_TO_ZH, seed, variant)
        if not record.zhy.strip():
            raise BackendError(f"{config.id}: empty back-translation")
    except BackendError as exc:
        record.zhy = ""
        record.error = str(exc)
    return record


def check_run_design(backends: list[BackendConfig], r: int) -> None:
    """A run needs 1 to MAX_REPETITIONS repetitions and one id per backend."""
    if r < 1:
        raise ConfigError("repetitions must be >= 1")
    if r > MAX_REPETITIONS:
        raise ConfigError(f"repetitions must be <= {MAX_REPETITIONS}")
    if len({b.id for b in backends}) != len(backends):
        raise ConfigError("backend ids must be unique within a run")


@dataclass(frozen=True)
class RunConfig:
    """A run config file: what a run reads, whom it asks, and how it scores and judges."""

    corpus: str
    backends: tuple[BackendConfig, ...]
    lexicon: str | None = None
    variant_table: str | None = None
    scoring: ScoringConfig = DEFAULT_SCORING
    repetitions: int = 1
    master_seed: int = 0
    verbatim_threshold: float = DEFAULT_VERBATIM_THRESHOLD
    traditional_threshold: float = DEFAULT_TRADITIONAL_THRESHOLD
    max_missing_fraction: float = 1.0

    def __post_init__(self) -> None:
        for name in ("verbatim_threshold", "traditional_threshold", "max_missing_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"run config {name!r} must be a number in [0, 1], got {value!r}")
        check_run_design(self.backends, self.repetitions)


def run_experiment(
    corpus: Corpus,
    backends: list[BackendConfig],
    r: int,
    scoring: ScoringConfig = DEFAULT_SCORING,
    master_seed: int = 0,
    lexicon: Lexicon | None = None,
    variant_table: dict[str, str] | None = None,
    verbatim_threshold: float = DEFAULT_VERBATIM_THRESHOLD,
    traditional_threshold: float = DEFAULT_TRADITIONAL_THRESHOLD,
    backend_instances: dict | None = None,
) -> tuple[dict[str, ScoreMatrix], list[TranslationRecord], RunManifest]:
    """Full grid execution: per-metric score matrices, the sorted record log, and a manifest.

    Backend failures become error records and missing score cells; only
    corpus or configuration problems abort the run.
    """
    check_run_design(backends, r)
    if any(config.kind == "http_llm" for config in backends):
        # only HTTP legs go to a pool, so a mock-only run never loads concurrent.futures
        from concurrent.futures import ThreadPoolExecutor, as_completed
    # each original is segmented once, for the mocks' forward legs and the scorer
    segment = Segmenter(lexicon, (sample.text for sample in corpus))
    with ExitStack() as stack:
        # every backend, and each HTTP backend's pool, is made before any leg starts
        instances, pools = dict(backend_instances or {}), {}
        for config in backends:
            if config.id not in instances:
                instances[config.id] = make_backend(config, segment)
                if config.kind == "http_llm":
                    stack.callback(instances[config.id].close)
            if config.kind == "http_llm":
                pools[config.id] = ThreadPoolExecutor(max_workers=config.max_workers)
                stack.callback(pools[config.id].shutdown, cancel_futures=True)
        # Every HTTP leg is submitted before the GIL-bound mock legs run inline, so the
        # HTTP backends wait on I/O together and while the mocks run; as_completed lets
        # go of each future it yields. A run that raises drops the legs not yet started.
        finished = as_completed([
            pools[config.id].submit(_roundtrip, instances[config.id], config, sample, rep,
                                    master_seed)
            for config in backends if config.id in pools
            for sample in corpus for rep in range(1, r + 1)]) if pools else ()
        inline = (_roundtrip(instances[config.id], config, sample, rep, master_seed)
                  for config in backends if config.id not in pools
                  for sample in corpus for rep in range(1, r + 1))
        # the one place where every finished record arrives, the HTTP ones in completion order
        records = list(chain(inline, (future.result() for future in finished)))
    records.sort(key=lambda rec: (rec.sample_id, rec.backend_id, rec.repetition))

    scored = [rec for rec in records if rec.error is None]
    design = ExperimentDesign(n=len(corpus), k=len(backends), r=r)
    block_index = {s.id: i for i, s in enumerate(corpus)}
    treatment_index = {b.id: j for j, b in enumerate(backends)}
    grids = {name: np.full((design.n, design.k, design.r), np.nan) for name in METRIC_NAMES}
    # Records are sorted by sample, so each original's back-translations are consecutive.
    groups = [(zhx, [rec.zhy for rec in group])
              for zhx, group in groupby(scored, key=attrgetter("zhx"))]
    # flagged before scoring: ratios alive through the scorer cost the 89x5x3 run 0.8 MiB peak RSS
    for rec, ratio in zip(scored, traditional_ratios([r.zhy for r in scored], variant_table)):
        rec.traditional_flag = bool(ratio > traditional_threshold)
    results = score_run([s.text for s in corpus], groups, scoring, segment)
    for rec, (vector, similarity) in zip(scored, results):
        rec.verbatim_flag = similarity >= verbatim_threshold
        b, t = block_index[rec.sample_id], treatment_index[rec.backend_id]
        for name in METRIC_NAMES:
            grids[name][b, t, rec.repetition - 1] = getattr(vector, name)

    matrices = {
        name: ScoreMatrix(
            design=design,
            metric=name,
            values=grid,
            block_ids=[s.id for s in corpus],
            treatment_ids=[b.id for b in backends],
        )
        for name, grid in grids.items()
    }
    manifest = RunManifest(
        corpus_name=corpus.name,
        corpus_sha256=corpus.sha256 or "",
        backend_ids=[b.id for b in backends],
        design=asdict(design),
        scoring=asdict(scoring),
        master_seed=master_seed,
        timestamp=_dt.datetime.now(_dt.timezone.utc).isoformat(),
        verbatim_threshold=verbatim_threshold,
        traditional_threshold=traditional_threshold,
    )
    return matrices, records, manifest


def write_records(records: list[TranslationRecord], path: str | Path) -> None:
    # TranslationRecord is flat, so vars(rec) is asdict(rec) without the deep copy;
    # line by line, so the whole log is never held as one string
    with open(path, "w", encoding="utf-8") as handle:
        for rec in records:
            handle.write(json.dumps(vars(rec), ensure_ascii=False) + "\n")


def read_records(path: str | Path) -> list[TranslationRecord]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [TranslationRecord(**loads(line)) for line in lines if line.strip()]
