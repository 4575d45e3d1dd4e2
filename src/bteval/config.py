"""What a run is: the backend and run configs, their checks and caps, the prompt
variants, the manifest a run writes, and the load-time check of an API key.
"""

from __future__ import annotations

import math
import os
import re
import threading
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from .jsonio import ConfigError, check_fields
from .metrics import DEFAULT_SCORING, ScoringConfig
from .segmentation import DEFAULT_TRADITIONAL_THRESHOLD

ZH_TO_EN = "zh_to_en"
EN_TO_ZH = "en_to_zh"

DEFAULT_VERBATIM_THRESHOLD = 0.70

# Size caps checked when a config loads: a larger value would allocate or start
# threads without bound before any request is made, or, for max_retries, back off
# for 0.5 * 2**attempt s (about 8.5 min in all at the cap) until time.sleep overflows.
MAX_REPETITIONS = 1000
MAX_WORKERS = 64
MAX_RETRIES = 10

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
        check_fields(self, ConfigError, "backend")
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
            if getattr(self, name) < low:
                raise ConfigError(f"backend {self.id}: {name} must be an integer >= {low}")
            if getattr(self, name) > cap:
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
    """An http_llm endpoint must be an http(s) URL with a host and a valid port, that
    http.client can send: no space or control character, and an ASCII path and query
    (a non-ASCII host is sent as IDNA)."""
    if not endpoint:
        raise ConfigError(f"backend {backend_id}: http_llm requires an endpoint")
    try:
        parts = urlsplit(endpoint)
        parts.port
    except ValueError as exc:  # an unclosed IPv6 bracket, or a port that is not one
        raise ConfigError(f"backend {backend_id}: endpoint {endpoint!r}: {exc}") from exc
    if re.search(r"[\x00-\x20\x7f]", endpoint) or not (parts.path + parts.query).isascii():
        raise ConfigError(f"backend {backend_id}: endpoint {endpoint!r} holds a space, a control "
                          "character, or a non-ASCII character in its path or query")
    if parts.scheme not in ("http", "https"):
        raise ConfigError(
            f"backend {backend_id}: endpoint {endpoint!r} must be an http or https URL")
    if not parts.hostname:
        raise ConfigError(f"backend {backend_id}: endpoint {endpoint!r} has no host")


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


@dataclass(frozen=True)
class RunConfig:
    """A run: what it reads, whom it asks, and how it scores and judges. The paths name
    the caller's inputs; run_experiment reads every other field and no file."""

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
        check_fields(self, ConfigError, "run config")  # before any round-trip, not after them all
        for name in ("verbatim_threshold", "traditional_threshold", "max_missing_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"run config {name!r} must be a number in [0, 1], got {value!r}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.repetitions > MAX_REPETITIONS:
            raise ConfigError(f"repetitions must be <= {MAX_REPETITIONS}")
        if len({b.id for b in self.backends}) != len(self.backends):
            raise ConfigError("backend ids must be unique within a run")
