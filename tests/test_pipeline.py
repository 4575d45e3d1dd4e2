"""Round-trip pipeline: mocks, HTTP backend behavior, flags, and replay."""

import encodings.aliases
import http.client
import io
import json
import re
import socket
import ssl
import statistics
import sys
import threading
import time
from collections import Counter
from contextlib import closing
import concurrent.futures
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, replace
from typing import get_args, get_type_hints
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bteval import cli, metrics, pipeline, segmentation, transport
from bteval.config import EN_TO_ZH, PROMPT_VARIANTS, ZH_TO_EN, BackendConfig, RunConfig, api_key
from bteval.corpus import Corpus, CorpusError, TextSample, parse_corpus
from bteval.jsonio import ConfigError, config_from_json
from bteval.metrics import (
    UNIFORM_WEIGHTS, BleuConfig, MetricError, ScoringConfig, fit_idf, semantic_similarity,
)
from bteval.pipeline import (
    derive_seed,
    detect_verbatim,
    make_backend,
    read_records,
    run_experiment,
    write_records,
)
from bteval.segmentation import Segmenter
from bteval.stats import ExperimentDesign, ScoreMatrix, StatsError
from bteval.transport import BackendError, HttpBackend, TokenBucket

from conftest import FIXTURES, HUA_YAO_MODELS, REPO, fixture_text, run_config
from http_stub import TLS_CERT, Step, chat, plain, serve


def mock_config(model="identity", backend_id="m1", **kwargs):
    return BackendConfig(id=backend_id, kind="mock", model_name=model, **kwargs)


def tiny_corpus(texts=("化学工程领域的研究与分析。", "元素观点：物质由元素组成。")):
    samples = [TextSample(id=f"S{i + 1}", domain="chemistry", text=t)
               for i, t in enumerate(texts)]
    return Corpus(name="tiny", samples=samples)


def backtranslate(config, sample, r, master_seed, backend=None):
    """The records of a one-sample run: r round-trips of one text through one backend."""
    _, records, _ = run_experiment(
        Corpus(sample.id, [sample]), run_config([config], r, master_seed=master_seed),
        backend_instances=None if backend is None else {config.id: backend})
    return records


# ---------------------------------------------------------------- config

def test_backend_config_validation():
    with pytest.raises(ConfigError):
        BackendConfig(id="", kind="mock", model_name="identity")
    with pytest.raises(ConfigError):
        BackendConfig(id="x", kind="teleport")
    with pytest.raises(ConfigError):
        BackendConfig(id="x", kind="mock", model_name="surprise")
    with pytest.raises(ConfigError):
        BackendConfig(id="x", kind="http_llm")  # endpoint required
    with pytest.raises(ConfigError, match="placeholder"):
        BackendConfig(id="x", kind="mock", model_name="identity",
                      prompt_template_forward="no slot here")
    with pytest.raises(ConfigError, match=r"unknown backend keys: \['surprise'\]"):
        config_from_json(BackendConfig, {"id": "x", "kind": "mock", "model_name": "identity",
                                         "surprise": 1}, "backend")


def test_config_reader_rejects_a_nan_threshold():
    # a config file cannot hold NaN; a dict built in Python still meets the field check
    with pytest.raises(ConfigError, match=r"'verbatim_threshold' must be a number in \[0, 1\]"):
        config_from_json(RunConfig, {"corpus": "c.jsonl", "verbatim_threshold": float("nan"),
                                     "backends": [{"id": "m", "kind": "mock",
                                                   "model_name": "identity"}]}, "run config")


def test_config_reader_checks_each_json_type():
    with pytest.raises(ConfigError, match=r"backend 'id' must be a string, got 5"):
        config_from_json(BackendConfig, {"id": 5, "kind": "mock", "model_name": "identity"},
                         "backend")
    scoring = ScoringConfig()
    assert config_from_json(ScoringConfig, json.loads(json.dumps(asdict(scoring))),
                            "scoring") == scoring
    # an integral float reads as int, an integer as float, and null as None
    read = config_from_json(ScoringConfig, {"chrf_max_n": 3.0, "chrf_beta": 1,
                                            "smoothing_epsilon": None}, "scoring")
    assert (read.chrf_max_n, read.chrf_beta, read.smoothing_epsilon) == (3, 1.0, None)
    assert type(read.chrf_max_n) is int and type(read.chrf_beta) is float
    with pytest.raises(ConfigError, match="'chrf_beta' must be a number"):
        config_from_json(ScoringConfig, {"chrf_beta": 10 ** 400}, "scoring")  # past float range
    with pytest.raises(ConfigError, match=r"run config requires \['corpus'\]"):
        config_from_json(RunConfig, {"backends": [{"id": "m", "kind": "mock"}]}, "run config")
    with pytest.raises(ConfigError, match=r"backends\[1\] requires \['kind'\]"):
        config_from_json(RunConfig, {"corpus": "c.jsonl", "backends": [
            {"id": "m", "kind": "mock", "model_name": "identity"}, {"id": "n"}]}, "run config")


def test_readme_run_config_loads():
    section = (REPO / "README.md").read_text(encoding="utf-8").split("\n### Run config\n", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    config = config_from_json(RunConfig, json.loads(block), "run config")
    assert [b.id for b in config.backends] == ["mock-a", "remote"]
    assert config.repetitions == 3 and config.scoring.chrf_max_n == 6


@pytest.mark.parametrize("endpoint, message", [
    ("127.0.0.1:9/v1", "must be an http or https URL"),
    ("ftp://127.0.0.1/v1", "must be an http or https URL"),
    ("http:///v1", "has no host"),
    ("http://127.0.0.1:abc/v1", "Port could not be cast"),
    ("https://127.0.0.1:70000/v1", "Port out of range"),
    ("http://[::1/v1", "Invalid IPv6 URL"),
    ("http://127.0.0.1:9/v1 chat", "holds a space, a control character"),
    ("http://127.0.0.1:9/v1\tchat", "holds a space, a control character"),
    ("http://127.0.\x000.1:9/v1", "holds a space, a control character"),
    ("http://127.0.0.1:9/路径", "non-ASCII character in its path or query"),
    ("http://127.0.0.1:9/v1?model=模型", "non-ASCII character in its path or query"),
], ids=["no-scheme", "ftp", "no-host", "non-integer-port", "port-out-of-range", "open-bracket",
        "space-in-path", "tab-in-path", "nul-in-host", "non-ascii-path", "non-ascii-query"])
def test_http_endpoint_validated_at_load(endpoint, message):
    with pytest.raises(ConfigError, match=message):
        BackendConfig(id="x", kind="http_llm", endpoint=endpoint)


def test_an_idn_host_is_a_valid_endpoint():
    # http.client sends a non-ASCII host as IDNA, in the Host header and to the resolver
    backend = HttpBackend(BackendConfig(id="x", kind="http_llm", endpoint="http://例子.测试/v1"))
    connection = backend._connect()
    connection.putrequest("POST", backend._target)
    assert connection._buffer[1] == b"Host: xn--fsqu00a.xn--0zwm56d"


@pytest.mark.parametrize("temperature", [float("nan"), float("inf")])
def test_non_finite_temperature_rejected(temperature):
    with pytest.raises(ConfigError, match="temperature must be finite"):
        BackendConfig(id="x", kind="http_llm", endpoint="http://127.0.0.1/v1",
                      temperature=temperature)


def test_derive_seed_is_stable_and_distinct():
    a = derive_seed(42, "S1", "m1", 1)
    assert a == derive_seed(42, "S1", "m1", 1)
    others = {derive_seed(42, "S1", "m1", rep) for rep in range(1, 5)}
    assert len(others) == 4
    assert derive_seed(42, "S1", "m2", 1) != a
    assert derive_seed(43, "S1", "m1", 1) != a


# ---------------------------------------------------------------- mocks

def test_identity_mock_round_trip():
    backend = make_backend(mock_config("identity"))
    assert backend.translate("人工智能", ZH_TO_EN, 0, 0) == "人工智能"
    assert backend.translate("anything", EN_TO_ZH, 0, 0) == "anything"


def test_lexicon_mock_maps_known_tokens():
    backend = make_backend(mock_config("lexicon"))
    assert backend.translate("人工智能", ZH_TO_EN, 0, 0) == "artificial-intelligence"
    out = backend.translate("artificial-intelligence", EN_TO_ZH, 0, 0)
    assert out == "人工智能"


def test_lexicon_mock_is_invertible_on_arbitrary_text():
    # the mapper's table must be one-to-one for the back leg to invert it
    assert len(set(pipeline.BILINGUAL_TABLE.values())) == len(pipeline.BILINGUAL_TABLE)
    config = mock_config("lexicon")
    backend = make_backend(config)
    text = "化学工程领域的研究与分析"
    en = backend.translate(text, ZH_TO_EN, 0, 0)
    assert backend.translate(en, EN_TO_ZH, 0, 0) == text


def test_mapper_mocks_segment_each_forward_text_once(monkeypatch):
    calls = Counter()
    original = segmentation.segment_words

    def counting(text, lexicon=None):
        calls[text] += 1
        return original(text, lexicon)

    monkeypatch.setattr(segmentation, "segment_words", counting)
    text = "化学工程领域的研究与分析和实验过程"
    for model in ("lexicon", "noise"):
        calls.clear()
        config = mock_config(model, drop_prob=0.3, swap_prob=0.2)
        backend = make_backend(config, Segmenter(keep=[text]))  # as a run builds it
        legs = [backend.translate(text, ZH_TO_EN, seed, 0) for seed in range(4)]
        assert calls[text] == 1
        # the kept text only skips work: a fresh instance, which keeps nothing, gives the
        # same legs and segments on every one
        calls.clear()
        fresh = make_backend(config)
        assert legs == [fresh.translate(text, ZH_TO_EN, seed, 0) for seed in range(4)]
        assert calls[text] == 4


def test_noise_mock_is_seed_deterministic():
    config = mock_config("noise", drop_prob=0.3, swap_prob=0.2)
    backend = make_backend(config)
    text = "化学工程领域的研究与分析和实验过程"
    first = backend.translate(text, EN_TO_ZH, seed=7, variant=0)
    second = backend.translate(text, EN_TO_ZH, seed=7, variant=0)
    assert first == second
    different = backend.translate(text, EN_TO_ZH, seed=8, variant=0)
    assert different != first  # overwhelmingly likely at these rates


def test_backtranslate_identity_flags_verbatim():
    sample = TextSample(id="S1", domain="chemistry", text="化学工程领域的研究。")
    records = backtranslate(mock_config("identity"), sample, r=3, master_seed=42)
    assert len(records) == 3
    assert all(rec.zhy == sample.text for rec in records)
    assert all(rec.verbatim_flag for rec in records)
    assert [rec.repetition for rec in records] == [1, 2, 3]
    assert len({rec.seed for rec in records}) == 3
    assert [rec.prompt_variant for rec in records] == [0, 1, 2]


def test_backtranslate_noise_reproducible():
    sample = TextSample(id="S1", domain="chemistry",
                        text="化学工程领域的研究与分析和实验过程的优化。")
    config = mock_config("noise", drop_prob=0.3, swap_prob=0.1)
    first = backtranslate(config, sample, r=3, master_seed=7)
    second = backtranslate(config, sample, r=3, master_seed=7)
    assert first == second
    assert len({r.zhy for r in first}) == 3  # distinct repetitions


class ExplodingBackend:
    def translate(self, text, direction, seed, variant):
        raise BackendError("boom: backend gone")


def test_backtranslate_captures_errors_inline():
    sample = TextSample(id="S1", domain="chemistry", text="化学研究。")
    records = backtranslate(mock_config("identity"), sample, r=3, master_seed=1,
                            backend=ExplodingBackend())
    assert len(records) == 3
    assert all(rec.error is not None and rec.zhy == "" for rec in records)


# ---------------------------------------------------------------- verbatim

def test_detect_verbatim_identity():
    similarity, flagged = detect_verbatim("化学工程的研究", "化学工程的研究")
    assert similarity == 1.0 and flagged


def test_detect_verbatim_on_lyric_fixtures(hua_yao_original):
    similarity, flagged = detect_verbatim(
        hua_yao_original, fixture_text("hua_yao/deepseek_v3.txt"))
    assert flagged and similarity >= 0.70
    for model in HUA_YAO_MODELS:
        if model == "deepseek_v3":
            continue
        similarity, flagged = detect_verbatim(
            hua_yao_original, fixture_text(f"hua_yao/{model}.txt"))
        assert not flagged, f"{model} unexpectedly flagged at {similarity:.3f}"


def test_detect_verbatim_empty_zhy_not_flagged():
    similarity, flagged = detect_verbatim("化学研究", "")
    assert similarity == 0.0 and not flagged


# ---------------------------------------------------------------- http

def http_config(port, **kwargs):
    defaults = dict(
        id="h1", kind="http_llm", model_name="stub-model",
        endpoint=f"http://127.0.0.1:{port}/v1/chat/completions",
        max_retries=2, rate_limit_rps=1000.0, timeout=5.0,
    )
    defaults.update(kwargs)
    return BackendConfig(**defaults)


def http_backend(port, **kwargs):
    """An HttpBackend on the stub at port that skips its retry waits, closed by a with block."""
    return closing(HttpBackend(http_config(port, **kwargs), sleep=lambda s: None))


def test_http_backend_retries_then_succeeds():
    with serve([Step(500), chat("译文结果")]) as stub, http_backend(stub.port) as backend:
        out = backend.translate("化学", ZH_TO_EN, seed=5, variant=0)
    assert out == "译文结果"
    assert len(stub.requests) == 2  # one 500, one success
    payload = json.loads(stub.requests[-1].body)
    assert payload["model"] == "stub-model"
    assert payload["seed"] == 5
    assert "化学" in payload["messages"][0]["content"]


def test_http_backend_empty_completion_errors():
    with serve(lambda request: chat("")) as stub, http_backend(stub.port, max_retries=1) as backend:
        with pytest.raises(BackendError, match="empty completion"):
            backend.translate("化学", ZH_TO_EN, seed=1, variant=0)
    assert len(stub.requests) == 2  # retried once


def test_http_backend_null_content_is_an_empty_completion():
    # OpenAI-style APIs send null content for refusals and tool calls
    with serve([chat(None)] * 4) as stub:
        with http_backend(stub.port, max_retries=1) as backend:
            with pytest.raises(BackendError, match="empty completion"):
                backend.translate("化学", ZH_TO_EN, seed=1, variant=0)
        assert len(stub.requests) == 2  # retried once
        config = http_config(stub.port, max_retries=0)
        _, records, _ = run_experiment(tiny_corpus(), run_config([config]))
    assert [rec.error for rec in records] == ["h1: empty completion"] * 2


def test_http_backend_completion_with_a_lone_surrogate_is_a_failed_attempt(tmp_path):
    # JSON decodes the reply's \ud800 escape; UTF-8, in which records.jsonl is written, cannot
    with serve(lambda request: chat("\ud800化学")) as stub:
        with http_backend(stub.port, max_retries=1) as backend:
            with pytest.raises(BackendError, match="completion holds a lone surrogate"):
                backend.translate("化学", ZH_TO_EN, seed=1, variant=0)
        assert len(stub.requests) == 2  # retried once, as an empty completion is
        config = http_config(stub.port, max_retries=0)
        _, records, _ = run_experiment(tiny_corpus(), run_config([config]))
    assert [rec.error for rec in records] == [
        "h1: completion holds a lone surrogate, which UTF-8 cannot encode"] * 2
    write_records(records, tmp_path / "records.jsonl")
    assert read_records(tmp_path / "records.jsonl") == records


RAW_PROMPT = PROMPT_VARIANTS[ZH_TO_EN][0].replace("{text}", "化学").encode("utf-8")


def test_http_backend_raw_wire_format():
    with serve(lambda request: plain("plain 译文", "application/json")) as stub, \
            http_backend(stub.port, wire_format="raw") as backend:
        assert backend.translate("化学", ZH_TO_EN, seed=1, variant=0) == "plain 译文"
    assert stub.requests[-1].body == RAW_PROMPT  # the prompt itself, not chat JSON


@pytest.mark.parametrize("content_type", [
    "text/plain",  # no charset: still UTF-8, as the request was
    "text/plain; charset=utf-8",
])
def test_http_backend_raw_wire_format_text_content_types(content_type):
    with serve(lambda request: plain("plain 译文", content_type)) as stub, \
            http_backend(stub.port, wire_format="raw") as backend:
        assert backend.translate("化学", ZH_TO_EN, seed=1, variant=0) == "plain 译文"
    assert stub.requests[-1].body == RAW_PROMPT  # the prompt itself, not chat JSON


@pytest.mark.parametrize("wire_format", ["chat", "raw"])
@pytest.mark.parametrize("key", ["sk-test-key", None])
def test_http_backend_sends_api_key_in_every_wire_format(monkeypatch, wire_format, key):
    if key is None:
        monkeypatch.delenv("BTEVAL_TEST_API_KEY", raising=False)
    else:
        monkeypatch.setenv("BTEVAL_TEST_API_KEY", key)
    reply = plain("译文") if wire_format == "raw" else chat("译文")
    with serve(lambda request: reply) as stub:
        config = http_config(stub.port, wire_format=wire_format, api_key_env="BTEVAL_TEST_API_KEY")
        if key is None:  # a named variable that is unset is a config error, not a 401
            with pytest.raises(ConfigError, match="BTEVAL_TEST_API_KEY' is unset or empty"):
                HttpBackend(config, sleep=lambda s: None)
            assert stub.requests == []
            return
        with closing(HttpBackend(config, sleep=lambda s: None)) as backend:
            assert backend.translate("化学", ZH_TO_EN, seed=1, variant=0) == "译文"
            assert backend.translate("化学", EN_TO_ZH, seed=2, variant=0) == "译文"
    assert [request.headers["Authorization"] for request in stub.requests] == [f"Bearer {key}"] * 2


@pytest.mark.parametrize("wire_format", ["chat", "raw"])
def test_http_backend_without_api_key_env_sends_no_authorization(wire_format):
    reply = plain("译文") if wire_format == "raw" else chat("译文")
    with serve(lambda request: reply) as stub, \
            http_backend(stub.port, wire_format=wire_format) as backend:
        assert backend.translate("化学", ZH_TO_EN, seed=1, variant=0) == "译文"
    assert "Authorization" not in stub.requests[-1].headers


@pytest.mark.parametrize("key, message", [
    (None, "is unset or empty"),
    ("", "is unset or empty"),
    ("sk-abc\n", "holds a CR, LF or NUL"),
    ("sk-\rabc", "holds a CR, LF or NUL"),
    ("sk-é€", "holds a character outside Latin-1"),
], ids=["unset", "empty", "trailing-newline", "carriage-return", "outside-latin-1"])
def test_api_key_that_no_header_may_carry_is_a_config_error(monkeypatch, key, message):
    if key is None:
        monkeypatch.delenv("BTEVAL_TEST_API_KEY", raising=False)
    else:
        monkeypatch.setenv("BTEVAL_TEST_API_KEY", key)
    config = http_config(9, api_key_env="BTEVAL_TEST_API_KEY")
    with pytest.raises(ConfigError, match=message) as raised:
        api_key(config)
    assert not key or key.strip() not in str(raised.value)  # the key is never shown


def test_api_key_is_read_once_when_the_backend_is_built(monkeypatch):
    monkeypatch.setenv("BTEVAL_TEST_API_KEY", "sk-é")  # Latin-1 is a legal header value
    with serve(lambda request: chat("译文")) as stub, \
            http_backend(stub.port, api_key_env="BTEVAL_TEST_API_KEY") as backend:
        monkeypatch.setenv("BTEVAL_TEST_API_KEY", "sk-changed")
        assert backend.translate("化学", ZH_TO_EN, seed=1, variant=0) == "译文"
    assert stub.requests[-1].headers["Authorization"] == "Bearer sk-\xe9"  # as Latin-1 bytes


def test_http_backend_unreachable_raises_backend_error():
    config = BackendConfig(id="h1", kind="http_llm", model_name="x",
                           endpoint="http://127.0.0.1:9/v1", max_retries=1,
                           rate_limit_rps=1000.0, timeout=0.2)
    backend = HttpBackend(config, sleep=lambda s: None)
    with pytest.raises(BackendError):
        backend.translate("化学", ZH_TO_EN, seed=1, variant=0)


def test_http_backend_reopens_a_dropped_keep_alive_connection():
    # the stub closes each connection after its reply without Connection: close, as a
    # server does when a keep-alive connection idles out
    with serve([chat("一", close=True), chat("二", close=True)]) as stub, \
            http_backend(stub.port, max_retries=0) as backend:
        assert backend.translate("化学", ZH_TO_EN, seed=1, variant=0) == "一"
        assert stub.closed.acquire(timeout=5)  # the idle connection is gone
        assert backend.translate("化学", ZH_TO_EN, seed=2, variant=0) == "二"
    assert stub.connections == 2 and len(stub.requests) == 2


@pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="no TCP_QUICKACK here")
def test_http_backend_does_not_wait_on_a_nagle_held_reply_body():
    # the stub sends a reply's head, then its body, with Nagle on, so the body waits for
    # the head's ACK; a delayed ACK costs ~40 ms a request
    times = []
    with serve(lambda request: chat("一")) as stub, \
            http_backend(stub.port, rate_limit_rps=1e5) as backend:
        for seed in range(20):
            start = time.perf_counter()
            assert backend.translate("化学", ZH_TO_EN, seed=seed, variant=0) == "一"
            times.append(time.perf_counter() - start)
    # a stalled request takes 40 ms or more, a prompt one well under 1 ms; the median
    # leaves a few requests slowed by a busy machine out of it
    assert statistics.median(times) < 0.01
    assert stub.connections == 1


@pytest.mark.parametrize("wire_format, step", [
    ("chat", Step(raw=b"NOT HTTP AT ALL\r\n\r\n")),
    ("chat", Step(raw=b"")),  # closed with no reply: RemoteDisconnected on a fresh connection
    # 6 of the body's bytes, then a close: in the raw format, "完整" of a declared 21 bytes
    ("chat", chat("完整的译文结果", cut=6)),
    ("raw", plain("完整的译文结果", cut=6)),
], ids=["garbage", "no-reply", "truncated-body-chat", "truncated-body-raw"])
def test_http_backend_bad_reply_is_a_transport_error(wire_format, step):
    with serve(lambda request: step) as stub, \
            http_backend(stub.port, max_retries=2, wire_format=wire_format) as backend:
        with pytest.raises(BackendError, match="transport error"):
            backend.translate("化学", ZH_TO_EN, seed=1, variant=0)
        assert backend._idle.empty()  # the failed connection is closed, not pooled
    # max_retries + 1, none of them reopened for free, each on a new connection
    assert len(stub.requests) == 3 and stub.connections == 3


def test_http_backend_reuses_its_connection_after_an_error_status():
    with serve([plain("overloaded", "text/plain", status=500), chat("译文")]) as stub, \
            http_backend(stub.port, max_retries=1) as backend:
        assert backend.translate("化学", ZH_TO_EN, seed=1, variant=0) == "译文"
    assert stub.connections == 1 and len(stub.requests) == 2


def test_http_backend_reply_over_the_cap_fails_and_its_connection_is_not_reused(monkeypatch):
    monkeypatch.setattr(transport, "MAX_REPLY_BYTES", 64)
    with serve([chat("长" * 64), chat("译文")]) as stub, \
            http_backend(stub.port, max_retries=0) as backend:
        with pytest.raises(BackendError, match=r"reply longer than MAX_REPLY_BYTES \(64 bytes\)"):
            backend.translate("化学", ZH_TO_EN, seed=1, variant=0)
        assert backend.translate("化学", ZH_TO_EN, seed=2, variant=0) == "译文"
    # the oversized reply's unread rest never reaches the next request
    assert stub.connections == 2 and len(stub.requests) == 2


def test_http_backend_chat_body_is_compact_json():
    with serve([chat("译文")]) as stub, http_backend(stub.port, temperature=0.25) as backend:
        backend.translate("化学", ZH_TO_EN, seed=9, variant=1)
    payload = {
        "model": "stub-model",
        "messages": [{"role": "user", "content": PROMPT_VARIANTS[ZH_TO_EN][1]
                      .replace("{text}", "化学")}],
        "temperature": 0.25,
        "seed": 9,
    }
    assert [request.body for request in stub.requests] == [
        json.dumps(payload, allow_nan=False).encode()]


@pytest.mark.parametrize("charset", ["x-no-such-codec", "idna", "undefined"])
def test_http_backend_raw_reply_with_unknown_charset_decodes_as_utf8(charset):
    # idna and undefined exist but decode no text: each raises UnicodeError, not LookupError
    reply = plain("译文".encode("utf-8") + b"\xff", f"text/plain; charset={charset}")
    with serve([reply]) as stub, http_backend(stub.port, wire_format="raw") as backend:
        assert backend.translate("化学", ZH_TO_EN, seed=1, variant=0) == "译文\ufffd"


def chat_json(content) -> str:
    return json.dumps({"choices": [{"message": {"content": content}}]})


RAW_CHARSETS = sorted(set(encodings.aliases.aliases) | set(encodings.aliases.aliases.values())
                      | {"idna", "punycode", "undefined", "rot13", "base64", "x-no-such-codec"})
RAW_BODIES = [b"", b" \n", "译文".encode("utf-8") + b"\xff", "译文".encode("utf-16"),
              b"\\ud800", b"+2AA-", b"\x00\xd8", b"\xff" * 8, b"translation"]
CHAT_BODIES = [
    b"[" * 100_000,
    b"\xff\xfe{\x80",
    chat_json("\ud800").encode("ascii"),  # a \ud800 escape: JSON, but not UTF-8
    b'{"choices": [{"message": {"content": NaN}}]}',
    chat_json(["译文"]).encode(), chat_json(None).encode(), chat_json(7).encode(),
    chat_json("  ").encode(), chat_json("译文").encode(),
    b'{"choices": []}', b'{"choices": {"0": {"message": {"content": "x"}}}}',
    chat_json("译文").encode("utf-16"), chat_json("\ud800").encode("utf-16"),
    chat_json("译文").encode("utf-32"), b"", b"null", b'"choices"',
]


def test_reply_parser_returns_a_completion_or_raises_value_error():
    # every reply either yields a non-empty, UTF-8-encodable completion or is a failed
    # attempt (ValueError); no other exception may escape into a run's worker
    def headers(content_type):
        return http.client.parse_headers(io.BytesIO(f"Content-Type: {content_type}\r\n\r\n"
                                                    .encode("latin-1")))

    raw = HttpBackend(http_config(9, wire_format="raw"))
    chat = HttpBackend(http_config(9))
    cases = [(raw, headers(f"text/plain; charset={charset}"), body)
             for charset in RAW_CHARSETS for body in RAW_BODIES]
    cases += [(chat, headers("application/json"), body) for body in CHAT_BODIES]
    outcomes = Counter()
    for backend, reply_headers, body in cases:
        try:
            completion = backend._completion(200, reply_headers, body)
        except ValueError:
            outcomes["failed"] += 1
        else:
            assert isinstance(completion, str) and completion
            completion.encode("utf-8")  # no lone surrogate
            outcomes["completion"] += 1
    assert outcomes["failed"] and outcomes["completion"]
    for backend in (raw, chat):
        for status in (-1, 0, 100, 199, 300, 302, 404, 500, 600):
            with pytest.raises(ValueError, match=f"HTTP {status}"):
                backend._completion(status, headers("application/json"), chat_json("译文").encode())
    assert chat._completion(200, headers("application/json"),
                            chat_json("译文").encode("utf-16")) == "译文"


def test_http_backend_sends_the_configured_prompt_templates():
    with serve([chat("translation"), chat("译文")]) as stub, http_backend(
            stub.port, prompt_template_forward="EN please: {text}",
            prompt_template_backward="ZH please: {text}") as backend:
        assert backend.translate("化学", ZH_TO_EN, seed=1, variant=2) == "translation"
        assert backend.translate("translation", EN_TO_ZH, seed=1, variant=2) == "译文"
    assert [json.loads(request.body)["messages"][0]["content"] for request in stub.requests] == [
        "EN please: 化学", "ZH please: translation"]


def test_https_endpoint_connects_with_a_verifying_tls_context():
    import http.client
    import ssl

    backend = HttpBackend(BackendConfig(id="h1", kind="http_llm", model_name="x",
                                        endpoint="https://api.example.org/v1/chat"))
    conn = backend._connect()  # a connection object; nothing is sent until a request
    try:
        assert isinstance(conn, http.client.HTTPSConnection) and conn.sock is None
        assert (conn.host, conn.port) == ("api.example.org", 443)
        assert conn._context.verify_mode == ssl.CERT_REQUIRED and conn._context.check_hostname
        assert backend._target == "/v1/chat"
    finally:
        conn.close()


def https_config(port, **kwargs):
    return http_config(port, endpoint=f"https://127.0.0.1:{port}/v1/chat/completions", **kwargs)


def test_https_round_trip_verifies_the_fixture_certificate(monkeypatch):
    # the backend's own verifying context, told to trust the fixture certificate
    create, contexts = ssl.create_default_context, []

    def trusting_fixture(*args, **kwargs):
        contexts.append(create(*args, cafile=str(TLS_CERT), **kwargs))
        return contexts[-1]

    monkeypatch.setattr(ssl, "create_default_context", trusting_fixture)
    with serve([chat("译文")], tls=True) as stub, closing(HttpBackend(
            https_config(stub.port, max_retries=0), sleep=lambda s: None)) as backend:
        assert backend.translate("化学", ZH_TO_EN, seed=1, variant=0) == "译文"
    [context] = contexts
    assert context.verify_mode == ssl.CERT_REQUIRED and context.check_hostname
    assert stub.connections == 1 and len(stub.requests) == 1


def test_https_with_an_untrusted_certificate_is_a_failed_attempt():
    waits = []
    with serve([], tls=True) as stub, closing(HttpBackend(  # no request may reach it
            https_config(stub.port, max_retries=1), sleep=waits.append)) as backend:
        with pytest.raises(BackendError, match="transport error: .*certificate verify failed"):
            backend.translate("化学", ZH_TO_EN, seed=1, variant=0)
    assert len(waits) == 1  # one retry, its backoff recorded rather than slept
    assert stub.requests == []


def test_token_bucket_with_fake_clock():
    now = [0.0]
    waits = []

    def clock():
        return now[0]

    def sleep(duration):
        waits.append(duration)
        now[0] += duration

    bucket = TokenBucket(rate_per_sec=2.0, clock=clock, sleep=sleep)
    bucket.acquire()  # initial token
    bucket.acquire()  # must wait 0.5s at 2 rps
    bucket.acquire()
    assert waits == pytest.approx([0.5, 0.5])


def test_token_bucket_gives_each_concurrent_acquire_its_own_slot():
    # the clock stands still, so every acquire after the first waits for its own slot;
    # a lost update under contention would hand two threads one slot
    waits, lock = [], threading.Lock()

    def sleep(duration):
        with lock:
            waits.append(duration)

    bucket = TokenBucket(rate_per_sec=4.0, clock=lambda: 0.0, sleep=sleep)
    threads = [threading.Thread(target=lambda: [bucket.acquire() for _ in range(50)], daemon=True)
               for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(waits) == [i / 4.0 for i in range(1, 400)]  # one slot each, 1 / rate apart


# ---------------------------------------------------------------- runs

def test_run_experiment_single_identity_cell():
    corpus = Corpus(name="one", samples=[
        TextSample(id="S1", domain="chemistry", text="化学工程的研究。"),
        TextSample(id="S2", domain="chemistry", text="元素观点的分析。"),
    ])
    matrices, records, manifest = run_experiment(corpus, run_config([mock_config("identity")]))
    assert len(records) == 2
    bleu_matrix = matrices["bleu"]
    assert bleu_matrix.values.shape == (2, 1, 1)
    assert bleu_matrix.values[0, 0, 0] == 1.0
    assert matrices["ter"].values[0, 0, 0] == 0.0
    assert matrices["semantic_similarity"].values[0, 0, 0] == 1.0
    assert manifest.design == {"n": 2, "k": 1, "r": 1}
    assert manifest.backend_ids == ["m1"]


def test_run_experiment_record_conservation_under_failure():
    corpus = tiny_corpus()
    failing = http_config(9, id="dead", max_retries=0, timeout=0.2)
    good = mock_config("identity", backend_id="alive")
    matrices, records, _ = run_experiment(corpus, run_config([good, failing], 2, master_seed=3))
    triples = {(r.sample_id, r.backend_id, r.repetition) for r in records}
    assert len(records) == 8 and len(triples) == 8  # every triple exactly once
    dead = [r for r in records if r.backend_id == "dead"]
    assert all(r.error is not None for r in dead)
    dead_col = matrices["bleu"].values[:, 1, :]
    assert np.isnan(dead_col).all()  # failures are missing cells
    assert not np.isnan(matrices["bleu"].values[:, 0, :]).any()


def test_run_experiment_sorted_canonical_log():
    corpus = tiny_corpus()
    configs = [mock_config("identity", backend_id="b2"),
               mock_config("identity", backend_id="b1")]
    _, records, _ = run_experiment(corpus, run_config(configs, 2, master_seed=1))
    keys = [(r.sample_id, r.backend_id, r.repetition) for r in records]
    assert keys == sorted(keys)


def test_run_experiment_replay_equality():
    corpus = tiny_corpus()
    config = mock_config("noise", drop_prob=0.2, swap_prob=0.1)
    first = run_experiment(corpus, run_config([config], 3, master_seed=99))
    second = run_experiment(corpus, run_config([config], 3, master_seed=99))
    assert first[1] == second[1]
    for metric in first[0]:
        assert np.array_equal(first[0][metric].values, second[0][metric].values,
                              equal_nan=True)


def cnki_head(n=12):
    loaded = parse_corpus(FIXTURES / "corpora" / "cnki_che_89.jsonl")
    return Corpus(name="cnki-head", samples=list(loaded)[:n])


NOISY = [mock_config("noise", backend_id="mild", drop_prob=0.05, swap_prob=0.02),
         mock_config("noise", backend_id="harsh", drop_prob=0.4, swap_prob=0.2)]


SCORING_VARIANTS = [ScoringConfig(), ScoringConfig(smoothing_epsilon=0.1),
                    ScoringConfig(bleu_weights=UNIFORM_WEIGHTS), ScoringConfig(level="character")]
SCORING_VARIANT_IDS = ["default", "smoothed", "uniform-weights", "character-level"]


# the smoothed config is the first whose flag cannot be read from the scoring BLEU
@pytest.mark.parametrize("scoring", SCORING_VARIANTS, ids=["flag-from-bleu", "detector-fallback",
                                                           "uniform-weights", "character-level"])
def test_run_experiment_verbatim_flag_matches_detector(scoring):
    config = run_config(NOISY, 2, scoring=scoring, master_seed=5)
    _, records, _ = run_experiment(cnki_head(), config)
    flags = [rec.verbatim_flag for rec in records if rec.error is None]
    assert len(flags) == len(records) and True in flags and False in flags
    for rec in records:
        assert rec.verbatim_flag == detect_verbatim(rec.zhx, rec.zhy)[1]


@pytest.mark.parametrize("scoring", SCORING_VARIANTS, ids=SCORING_VARIANT_IDS)
def test_run_experiment_segments_each_distinct_original_once(monkeypatch, scoring):
    calls = []
    original = segmentation.segment_words

    def counting(text, lexicon=None):
        calls.append(text)
        return original(text, lexicon)

    for module in (segmentation, metrics, pipeline):
        if hasattr(module, "segment_words"):  # every binding, however it is imported
            monkeypatch.setattr(module, "segment_words", counting)
    texts = ("化学工程领域的研究与分析。", "元素观点：物质由元素组成。", "化学工程领域的研究与分析。")
    configs = [mock_config("identity", backend_id="i1"), mock_config("identity", backend_id="i2")]
    run_experiment(tiny_corpus(texts), run_config(configs, 3, scoring=scoring, master_seed=2))
    assert sorted(calls) == sorted(set(texts))


@pytest.mark.parametrize("scoring", SCORING_VARIANTS, ids=SCORING_VARIANT_IDS)
def test_run_experiment_reads_word_level_verbatim_from_the_batch(monkeypatch, scoring):
    calls = []
    original = metrics.bleu

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (metrics, pipeline):
        monkeypatch.setattr(module, "bleu", counting)
    config = run_config(NOISY, 2, scoring=scoring, master_seed=5)
    _, records, _ = run_experiment(cnki_head(4), config)
    # the batch scores the verbatim similarity from its word ids at either level
    assert records and not calls


def test_run_experiment_character_idf_fits_character_documents():
    corpus = cnki_head(6)
    scoring = ScoringConfig(level="character")
    config = run_config(NOISY, 2, scoring=scoring, master_seed=3)
    matrices, records, _ = run_experiment(corpus, config)
    chars = segmentation.segment_chars
    idf = fit_idf([chars(s.text) for s in corpus] + [chars(rec.zhy) for rec in records])
    blocks = {s.id: i for i, s in enumerate(corpus)}
    treatments = {"mild": 0, "harsh": 1}
    cells = matrices["semantic_similarity"].values
    for rec in records:
        expected = semantic_similarity(chars(rec.zhy), chars(rec.zhx), idf)
        assert cells[blocks[rec.sample_id], treatments[rec.backend_id], rec.repetition - 1] == expected


class NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a thread pool was started")


def test_run_experiment_runs_mock_legs_inline(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", NoPool)
    _, records, _ = run_experiment(tiny_corpus(), run_config(NOISY, 2, master_seed=4))
    assert len(records) == 8 and all(rec.error is None for rec in records)


def test_run_experiment_pools_http_legs_by_max_workers(monkeypatch):
    sizes = []
    real_pool = ThreadPoolExecutor

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording_pool)
    config = http_config(9, id="h", max_workers=3)
    _, records, _ = run_experiment(tiny_corpus(), run_config([config], 2, master_seed=4),
                                   backend_instances={"h": make_backend(mock_config())})
    assert sizes == [3]
    assert len(records) == 4 and all(rec.verbatim_flag for rec in records)


class WaitsForMock:
    """An HTTP backend's stand-in whose legs finish only once the mock has run."""

    def __init__(self, mock_ran):
        self.mock_ran = mock_ran

    def translate(self, text, direction, seed, variant):
        if not self.mock_ran.wait(timeout=5):
            raise BackendError("the mock did not run while this leg was in flight")
        return text


class SignalsItRan:
    def __init__(self, mock_ran):
        self.mock_ran = mock_ran

    def translate(self, text, direction, seed, variant):
        self.mock_ran.set()
        return text


def test_run_experiment_runs_mocks_while_http_legs_are_in_flight():
    mock_ran = threading.Event()
    configs = [http_config(9, id="h"), mock_config(backend_id="m")]
    instances = {"h": WaitsForMock(mock_ran), "m": SignalsItRan(mock_ran)}
    _, records, _ = run_experiment(tiny_corpus(), run_config(configs, 2, master_seed=4),
                                   backend_instances=instances)
    assert len(records) == 8 and [rec.error for rec in records] == [None] * 8


def test_run_experiment_checks_every_api_key_before_any_request(monkeypatch):
    monkeypatch.setenv("BTEVAL_TEST_GOOD_KEY", "sk-good")
    monkeypatch.setenv("BTEVAL_TEST_BAD_KEY", "sk-bad\n")
    with serve([]) as stub:  # no request may reach it
        configs = [http_config(stub.port, id="a", api_key_env="BTEVAL_TEST_GOOD_KEY"),
                   http_config(stub.port, id="b", api_key_env="BTEVAL_TEST_BAD_KEY")]
        with pytest.raises(ConfigError, match="BTEVAL_TEST_BAD_KEY"):
            run_experiment(tiny_corpus(), run_config(configs, 2))
    assert stub.requests == []


def payload_text(request):
    """The text a chat request asks to translate: its prompt after the instruction."""
    return json.loads(request.body)["messages"][0]["content"].rsplit("\n\n", 1)[1]


def path_configs(port, paths, **kwargs):
    """One http_llm backend per stub path, named after it."""
    return [http_config(port, id=path, endpoint=f"http://127.0.0.1:{port}/{path}", **kwargs)
            for path in paths]


def test_run_experiment_overlaps_http_backends_within_max_workers():
    barrier = threading.Barrier(2, timeout=5)
    lock = threading.Lock()
    in_flight, peak = Counter(), Counter()

    def reply(request):
        with lock:
            in_flight[request.path] += 1
            peak[request.path] = max(peak[request.path], in_flight[request.path])
        try:
            barrier.wait()  # answers only with a second request in flight
        finally:
            with lock:
                in_flight[request.path] -= 1
        return chat(payload_text(request))

    with serve(reply) as stub:
        configs = path_configs(stub.port, ("a", "b"), max_workers=1, max_retries=0)
        _, records, _ = run_experiment(tiny_corpus(), run_config(configs, 2, master_seed=2))
    assert len(records) == 8 and all(rec.error is None for rec in records)
    assert peak == {"/a": 1, "/b": 1}  # never above either backend's max_workers


def test_http_backend_keeps_connections_alive_without_cookies():
    # each reply sets a cookie, which a cookie-keeping client would send back
    cookie = {"Set-Cookie": "session=stub; Path=/"}
    with serve(lambda request: chat(payload_text(request), headers=cookie)) as stub:
        config = http_config(stub.port, max_workers=2)
        _, records, _ = run_experiment(cnki_head(3), run_config([config], 2, master_seed=8))
    assert len(records) == 6 and all(rec.error is None for rec in records)
    assert stub.connections <= 2
    assert [request.headers["Cookie"] for request in stub.requests] == [None] * 12


class SequentialPool(ThreadPoolExecutor):
    """The one-backend-at-a-time schedule: each leg runs when it is submitted."""

    def submit(self, fn, /, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


def test_concurrent_http_run_equals_one_backend_runs(monkeypatch):
    def reply(request):
        # per-path, per-seed character drops; the sleep shuffles completion order
        text, seed = payload_text(request), json.loads(request.body)["seed"]
        time.sleep(seed % 3 / 1000)
        return chat("".join(ch for i, ch in enumerate(text) if (i + seed) % (2 + len(request.path))))

    corpus = cnki_head(4)
    interval = sys.getswitchinterval()
    with serve(reply) as stub:
        try:
            # six client threads on a short switch interval, to expose shared-state races
            configs = path_configs(stub.port, ("x", "yy", "zzz"), max_workers=2)
            sys.setswitchinterval(1e-5)
            matrices, records, _ = run_experiment(corpus, run_config(configs, 2, master_seed=11))
            sys.setswitchinterval(interval)
            singles = [run_experiment(corpus, run_config([config], 2, master_seed=11))
                       for config in configs]
            monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SequentialPool)
            sequential, sequential_records, _ = run_experiment(
                corpus, run_config(configs, 2, master_seed=11))
        finally:
            sys.setswitchinterval(interval)
    assert len(records) == 24 and all(rec.error is None for rec in records)
    merged = sorted((rec for _, run, _ in singles for rec in run),
                    key=lambda rec: (rec.sample_id, rec.backend_id, rec.repetition))
    assert records == merged
    assert records == sequential_records
    # pair-level metrics equal the one-backend columns; IDF is fitted per run,
    # so semantic_similarity is compared with the same run on the old schedule
    for name in ("bleu", "bleu_unif", "chrf", "ter"):
        stacked = np.concatenate([m[name].values for m, _, _ in singles], axis=1)
        assert np.array_equal(matrices[name].values, stacked)
    for name, matrix in matrices.items():
        assert matrix.to_dict() == sequential[name].to_dict()


def write_run(directory, corpus, backends, r, name="run.json"):
    """corpus.jsonl and a run config over it and backends, in directory; returns the config's path."""
    (directory / "corpus.jsonl").write_text("".join(
        json.dumps({"id": s.id, "domain": s.domain, "text": s.text}, ensure_ascii=False) + "\n"
        for s in corpus), encoding="utf-8")
    path = directory / name
    path.write_text(json.dumps({"corpus": str(directory / "corpus.jsonl"), "repetitions": r,
                                "backends": [asdict(backend) for backend in backends]}), encoding="utf-8")
    return path


def test_a_malformed_chat_reply_costs_one_backends_records(tmp_path):
    # a reply nested past the recursion limit raised RecursionError out of the whole run
    corpus, r = cnki_head(3), 2
    bad_reply = Step(body=b"[" * 100_000)
    with serve(lambda request: chat(payload_text(request))) as good_stub, \
            serve([bad_reply] * (len(corpus) * r)) as bad_stub:
        good = http_config(good_stub.port, id="good", max_retries=0)
        bad = http_config(bad_stub.port, id="bad", max_retries=0)
        config = write_run(tmp_path, corpus, [good, bad], r)
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        _, alone, _ = run_experiment(corpus, run_config([good], r))
    assert code in (cli.EXIT_OK, cli.EXIT_DEGRADED)
    records = read_records(tmp_path / "out" / "records.jsonl")
    assert len(records) == len(corpus) * 2 * r
    errors = {rec.error for rec in records if rec.backend_id == "bad"}
    assert errors == {"bad: malformed reply: ValueError: JSON nested too deeply"}
    assert [rec for rec in records if rec.backend_id == "good"] == alone


OVER_CAP = chat("长" * 256)  # past the 256-byte MAX_REPLY_BYTES its case patches in

# the catalogue of replies the stub can script, each fixed one run every time
FIXED_REPLIES = [
    *(chat("译文", content_type=content_type) for content_type in (
        "text/html", "application/json; charset=latin-1", "application/json; charset=utf-16",
        "application/json; charset=no-such-codec", "application/json; charset=idna", "")),
    plain("not JSON"), plain("译文".encode("gbk"), "text/plain; charset=gbk"),
    plain(b"\xed\xa0\x80", "text/plain; charset=utf-8"),  # a surrogate's UTF-8 form
    Step(body=b'{"choices": [{"message": {"content": NaN}}]}'),
    Step(body=b"[1]"), Step(body=b'{"choices": []}'), Step(body=b'{"choices": [{"message": "text"}]}'),
    chat(["译文"]), chat(None), chat(3),
    Step(body=b"[" * 100_000), Step(body=b'{"a": ' * 5_000),
    Step(body=b'{"choices": [{"message": {"content": "\xff\xfe"}}]}'),  # not UTF-8
    Step(body=b'{"choices": [{"message": {"content": "\\ud800"}}]}'),  # a lone surrogate
    Step(raw=b"HTTP/1.1 200 OK\r\n"), chat("译文", cut=5), chat("译文", close=True), OVER_CAP,
]
WIRE_FORMATS = ("chat", "raw")
DRAWN_REPLIES = st.one_of(
    st.integers(200, 599).map(lambda status: chat("译文", status=status)),
    st.text(max_size=20).map(plain),
    st.binary(max_size=40).map(lambda body: Step(body=body)),
    st.binary(max_size=60).map(lambda raw: Step(raw=raw)),  # bytes in place of a reply
    st.integers(0, 40).map(lambda cut: chat("译文", cut=cut)),  # a body cut short, then a close
)


def test_any_scripted_reply_costs_only_its_backends_records(tmp_path):
    corpus, bad_step = tiny_corpus(), [None]

    def reply(request):
        return chat(payload_text(request)) if request.path == "/good" else bad_step[0]

    def check(step, wire_format):
        bad_step[0] = step
        out = tmp_path / "out"
        with mock.patch.object(transport, "MAX_REPLY_BYTES",
                               256 if step is OVER_CAP else transport.MAX_REPLY_BYTES):
            code = cli.main(["run", "--config", str(tmp_path / f"{wire_format}.json"), "--out", str(out)])
        assert code in (cli.EXIT_OK, cli.EXIT_DEGRADED)
        records = read_records(out / "records.jsonl")
        assert len(records) == len(corpus) * 2  # n * k * r, with k = 2 and r = 1
        assert [rec for rec in records if rec.backend_id == "good"] == alone

    with serve(reply) as stub:
        good, bad = path_configs(stub.port, ("good", "bad"), max_retries=0)
        for wire_format in WIRE_FORMATS:  # the bad backend reads its replies as chat JSON or raw text
            write_run(tmp_path, corpus, [good, replace(bad, wire_format=wire_format)], 1,
                      f"{wire_format}.json")
        _, alone, _ = run_experiment(corpus, run_config([good], 1))
        for step in FIXED_REPLIES:
            for wire_format in WIRE_FORMATS:
                check(step, wire_format)
        settings(max_examples=20, deadline=None)(
            given(DRAWN_REPLIES, st.sampled_from(WIRE_FORMATS))(check))()


def test_backtranslate_matches_run_experiment_and_detectors():
    corpus = cnki_head(4)
    _, run_records, _ = run_experiment(corpus, run_config(NOISY, 3, master_seed=6))
    flags = set()
    for config in NOISY:
        for sample in corpus:
            records = backtranslate(config, sample, r=3, master_seed=6)
            assert records == [rec for rec in run_records
                               if (rec.sample_id, rec.backend_id) == (sample.id, config.id)]
            for rec in records:
                assert rec.verbatim_flag == detect_verbatim(rec.zhx, rec.zhy)[1]
                assert rec.traditional_flag == segmentation.detect_traditional(rec.zhy)[1]
                flags.add(rec.verbatim_flag)
    assert flags == {True, False}


def test_zero_repetitions_is_a_config_error():
    with pytest.raises(ConfigError, match="repetitions"):
        run_experiment(tiny_corpus(), run_config([mock_config()], 0))
    with pytest.raises(ConfigError, match="repetitions"):
        backtranslate(mock_config(), tiny_corpus().samples[0], r=0, master_seed=1)


def test_run_config_rejects_no_backends():
    with pytest.raises(ConfigError, match=re.escape(
            "run config 'backends' must be a non-empty tuple of objects, got ()")):
        run_config([])


@pytest.mark.parametrize("repetitions", [2.0, "2", None, True])
def test_run_config_rejects_repetitions_that_are_not_an_integer(repetitions):
    with pytest.raises(ConfigError, match=re.escape(
            f"run config 'repetitions' must be int, got {repetitions!r}")):
        run_config([mock_config()], repetitions)


# a config built in code, which the JSON reader never sees, is type-checked when built
@pytest.mark.parametrize("field, value, message", [
    ("scoring", None, "run config 'scoring' must be a ScoringConfig, got None"),
    ("master_seed", "7", "run config 'master_seed' must be int, got '7'"),
    ("master_seed", True, "run config 'master_seed' must be int, got True"),
    ("verbatim_threshold", "0.5", "run config 'verbatim_threshold' must be a number, got '0.5'"),
    ("traditional_threshold", True, "run config 'traditional_threshold' must be a number, got True"),
    ("max_missing_fraction", "1", "run config 'max_missing_fraction' must be a number, got '1'"),
], ids=["scoring-none", "seed-str", "seed-bool", "threshold-str", "threshold-bool",
        "missing-fraction-str"])
def test_run_config_rejects_a_field_of_the_wrong_type(field, value, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_config([mock_config()], **{field: value})


def test_run_config_rejects_a_backend_that_is_not_a_backend_config():
    with pytest.raises(ConfigError, match=re.escape(
            "run config 'backends[0]' must be a BackendConfig, got {'id': 'm1'")):
        run_config([{"id": "m1", "kind": "mock", "model_name": "identity"}])


# One valid construction in code of each config class, and the error it raises.
VALID_CONFIGS = {
    BackendConfig: ({"id": "m1", "kind": "mock", "model_name": "identity"}, ConfigError),
    RunConfig: ({"corpus": "", "backends": (BackendConfig("m1", "mock", "identity"),)},
                ConfigError),
    ScoringConfig: ({}, MetricError),
    BleuConfig: ({}, MetricError),
    TextSample: ({"id": "S1", "domain": "chemistry", "text": "化学"}, CorpusError),
    ExperimentDesign: ({"n": 1, "k": 1, "r": 1}, StatsError),
    ScoreMatrix: ({"design": ExperimentDesign(1, 1, 1), "metric": "bleu", "values": [[[0.5]]],
                   "block_ids": ["b"], "treatment_ids": ["x"]}, StatsError),
}

# a value of each kind; a field admits the kinds ADMITTED names for its type, and None
# where its type is X | None
KINDS = {"str": "x", "int": 3, "float": 2.5, "integral-float": 2.0, "bool": True, "none": None,
         "list": [0.25, 0.25, 0.25, 0.25], "dict": {"id": "m1"}}
# a matrix's values are whatever np.asarray(..., dtype=float) takes; its shape is checked
ADMITTED = {str: {"str"}, int: {"int"}, float: {"int", "float", "integral-float"}, dict: {"dict"},
            np.ndarray: set(KINDS)}
EXTRA_KINDS = {str: {"lone-surrogate": "\ud800"}, float: {"10**400": 10**400},
               list[str]: {"tuple": ("x",), "lone-surrogate-item": ["\ud800"]}}


def wrong_field_values():
    for cls in VALID_CONFIGS:
        for name, hint in get_type_hints(cls).items():
            nullable = type(None) in get_args(hint)
            base = get_args(hint)[0] if nullable else hint
            admitted = ADMITTED.get(base, set()) | ({"none"} if nullable else set())
            kinds = {kind: value for kind, value in KINDS.items() if kind not in admitted}
            for kind, value in (kinds | EXTRA_KINDS.get(base, {})).items():
                # a list given for a list field is wrong in its first item
                key = f"{name}[0]" if isinstance(value, list) and base == list[str] else name
                yield pytest.param(cls, name, value, key, id=f"{cls.__name__}.{name}-{kind}")


@pytest.mark.parametrize("cls, name, value, key", wrong_field_values())
def test_each_config_class_rejects_each_wrong_kind_of_field_value(cls, name, value, key):
    # never a TypeError, AttributeError or OverflowError from a later check
    kwargs, error = VALID_CONFIGS[cls]
    with pytest.raises(error, match=re.escape(repr(key))):
        cls(**(kwargs | {name: value}))


def test_run_experiment_rejects_duplicate_backend_ids():
    with pytest.raises(ConfigError, match="unique"):
        run_experiment(tiny_corpus(), run_config([mock_config(), mock_config()]))


def test_record_log_round_trip(tmp_path):
    corpus = tiny_corpus()
    _, records, _ = run_experiment(corpus, run_config([mock_config("identity")], 2, master_seed=5))
    path = tmp_path / "records.jsonl"
    write_records(records, path)
    again = read_records(path)
    assert again == records
    write_records(again, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def test_record_log_is_the_asdict_form(tmp_path):
    _, records, _ = run_experiment(cnki_head(4), run_config(NOISY, 2, master_seed=5))
    records[0].error = "HTTP 500"  # every field type, None and str alike
    path = tmp_path / "records.jsonl"
    write_records(records, path)
    lines = [json.dumps(asdict(rec), ensure_ascii=False) for rec in records]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_traditional_flag_raised_on_drifting_backend(hua_yao_original):
    class TraditionalBackend:
        def translate(self, text, direction, seed, variant):
            if direction == ZH_TO_EN:
                return "elements"
            return "元素觀點：物質由元素組成"

    sample = TextSample(id="S1", domain="chemistry", text="元素观点：物质由元素组成")
    records = backtranslate(mock_config("identity"), sample, r=1, master_seed=0,
                            backend=TraditionalBackend())
    assert records[0].traditional_flag
    assert not records[0].verbatim_flag
