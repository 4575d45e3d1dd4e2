"""Subcommand behavior, exit codes, and on-disk run artifacts."""

import ast
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from bteval import metrics, pipeline, segmentation
from bteval.cli import EXIT_DEGRADED, EXIT_OK, EXIT_USAGE
from bteval.config import RunConfig
from bteval.corpus import parse_corpus
from bteval.jsonio import config_from_json

from conftest import (
    FIXTURES, OVERFLOW, make_matrix, run_cli, write_config, write_jsonl, write_matrix,
    write_run_config,
)
from http_stub import Step, chat, serve


TINY_CORPUS_RECORDS = [
    {"id": "S1", "domain": "chemistry", "text": "化学工程领域的研究与分析。", "variant": "simplified"},
    {"id": "S2", "domain": "chemistry", "text": "元素观点：物质由元素组成。", "variant": "simplified"},
]


@pytest.fixture
def tiny_corpus_path(tmp_path):
    return write_jsonl(tmp_path / "tiny.jsonl", TINY_CORPUS_RECORDS)


# ---------------------------------------------------------------- segment

def test_segment_char_level():
    code, out, _ = run_cli("segment", "--level", "char", "化学")
    assert code == EXIT_OK
    assert out.strip() == "化/学"


def test_segment_with_custom_lexicon(tmp_path):
    dict_path = tmp_path / "dict.txt"
    dict_path.write_text("人工智能 100\n人工 50\n智能 50\n", encoding="utf-8")
    code, out, _ = run_cli("segment", "--lexicon", str(dict_path), "人工智能")
    assert code == EXIT_OK
    assert out.strip() == "人工智能"


def test_segment_lines_flag():
    code, out, _ = run_cli("segment", "--level", "char", "--lines", "化学")
    assert code == EXIT_OK and out == "化\n学\n"


# ---------------------------------------------------------------- score

def test_score_identical_files(tmp_path):
    a = tmp_path / "a.txt"
    a.write_text("化学工程领域的研究。", encoding="utf-8")
    code, out, _ = run_cli("score", str(a), str(a))
    assert code == EXIT_OK
    vector = json.loads(out)
    assert vector == {"bleu": 1.0, "bleu_unif": 1.0, "chrf": 1.0, "ter": 0.0,
                      "semantic_similarity": 1.0}


def test_score_lyric_fixture_band():
    code, out, _ = run_cli(
        "score",
        str(FIXTURES / "hua_yao" / "original.txt"),
        str(FIXTURES / "hua_yao" / "deepseek_v3.txt"),
    )
    assert code == EXIT_OK
    assert abs(json.loads(out)["bleu"] - 0.7602) <= 0.15


HUA_YAO = [str(FIXTURES / "hua_yao" / "original.txt"), str(FIXTURES / "hua_yao" / "deepseek_v3.txt")]
CNKI_89 = str(FIXTURES / "corpora" / "cnki_che_89.jsonl")
CHARACTER = {"level": "character"}
RUN_KEYS = {"corpus": "c.jsonl", "backends": [{"id": "m", "kind": "mock", "model_name": "identity"}]}


def score_with_config(tmp_path, config):
    path = write_config(tmp_path / "score.json", config)
    return run_cli("score", *HUA_YAO, "--config", str(path))


@pytest.mark.parametrize("config, scoring", [
    (CHARACTER, CHARACTER),
    ({**RUN_KEYS, "scoring": CHARACTER}, CHARACTER),
    (RUN_KEYS, {}),
], ids=["bare-scoring", "run-config", "run-config-without-scoring"])
def test_score_config_reads_a_scoring_object_or_a_run_config(tmp_path, config, scoring):
    code, out, err = score_with_config(tmp_path, config)
    assert code == EXIT_OK and err == ""
    original, candidate = (Path(p).read_text(encoding="utf-8").strip() for p in HUA_YAO)
    vectors = {level: asdict(metrics.score_pair(original, candidate, segmentation.default_lexicon(),
                                                metrics.ScoringConfig(level=level)))
               for level in ("word", "character")}
    assert vectors["word"] != vectors["character"]
    assert json.loads(out) == vectors[scoring.get("level", "word")]


@pytest.mark.parametrize("config, message", [
    ({**RUN_KEYS, "scoring": {"level": "glyph"}}, "level"),
    ({**RUN_KEYS, "scoring": {"chrf_bta": 2}}, "chrf_bta"),
    ({**RUN_KEYS, "scoring": []}, "scoring must be a JSON object"),
    ({**CHARACTER, "corpus": "c.jsonl"}, "unknown run config keys: ['level']"),
    ({"chrf_max_n": 1e30}, "chrf_max_n must be <= 32"),
    # Python's json reads these; scoring with a NaN weight printed {"bleu": NaN, ...}
    ({"bleu_weights": [float("nan"), 0.5, 0.5, 0.0]}, "NaN is not JSON"),
    ({"bleu_weights": [float("inf"), 0.5, 0.5, 0.0]}, "Infinity is not JSON"),
    ({"bleu_weights": [-float("inf"), 0.5, 0.5, 0.0]}, "-Infinity is not JSON"),
], ids=["bad-level", "unknown-scoring-field", "scoring-array", "scoring-key-beside-run-keys",
        "chrf-max-n-1e30", "NaN", "Infinity", "-Infinity"])
def test_score_config_with_an_invalid_scoring_block_exits_2(tmp_path, config, message):
    code, _, err = score_with_config(tmp_path, config)
    assert code == EXIT_USAGE and message in err


# ---------------------------------------------------------------- validate

def test_validate_shipped_corpus():
    code, out, err = run_cli("validate", CNKI_89)
    assert code == EXIT_OK
    assert out == ""  # clean corpus: no warnings on stdout
    assert "89 samples" in err


def test_validate_reports_traditional_warning(tmp_path):
    record = {"id": "T1", "domain": "x", "text": "元素觀點：物質由元素組成",
              "variant": "simplified"}
    path = write_jsonl(tmp_path / "c.jsonl", [record])
    code, out, _ = run_cli("validate", str(path))
    assert code == EXIT_OK
    assert "traditional characters detected" in out


def test_validate_threshold_flag_sets_the_warning_ratio(tmp_path):
    # one traditional-only character in 49 Han characters: a ratio of 0.020
    record = {"id": "T1", "domain": "x", "text": "化学工程领域的研究与分析" * 4 + "觀",
              "variant": "simplified"}
    path = str(write_jsonl(tmp_path / "c.jsonl", [record]))
    assert run_cli("validate", path) == (EXIT_OK, "", "1 samples, 0 warnings\n")
    code, out, _ = run_cli("validate", path, "--threshold", "0.01")
    assert code == EXIT_OK
    assert out == "T1: traditional characters detected (ratio 0.020 exceeds 0.01)\n"


# ---------------------------------------------------------------- run

MOCK_BACKENDS = [
    {"id": "m1", "kind": "mock", "model_name": "noise", "drop_prob": 0.1, "swap_prob": 0.05},
    {"id": "m2", "kind": "mock", "model_name": "noise", "drop_prob": 0.25, "swap_prob": 0.1},
]

RUN_ARTIFACTS = (
    "records.jsonl", "manifest.json", "summaries.csv", "pairwise_tests.csv",
    "correlations.csv", "plot_bundle.json", "stats_report.json",
    "matrix_bleu.json", "matrix_bleu_unif.json", "matrix_chrf.json",
    "matrix_ter.json", "matrix_semantic_similarity.json",
)


def test_run_emits_all_artifacts_with_record_count(tmp_path, tiny_corpus_path):
    config = write_run_config(tmp_path, tiny_corpus_path, MOCK_BACKENDS)
    out_dir = tmp_path / "out"
    code, _, err = run_cli("run", "--config", str(config), "--out", str(out_dir))
    assert code == EXIT_OK
    assert "8 records" in err  # 2 texts x 2 backends x 2 reps
    for name in RUN_ARTIFACTS:
        assert (out_dir / name).is_file(), name
    records = pipeline.read_records(out_dir / "records.jsonl")
    assert len(records) == 8
    # manifest ties the run to the exact corpus bytes and records the prompts
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["corpus_sha256"] == hashlib.sha256(
        Path(tiny_corpus_path).read_bytes()).hexdigest()
    assert set(manifest["prompt_variants"]) == {"zh_to_en", "en_to_zh"}
    assert all(len(v) == 3 for v in manifest["prompt_variants"].values())


def test_run_replay_is_byte_identical(tmp_path, tiny_corpus_path):
    config = write_run_config(tmp_path, tiny_corpus_path, MOCK_BACKENDS)
    dirs = (tmp_path / "run_a", tmp_path / "run_b")
    for out_dir in dirs:
        code, _, _ = run_cli("run", "--config", str(config), "--out", str(out_dir))
        assert code == EXIT_OK
    comparable = [name for name in RUN_ARTIFACTS if name != "manifest.json"]
    for name in comparable:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
    # manifests differ only in their timestamps
    manifests = [json.loads((d / "manifest.json").read_text(encoding="utf-8")) for d in dirs]
    for manifest in manifests:
        manifest.pop("timestamp")
    assert manifests[0] == manifests[1]


def test_run_seed_flag_overrides_config(tmp_path, tiny_corpus_path):
    config = write_run_config(tmp_path, tiny_corpus_path, MOCK_BACKENDS)
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("run", "--config", str(config), "--out", str(a), "--seed", "99")
    run_cli("run", "--config", str(config), "--out", str(b))
    assert (a / "records.jsonl").read_bytes() != (b / "records.jsonl").read_bytes()
    manifest = json.loads((a / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["master_seed"] == 99


def test_library_run_writes_the_bytes_of_the_cli_run(tmp_path, tiny_corpus_path):
    # `bteval run --seed 99` is run_experiment on the config it read, with the seed replaced
    path = write_run_config(tmp_path, tiny_corpus_path, MOCK_BACKENDS, verbatim_threshold=0.5,
                            traditional_threshold=0.2, scoring={"smoothing_epsilon": 0.1})
    out = tmp_path / "out"
    code, _, _ = run_cli("run", "--config", str(path), "--out", str(out), "--seed", "99")
    assert code == EXIT_OK
    config = config_from_json(RunConfig, json.loads(path.read_text(encoding="utf-8")),
                              "run config")
    matrices, records, manifest = pipeline.run_experiment(
        parse_corpus(config.corpus), replace(config, master_seed=99))
    pipeline.write_records(records, tmp_path / "records.jsonl")
    assert (tmp_path / "records.jsonl").read_bytes() == (out / "records.jsonl").read_bytes()
    for name, matrix in matrices.items():
        encoded = json.dumps(matrix.to_dict(), ensure_ascii=False) + "\n"
        assert (out / f"matrix_{name}.json").read_bytes() == encoded.encode("utf-8"), name
    # the same manifest bytes, but for the timestamp line
    written, expected = ((out / "manifest.json").read_text(encoding="utf-8"),
                         json.dumps(asdict(manifest), ensure_ascii=False, indent=2) + "\n")
    assert '"master_seed": 99,' in written and written != expected
    timestamp = re.compile(r'\n  "timestamp": "[^"]*",')
    assert timestamp.sub("", written) == timestamp.sub("", expected)


def test_run_unreachable_backend_degrades_to_missing(tmp_path, tiny_corpus_path):
    backends = [
        {"id": "alive", "kind": "mock", "model_name": "identity"},
        {"id": "dead", "kind": "http_llm", "model_name": "x",
         "endpoint": "http://127.0.0.1:9/v1", "max_retries": 0, "timeout": 0.2,
         "rate_limit_rps": 1000.0},
    ]
    config = write_run_config(tmp_path, tiny_corpus_path, backends)
    out_dir = tmp_path / "out"
    code, _, err = run_cli("run", "--config", str(config), "--out", str(out_dir))
    assert code == EXIT_OK  # degraded but within the default threshold
    assert "8 records" in err and "4 errors" in err
    matrix = json.loads((out_dir / "matrix_bleu.json").read_text(encoding="utf-8"))
    dead_column = [block[1] for block in matrix["values"]]
    assert all(value is None for cell in dead_column for value in cell)


def test_run_degradation_threshold_exit_code(tmp_path, tiny_corpus_path):
    backends = [
        {"id": "alive", "kind": "mock", "model_name": "identity"},
        {"id": "dead", "kind": "http_llm", "model_name": "x",
         "endpoint": "http://127.0.0.1:9/v1", "max_retries": 0, "timeout": 0.2,
         "rate_limit_rps": 1000.0},
    ]
    config = write_run_config(tmp_path, tiny_corpus_path, backends,
                              max_missing_fraction=0.25)
    code, _, err = run_cli("run", "--config", str(config),
                          "--out", str(tmp_path / "out"))
    assert code == EXIT_DEGRADED
    assert "threshold exceeded" in err


def test_run_with_every_round_trip_failing_is_degraded(tmp_path, tiny_corpus_path):
    backends = [
        {"id": backend_id, "kind": "http_llm", "model_name": "x",
         "endpoint": "http://127.0.0.1:9/v1", "max_retries": 0, "timeout": 0.2,
         "rate_limit_rps": 1000.0}
        for backend_id in ("dead1", "dead2")
    ]
    config = write_run_config(tmp_path, tiny_corpus_path, backends)
    out_dir = tmp_path / "out"
    code, _, err = run_cli("run", "--config", str(config), "--out", str(out_dir))
    assert code == EXIT_DEGRADED  # whatever max_missing_fraction allows
    assert "8 records, 8 errors" in err and "summary skipped for bleu" in err
    for name in RUN_ARTIFACTS:
        assert (out_dir / name).is_file(), name


def one_mock_backend(**fields):
    return {"backends": [dict(MOCK_BACKENDS[0], **fields)]}


def one_http_backend(**fields):
    return {"backends": [dict({"id": "h1", "kind": "http_llm", "model_name": "x"}, **fields)]}


@pytest.mark.parametrize("extra, message", [
    ({"scoring": {"bogus": 1}}, "unknown scoring keys: ['bogus']"),
    ({"scoring": {"level": "sentence"}}, "scoring level"),
    ({"repetitions": "three"}, "'repetitions' must be int"),
    ({"scoring": {"chrf_max_n": 0}}, "chrf_max_n must be an integer >= 1"),
    ({"scoring": {"chrf_beta": 0}}, "chrf_beta must be > 0"),
    ({"scoring": {"chrf_beta": 1e200}}, "chrf_beta must be > 0 with a finite square"),
    ({"scoring": {"bleu_weights": [0.5, 0.5, 0.5, 0.0]}}, "weights must sum to 1"),
    ({"scoring": {"bleu_unif_weights": [0.5, 0.5]}}, "exactly 4 n-gram weights"),
    ({"scoring": {"smoothing_epsilon": 0}}, "smoothing_epsilon must be > 0"),
    ({"scoring": {"smoothing_epsilon": 4}}, "smoothing_epsilon must be > 0 and <= 1"),
    ({"scoring": {"smoothing_epsilon": OVERFLOW}}, "smoothing_epsilon must be > 0 and <= 1"),
    ({"repetitions": 0}, "repetitions must be >= 1"),
    ({"backends": MOCK_BACKENDS[:1] * 2}, "backend ids must be unique within a run"),
    (one_mock_backend(drop_prob=2.0), "drop_prob must lie in [0, 1]"),
    (one_mock_backend(swap_prob=-0.1), "swap_prob must lie in [0, 1]"),
    (one_mock_backend(max_retries=-1), "max_retries must be an integer >= 0"),
    (one_mock_backend(rate_limit_rps=0), "rate_limit_rps must be > 0"),
    (one_mock_backend(max_workers=0), "max_workers must be an integer >= 1"),
    (one_mock_backend(timeout=0), "timeout must be > 0"),
    (one_mock_backend(timeout=1e300), "timeout must be <= 9223372036 s"),
    (one_mock_backend(timeout=OVERFLOW), "timeout must be <= 9223372036 s"),
    (one_mock_backend(rate_limit_rps=1e-300),
     "max_workers / rate_limit_rps must be <= 9223372036 s"),
    (one_http_backend(endpoint="127.0.0.1:9/v1"), "must be an http or https URL"),
    (one_http_backend(endpoint="ftp://127.0.0.1/v1"), "must be an http or https URL"),
    (one_http_backend(endpoint="http:///v1"), "has no host"),
    (one_http_backend(endpoint="http://127.0.0.1:abc/v1"), "Port could not be cast"),
    (one_http_backend(endpoint="http://127.0.0.1:9/v1", temperature=float("nan")),
     "NaN is not JSON"),
    ({"repetitons": 3}, "unknown run config keys: ['repetitons']"),
    ({"backends": []}, "'backends' must be a non-empty array of objects"),
    ({"backends": {"id": "a"}}, "'backends' must be a non-empty array of objects"),
    ({"repetitions": 2.7}, "'repetitions' must be int, got 2.7"),
    ({"repetitions": True}, "'repetitions' must be int, got True"),
    ({"master_seed": 1.5}, "'master_seed' must be int, got 1.5"),
    ({"verbatim_threshold": float("nan")}, "NaN is not JSON"),
    ({"traditional_threshold": 1.5}, "'traditional_threshold' must be a number in [0, 1]"),
    ({"max_missing_fraction": -0.1}, "'max_missing_fraction' must be a number in [0, 1]"),
    (one_mock_backend(id=5), "backends[0] 'id' must be a string, got 5"),
    (one_http_backend(endpoint="http://127.0.0.1:9/v1", api_key_env=5),
     "backends[0] 'api_key_env' must be a string or null, got 5"),
    (one_http_backend(endpoint=5), "backends[0] 'endpoint' must be a string, got 5"),
    (one_mock_backend(prompt_template_forward=5),
     "backends[0] 'prompt_template_forward' must be a string or null, got 5"),
    ({"corpus": 5}, "run config 'corpus' must be a string, got 5"),
    ({"lexicon": 5}, "run config 'lexicon' must be a string or null, got 5"),
    ({"scoring": [["level", "character"]]}, "scoring must be a JSON object"),
    (one_mock_backend(max_workers=True), "backends[0] 'max_workers' must be int, got True"),
    ({"scoring": []}, "scoring must be a JSON object, got []"),
    (one_mock_backend(rate_limit_rps=2e-10), "max_workers / rate_limit_rps must be <= 9223372036 s"),
    ({"repetitions": 1e308}, "repetitions must be <= 1000"),
    ({"repetitions": 10 ** 30}, "repetitions must be <= 1000"),
    ({"scoring": {"chrf_max_n": 1e30}}, "chrf_max_n must be <= 32"),
    (one_mock_backend(max_workers=10 ** 30), "max_workers must be <= 64"),
    (one_mock_backend(max_retries=11), "max_retries must be <= 10"),
    (one_mock_backend(max_retries=40), "max_retries must be <= 10"),
    (one_mock_backend(max_retries=1e308), "max_retries must be <= 10"),
    (one_mock_backend(id="m\ud800"), "backends[0] 'id' holds a lone surrogate"),
    ({"lexicon": "lexicon\udfff.txt"}, "run config 'lexicon' holds a lone surrogate"),
    ({"scoring": {"bleu_weights": [float("nan"), 0.5, 0.5, 0.0]}}, "NaN is not JSON"),
    (one_mock_backend(wire_format="xml"), "backend m1: unknown wire format 'xml'"),
], ids=["unknown-scoring-key", "unknown-level", "non-integer-repetitions",
        "chrf-max-n-zero", "chrf-beta-zero", "chrf-beta-square-overflows", "bleu-weights-sum",
        "bleu-unif-weights-length", "smoothing-epsilon-zero", "smoothing-epsilon-four",
        "smoothing-epsilon-1e400", "zero-repetitions",
        "duplicate-backend-ids", "drop-prob-above-one",
        "negative-swap-prob", "negative-max-retries", "zero-rate-limit", "zero-max-workers",
        "zero-timeout", "timeout-overflows", "infinite-timeout", "rate-limit-wait-overflows",
        "endpoint-without-scheme", "ftp-endpoint", "endpoint-without-host",
        "endpoint-non-integer-port", "nan-temperature", "unknown-top-level-key",
        "empty-backends", "backends-object", "fractional-repetitions", "bool-repetitions",
        "fractional-master-seed", "nan-verbatim-threshold", "traditional-threshold-above-one",
        "negative-max-missing-fraction", "int-backend-id", "int-api-key-env", "int-endpoint",
        "int-prompt-template", "int-corpus", "int-lexicon", "scoring-array", "bool-max-workers",
        "empty-scoring-array", "rate-limit-slots-overflow", "repetitions-1e308",
        "repetitions-10-to-the-30", "chrf-max-n-1e30", "max-workers-10-to-the-30",
        "max-retries-11", "max-retries-40", "max-retries-1e308", "lone-surrogate-backend-id",
        "lone-surrogate-lexicon", "nan-bleu-weight", "unknown-wire-format"])
def test_run_config_error_exits_2_before_running(tmp_path, tiny_corpus_path,
                                                 extra, message):
    config = write_run_config(tmp_path, tiny_corpus_path, **{"backends": MOCK_BACKENDS, **extra})
    code, _, err = run_cli("run", "--config", config, "--out", tmp_path / "out")
    assert code == EXIT_USAGE and message in err


@pytest.mark.parametrize("field", ["id", "domain", "text", "title"])
def test_run_with_a_lone_surrogate_in_the_corpus_exits_2_before_running(tmp_path, field):
    # JSON reads the escape; UTF-8, in which records.jsonl is written, cannot encode it
    corpus = tmp_path / "corpus.jsonl"
    record = dict(TINY_CORPUS_RECORDS[0], **{field: "\ud800化学研究"})
    corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
    config = write_run_config(tmp_path, corpus, MOCK_BACKENDS)
    code, _, err = run_cli("run", "--config", config, "--out", tmp_path / "out")
    assert code == EXIT_USAGE and f"line 1: record {field!r} holds a lone surrogate" in err


@pytest.mark.parametrize("key, message", [
    ("sk-abc\n", "holds a CR, LF or NUL"),
    ("sk-é€", "holds a character outside Latin-1"),
    (None, "is unset or empty"),
], ids=["trailing-newline", "outside-latin-1", "unset"])
def test_run_with_a_bad_api_key_exits_2_before_running(monkeypatch, tmp_path,
                                                       tiny_corpus_path, key, message):
    if key is None:
        monkeypatch.delenv("BTEVAL_TEST_API_KEY", raising=False)
    else:
        monkeypatch.setenv("BTEVAL_TEST_API_KEY", key)
    backends = [MOCK_BACKENDS[0], {"id": "h1", "kind": "http_llm", "model_name": "x",
                                   "endpoint": "http://127.0.0.1:9/v1",
                                   "api_key_env": "BTEVAL_TEST_API_KEY"}]
    config = write_run_config(tmp_path, tiny_corpus_path, backends)
    code, _, err = run_cli("run", "--config", config, "--out", tmp_path / "out")
    assert code == EXIT_USAGE and message in err
    assert err.startswith("error: backend h1: api_key_env variable 'BTEVAL_TEST_API_KEY'")


NOT_UTF8 = "元素".encode("gbk") + b" 5\n"


def not_utf8_file(tmp_path, name="bad.txt"):
    path = tmp_path / name
    path.write_bytes(NOT_UTF8)
    return str(path)


def not_utf8_run(tmp_path, corpus):
    config = write_run_config(tmp_path, not_utf8_file(tmp_path, "bad.jsonl"), MOCK_BACKENDS)
    return ["run", "--config", str(config), "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("make_argv", [
    lambda tmp, corpus: ["validate", not_utf8_file(tmp, "bad.jsonl")],
    lambda tmp, corpus: ["validate", str(corpus), "--variant-table", not_utf8_file(tmp)],
    lambda tmp, corpus: ["segment", "--lexicon", not_utf8_file(tmp), "化学"],
    not_utf8_run,
    lambda tmp, corpus: ["score", not_utf8_file(tmp), str(FIXTURES / "hua_yao" / "original.txt")],
    lambda tmp, corpus: ["segment", not_utf8_file(tmp)],
], ids=["validate-corpus", "validate-variant-table", "segment-lexicon", "run-corpus",
        "score-original", "segment-text"])
def test_input_not_utf8_exits_2(tmp_path, tiny_corpus_path, make_argv):
    code, _, err = run_cli(*make_argv(tmp_path, tiny_corpus_path))
    assert code == EXIT_USAGE and "not UTF-8" in err and "bad." in err


def matrix_file(tmp_path):
    return write_matrix(tmp_path / "matrix_bleu.json", make_matrix(np.arange(6.0).reshape(3, 2, 1)))


def argv_but_out(tmp_path, corpus, command):
    """A valid `run`, `stats` or `report` call on files it writes to tmp_path, but for --out."""
    if command == "run":
        return ["run", "--config", write_run_config(tmp_path, corpus, MOCK_BACKENDS)]
    matrix = matrix_file(tmp_path)
    return [command, matrix if command == "stats" else tmp_path]


@pytest.mark.parametrize("command", ["run", "stats", "report"])
@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, tiny_corpus_path,
                                                 command, out):
    (tmp_path / "file").write_text("taken\n", encoding="utf-8")
    code, _, err = run_cli(*argv_but_out(tmp_path, tiny_corpus_path, command),
                           "--out", tmp_path / out)
    assert code == EXIT_USAGE and "cannot create output directory" in err
    assert (tmp_path / "file").read_text(encoding="utf-8") == "taken\n"


@pytest.mark.parametrize("command, artifact", [
    ("run", "records.jsonl"), ("run", "plot_bundle.json"), ("stats", "stats_report.json"),
    ("report", "plot_bundle.json"),
])
def test_output_that_cannot_be_written_exits_2(tmp_path, tiny_corpus_path, command, artifact):
    # a directory where an artifact goes: its write raised IsADirectoryError out of main
    (tmp_path / "out" / artifact).mkdir(parents=True)
    code, _, err = run_cli(*argv_but_out(tmp_path, tiny_corpus_path, command),
                           "--out", tmp_path / "out")
    assert code == EXIT_USAGE and f"Is a directory: '{tmp_path / 'out' / artifact}'" in err


@pytest.mark.parametrize("argv, message", [
    (["run", "--config", "run.json", "--out", "out", "--alpha", "7"],
     "argument --alpha: must lie in (0, 1)"),
    (["stats", "matrix_bleu.json", "--out", "out", "--alpha", "0"],
     "argument --alpha: must lie in (0, 1)"),
    *((["validate", CNKI_89, "--threshold", threshold], "argument --threshold: must lie in [0, 1]")
      for threshold in ("nan", "-1", "7", "half")),
    (["segment"], "the following arguments are required: text"),
], ids=["run-alpha-above-one", "stats-alpha-zero", "threshold-nan", "threshold-minus-one",
        "threshold-seven", "threshold-half", "segment-without-text"])
def test_argument_the_parser_rejects_exits_2(argv, message):
    code, _, err = run_cli(*argv)
    assert code == EXIT_USAGE and message in err


LONG_TEXT = "化学工程领域的研究与分析" * 10  # 120 characters, 360 UTF-8 bytes: too long for a path


def test_segment_text_too_long_for_a_path():
    code, out, _ = run_cli("segment", "--level", "char", LONG_TEXT)
    assert code == EXIT_OK and out.strip() == "/".join(LONG_TEXT)


@pytest.mark.parametrize("argv, message", [
    (["segment", "--lexicon", "nope.txt", "化学"], "lexicon file not found: nope.txt"),
    (["validate", "nope.jsonl"], "corpus file not found: nope.jsonl"),
    (["validate", CNKI_89, "--variant-table", "nope.txt"], "variant table file not found: nope.txt"),
    (["run", "--config", "nope.json", "--out", "out"], "config file not found: nope.json"),
    (["run", "--config", "run.json", "--out", "out"], "variant table file not found: nope.txt"),
    (["stats", "matrix_none.json", "--out", "out"], "matrix file not found: matrix_none.json"),
    (["report", "ghost", "--out", "out"], "run directory not found: ghost"),
    # a name too long to stat names no file
    (["run", "--config", LONG_TEXT, "--out", "out"], f"config file not found: {LONG_TEXT}"),
    (["score", LONG_TEXT, LONG_TEXT], f"input file not found: {LONG_TEXT}"),
    (["report", LONG_TEXT], f"run directory not found: {LONG_TEXT}"),
], ids=["segment-lexicon", "validate-corpus", "validate-variant-table", "run-config",
        "run-variant-table", "stats-matrix", "report-run-dir", "run-config-too-long-for-a-path",
        "score-input-too-long-for-a-path", "report-run-dir-too-long-for-a-path"])
def test_missing_input_exits_2(tmp_path, monkeypatch, tiny_corpus_path, argv, message):
    monkeypatch.chdir(tmp_path)
    # run.json names a variant table that does not exist
    write_run_config(tmp_path, tiny_corpus_path, MOCK_BACKENDS, variant_table="nope.txt")
    code, _, err = run_cli(*argv)
    assert code == EXIT_USAGE and message in err


@pytest.mark.parametrize("name, text, argv, message", [
    ("dict.txt", "化学 often\n", ["segment", "--lexicon", "dict.txt", "化学"],
     "dict.txt: line 1: bad frequency 'often'"),
    ("dict.txt", "\n  \n", ["segment", "--lexicon", "dict.txt", "化学"], "dict.txt: empty lexicon"),
    # the blank line is skipped, and counted
    ("variants.txt", "國 国\n\n學 学 学\n", ["validate", CNKI_89, "--variant-table", "variants.txt"],
     "variants.txt: line 3: expected 'traditional simplified'"),
    ("null.jsonl", '{"id": "a", "domain": "d", "text": null}\n', ["validate", "null.jsonl"],
     "null.jsonl: line 1: record 'text' must be a string, got None"),
    ("empty.txt", " \n", ["score", "empty.txt", HUA_YAO[0]], "empty original file: empty.txt"),
    ("empty.txt", "  \n", ["score", HUA_YAO[0], "empty.txt"], "empty candidate file: empty.txt"),
    ("run/records.jsonl", "", ["report", "run", "--out", "out"], "no matrix_*.json files in run"),
], ids=["lexicon-bad-frequency", "lexicon-empty", "variant-table-triple", "corpus-null-text",
        "score-empty-original", "score-empty-candidate", "report-without-matrices"])
def test_rejected_input_file_exits_2(tmp_path, monkeypatch, name, text, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).parent.mkdir(exist_ok=True)
    (tmp_path / name).write_text(text, encoding="utf-8")
    code, _, err = run_cli(*argv)
    assert code == EXIT_USAGE and message in err


# ---------------------------------------------------------------- stats/report

def test_stats_constant_matrix_empty_pairs(tmp_path):
    path = write_matrix(tmp_path / "matrix_bleu.json",
                        make_matrix(np.full((4, 3, 2), 0.5), treatments=["x", "y", "z"]))
    out_dir = tmp_path / "stats_out"
    code, _, err = run_cli("stats", path, "--out", str(out_dir))
    assert code == EXIT_OK
    pairwise = (out_dir / "pairwise_tests.csv").read_text(encoding="utf-8")
    assert pairwise == "metric,model_a,model_b,mean_difference,adjusted_p,significant\n"
    report = json.loads((out_dir / "stats_report.json").read_text(encoding="utf-8"))
    assert report["bleu"]["friedman"]["p_value"] == 1.0


def test_stats_planted_effect_lands_in_csv(tmp_path):
    rng = np.random.default_rng(6)
    values = rng.normal(0.6, 0.02, size=(30, 3, 2))
    values[:, 2, :] -= 0.1  # plant one clearly worse system
    path = write_matrix(tmp_path / "matrix_bleu.json",
                        make_matrix(values, treatments=["good1", "good2", "bad"]))
    out_dir = tmp_path / "stats_out"
    code, _, _ = run_cli("stats", path, "--out", str(out_dir))
    assert code == EXIT_OK
    with (out_dir / "pairwise_tests.csv").open(encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    pairs = {frozenset((r["model_a"], r["model_b"])) for r in rows}
    assert pairs == {frozenset(("good1", "bad")), frozenset(("good2", "bad"))}
    assert all(abs(float(r["mean_difference"]) - 0.1) < 0.03 for r in rows)


def test_stats_alpha_and_correction_flags_reach_the_report(tmp_path):
    values = np.random.default_rng(6).normal(0.6, 0.02, size=(30, 3, 2))
    values[:, 2, :] -= 0.01
    path = write_matrix(tmp_path / "matrix_bleu.json", make_matrix(values))

    def report(*flags):
        out = tmp_path / "_".join(flags or ["default"])
        assert run_cli("stats", path, "--out", str(out), *flags)[0] == EXIT_OK
        bleu = json.loads((out / "stats_report.json").read_text(encoding="utf-8"))["bleu"]
        pairs = bleu["friedman"]["pairwise"]
        return (bleu["alpha"], bleu["correction"], [pair["adjusted_p"] for pair in pairs],
                [pair["raw_p"] for pair in pairs])

    alpha, correction, adjusted, raw = report()
    assert (alpha, correction) == (0.05, "benjamini_hochberg") and len(raw) == 3
    assert adjusted != raw
    assert report("--alpha", "0.2") == (0.2, "benjamini_hochberg", adjusted, raw)
    bonferroni = [min(1.0, 3 * p) for p in raw]
    assert report("--correction", "bonferroni") == (0.05, "bonferroni", pytest.approx(bonferroni), raw)
    assert bonferroni != pytest.approx(adjusted)
    assert report("--correction", "none") == (0.05, "none", raw, raw)


ONE_CELL = ('{"metric": "bleu", "design": {"n": 1, "k": 1, "r": 1}, "block_ids": ["b"], '
            '"treatment_ids": ["x"], "values": [[[0.5]]]}')
TWO_BY_TWO = ('{"metric": "bleu", "design": {"n": 2, "k": 2, "r": 1}, "block_ids": ["a", "b"], '
              '"treatment_ids": ["x", "y"], "values": [[[0.1], [0.2]], [[0.3], [0.4]]]}')


@pytest.mark.parametrize("command, content, message", [
    ("stats", '{"metric": "bleu", "design": {"n": 2,', "invalid JSON matrix"),
    ("stats", '{"metric": "bleu"}', "KeyError: 'design'"),
    ("stats", '{"metric": "bleu", "design": {"n": 1, "k": 2, "r": 2}, "block_ids": ["b"], '
     '"treatment_ids": ["x", "y"], "values": [[[0.1, 0.2], [0.3]]]}', "ValueError"),
    ("stats", '{"metric": "bleu", "design": {"n": ' + "1" * 5000 + "}}", "invalid JSON matrix"),
    ("stats", ONE_CELL.replace('"bleu"', '["bleu"]'), "malformed matrix file"),
    ("stats", ONE_CELL.replace('"bleu"', "5"), "malformed matrix file"),
    ("stats", ONE_CELL.replace('"bleu"', "null"), "malformed matrix file"),
    ("stats", ONE_CELL.replace('["b"]', '"b"'), "malformed matrix file"),
    ("stats", ONE_CELL.replace('["x"]', "[5]"), "malformed matrix file"),
    ("stats", ONE_CELL.replace("0.5", "true"), "must be numbers or null, found ['bool']"),
    ("stats", ONE_CELL.replace("0.5", '"0.5"'), "must be numbers or null, found ['str']"),
    ("stats", TWO_BY_TWO.replace('["x", "y"]', '["x", "x"]'),
     "treatment_ids must be unique, found ['x']"),
    ("stats", TWO_BY_TWO.replace('["a", "b"]', '["a", "a"]'), "block_ids must be unique, found ['a']"),
    ("stats", ONE_CELL.replace('"bleu"', '"bleu\\ud800"'), "holds a lone surrogate"),
    ("stats", ONE_CELL.replace('["b"]', '["b\\udc00"]'), "holds a lone surrogate"),
    ("stats", ONE_CELL.replace('["x"]', '["\\udfffx"]'), "holds a lone surrogate"),
    ("stats", TWO_BY_TWO.replace('["a", "b"]', '["a"]'), "label lengths must match the design"),
    ("stats", TWO_BY_TWO.replace('["x", "y"]', '["x", "y", "z"]'),
     "label lengths must match the design"),
    ("report", TWO_BY_TWO.replace("0.1", "NaN"), "NaN is not JSON"),  # was read as a missing cell
    ("report", TWO_BY_TWO.replace("0.1", "Infinity"), "Infinity is not JSON"),
    ("report", TWO_BY_TWO.replace("0.1", "-Infinity"), "-Infinity is not JSON"),
    ("report", TWO_BY_TWO.replace("0.1", "1e400"), "values must be finite"),  # read as inf
    ("report", TWO_BY_TWO.replace("0.1", "-1e400"), "values must be finite"),
    # an integer past the float range
    ("report", TWO_BY_TWO.replace("0.1", "1" + "0" * 400), "values must be finite"),
    # a report summarises before it creates --out; stats tests such a matrix
    ("report", TWO_BY_TWO.replace("0.1", "1e308").replace("0.3", "1.79e308"),
     "sum past the largest float"),
    ("report", TWO_BY_TWO.replace("0.1", "Infinity").replace("0.3", "-Infinity"),
     "Infinity is not JSON"),
], ids=["truncated", "missing-design", "ragged-grid", "integer-past-digit-limit",
        "metric-array", "metric-number", "metric-null", "block-ids-string",
        "treatment-id-number", "cell-bool", "cell-string", "treatment-id-repeated",
        "block-id-repeated", "lone-surrogate-metric", "lone-surrogate-block-id",
        "lone-surrogate-treatment-id", "one-block-id-short", "one-treatment-id-over", "nan",
        "infinity", "minus-infinity", "1e400", "minus-1e400", "10-to-the-400",
        "sum-past-float-max", "opposite-infinities"])
def test_rejected_matrix_file_exits_2(tmp_path, command, content, message):
    path = tmp_path / "matrix_bleu.json"
    path.write_text(content, encoding="utf-8")
    code, _, err = run_cli(command, path if command == "stats" else tmp_path,
                           "--out", tmp_path / "o")
    assert code == EXIT_USAGE and message in err


@pytest.mark.parametrize("value, code", [("true", EXIT_USAGE), ("1.5", EXIT_USAGE), ("1.0", EXIT_OK)],
                         ids=["bool", "fraction", "integral-float"])
def test_stats_design_counts_read_as_json_integers(tmp_path, value, code):
    path = tmp_path / "matrix_bleu.json"
    path.write_text(ONE_CELL.replace('"n": 1', f'"n": {value}'), encoding="utf-8")
    got, _, err = run_cli("stats", str(path), "--out", str(tmp_path / "o"))
    assert got == code
    if code == EXIT_USAGE:
        assert err.startswith("error: malformed matrix file")
        assert "design 'n' must be int, got " + {"true": "True"}.get(value, value) in err
    else:
        from bteval.stats import ScoreMatrix
        assert ScoreMatrix.from_dict(json.loads(path.read_text())).to_dict()["design"]["n"] == 1


def test_stats_matrix_metric_not_a_string_beside_a_good_file_exits_2(tmp_path):
    bad = tmp_path / "matrix_five.json"
    bad.write_text(ONE_CELL.replace('"bleu"', "5"), encoding="utf-8")
    code, _, err = run_cli("stats", matrix_file(tmp_path), str(bad),
                          "--out", str(tmp_path / "o"))
    assert code == EXIT_USAGE
    assert err.startswith("error: malformed matrix file") and str(bad) in err


@pytest.mark.parametrize("command", ["stats", "report"])
def test_two_matrix_files_with_one_metric_exit_2(tmp_path, command):
    first = matrix_file(tmp_path)
    second = tmp_path / "matrix_bleu_again.json"
    second.write_bytes(Path(first).read_bytes())
    argv = [first, str(second)] if command == "stats" else [str(tmp_path)]
    code, _, err = run_cli(command, *argv, "--out", str(tmp_path / "o"))
    assert code == EXIT_USAGE and first in err and str(second) in err and "'bleu'" in err


CELLS = np.array([0.9, 0.1, 0.4, 0.35, 0.8, 0.2, 0.55, 0.6]).reshape(4, 2, 1)
BLOCKS = ["b0", "b1", "b2", "b3"]


@pytest.mark.parametrize("second", [
    lambda path: write_matrix(path, make_matrix(CELLS[:3], "chrf", blocks=BLOCKS[:3])),
    lambda path: write_matrix(path, make_matrix(CELLS[::-1], "chrf", blocks=BLOCKS[::-1])),
    lambda path: write_matrix(path, make_matrix(CELLS[:, ::-1], "chrf", ("t1", "t0"), BLOCKS)),
], ids=["different-n", "reordered-block-ids", "reordered-treatment-ids"])
def test_report_matrices_on_different_grids_exit_2(tmp_path, second):
    # cells pair by position across metrics: a report over these would crash or
    # correlate different round-trips, while each metric's stats stand alone
    first = write_matrix(tmp_path / "matrix_bleu.json", make_matrix(CELLS, blocks=BLOCKS))
    other = second(tmp_path / "matrix_chrf.json")
    code, _, err = run_cli("report", str(tmp_path), "--out", str(tmp_path / "o"))
    assert code == EXIT_USAGE and first in err and other in err
    code, _, _ = run_cli("stats", first, other, "--out", str(tmp_path / "s"))
    assert code == EXIT_OK


def test_report_over_run_dir(tmp_path, tiny_corpus_path):
    config = write_run_config(tmp_path, tiny_corpus_path, MOCK_BACKENDS)
    run_dir = tmp_path / "run"
    run_cli("run", "--config", str(config), "--out", str(run_dir))
    report_dir = tmp_path / "report"
    code, _, err = run_cli("report", str(run_dir), "--out", str(report_dir))
    assert code == EXIT_OK
    for name in ("summaries.csv", "correlations.csv", "plot_bundle.json"):
        assert (report_dir / name).is_file()


def test_import_does_not_load_requests_or_cookiejar():
    # only an http_llm backend, once built, loads the HTTP stack, and only a run its pools
    assert_runs_in_fresh_python(
        'import sys; sys.modules["requests"] = None; import bteval, bteval.cli; '
        'loaded = {"http.cookiejar", "http.client", "ssl", "socket", "concurrent.futures"} '
        '& set(sys.modules); assert not loaded, loaded')


def test_mock_only_run_does_not_load_concurrent_futures():
    assert_runs_in_fresh_python(
        'import sys; from bteval.corpus import Corpus, TextSample; '
        'from bteval.config import BackendConfig, RunConfig; from bteval.pipeline import run_experiment; '
        'corpus = Corpus(name="c", samples=[TextSample(id="S1", domain="d", text="化学")]); '
        'backends = (BackendConfig(id="m", kind="mock", model_name="noise"),); '
        'run_experiment(corpus, RunConfig("c.jsonl", backends, repetitions=2)); '
        'assert "concurrent.futures" not in sys.modules and "socket" not in sys.modules')


def test_one_module_decodes_json():
    # configs, corpus lines, matrix files, record logs and chat replies all read through
    # bteval.jsonio, so a new reader cannot bring its own rules for what JSON it accepts
    package = Path(__file__).resolve().parent.parent / "src" / "bteval"
    decoders = sorted(path.name for path in package.glob("*.py") if re.search(
        r"json\.loads|json\.load\(|JSONDecoder", path.read_text(encoding="utf-8")))
    assert decoders == ["jsonio.py"]


def test_one_module_serves_http_to_the_tests():
    # every test server is tests/http_stub.py, so a scripted reply is written once
    def imports(path):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                yield from (f"{node.module}.{alias.name}" for alias in node.names)
                yield node.module

    servers = sorted(path.name for path in Path(__file__).resolve().parent.glob("*.py")
                     if {"http.server", "socketserver"} & set(imports(path)))
    assert servers == ["http_stub.py"]


def assert_runs_in_fresh_python(code):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr


# ------------------------------------------------- golden bytes of `bteval run`

GOLDEN_RUN_BACKENDS = [
    {"id": "echo", "kind": "mock", "model_name": "identity"},
    {"id": "mild", "kind": "mock", "model_name": "noise", "drop_prob": 0.05, "swap_prob": 0.02},
    {"id": "mid", "kind": "mock", "model_name": "noise", "drop_prob": 0.2, "swap_prob": 0.1},
    {"id": "harsh", "kind": "mock", "model_name": "noise", "drop_prob": 0.4, "swap_prob": 0.2},
]

GOLDEN_RUN_SCORINGS = {
    "default": {},
    "smoothed-uniform": {"smoothing_epsilon": 0.1, "bleu_weights": [0.25, 0.25, 0.25, 0.25]},
    "character-level": {"level": "character"},
}


def corpus_head(tmp_path, n):
    """The first n samples of the shipped 89-text corpus, as their own corpus file."""
    lines = (FIXTURES / "corpora" / "cnki_che_89.jsonl").read_text(encoding="utf-8").splitlines()
    path = tmp_path / "cnki_head.jsonl"
    path.write_text("\n".join(lines[:n]) + "\n", encoding="utf-8")
    return path


def run_artifact_hashes(run_dir):
    """sha256 of every artifact of a run directory; the manifest's timestamp line is dropped."""
    hashes = {}
    for name in sorted(os.listdir(run_dir)):
        data = (run_dir / name).read_bytes()
        if name == "manifest.json":
            data, count = re.subn(rb'\n  "timestamp": "[^"]*",', b"", data)
            assert count == 1
        hashes[name] = hashlib.sha256(data).hexdigest()
    return hashes


# sha256 of each `bteval run` artifact; a change to a run's bytes fails here, and an
# intended one updates these pins
GOLDEN_RUN_SHA256 = {
    "default": {
        "correlations.csv": "5ba8a93d21484007c14890abafbb153ff5935dabbd252ad8ced550bd0dc8b1b9",
        "manifest.json": "6473b3fdc977d9872b314ce588c4250baaff5b5426f2d05a299cf04fff29935f",
        "matrix_bleu.json": "d9cca1d6e92603958a2cea53f8d15f9b5a3b475ea760b880b173e78f9d14fa0d",
        "matrix_bleu_unif.json": "d015f166e56b145a25674e58e848146e54a0e052635034c2e43a364eb98496a3",
        "matrix_chrf.json": "ad73fcdc614b3505069fa244decf5265e82da26ce178f9344a4157d27dace645",
        "matrix_semantic_similarity.json": "6584f77e76d30cf8355cfa9bd77250caa38ee8b6c5c7e8e6e6910ee760e3e17c",
        "matrix_ter.json": "39eaa5c05157c324938f280ee00a8da3f6c03a109a651cb11f78c8f64a99fab0",
        "pairwise_tests.csv": "712db3a36c7fd6697443243fb4031ca088053593b916385a3e893478395f06e2",
        "plot_bundle.json": "b47ff7470ab350b87b3ac814456da8139a7366ec7cdfab6269caa938d41122bc",
        "records.jsonl": "87b6fbf1661cb437e04ac1093a24bd4060be7f067f653db00fd24089a5efc041",
        "stats_report.json": "8321082fcfa1a82ac0f9946f9eda922fea2f740f9c94d9ac10a657c2a3c95139",
        "summaries.csv": "c805902921372b2645936d42395d22c493eaadec8f9ceb47500b5ee42a9114ea",
    },
    "smoothed-uniform": {
        "correlations.csv": "d4d8ad6dca122f557c04330de990c4faa35b3e6112824afc3694a20e4037e293",
        "manifest.json": "cb9a0b7f279f808a0c5efac70970b3ab20401eb8861621bc6f513d92c10a0539",
        "matrix_bleu.json": "8d4a68f4be2ba60d1838a0488d6f22f667b6d0adca843a9123e8ce6e27baeb6d",
        "matrix_bleu_unif.json": "61c3270924b80d9e1096a157a29a4ac1639763cc0b0fdaf4b3152ed4d55bfdf5",
        "matrix_chrf.json": "ad73fcdc614b3505069fa244decf5265e82da26ce178f9344a4157d27dace645",
        "matrix_semantic_similarity.json": "6584f77e76d30cf8355cfa9bd77250caa38ee8b6c5c7e8e6e6910ee760e3e17c",
        "matrix_ter.json": "39eaa5c05157c324938f280ee00a8da3f6c03a109a651cb11f78c8f64a99fab0",
        "pairwise_tests.csv": "87bb8cca8382709af45ee3056d6b00691377c779101f864e99b1e3f5a0189f68",
        "plot_bundle.json": "05e22e7a546880a39ea915fa2c4bd3fd757bebd379c3b017fb2abc6f5a4f0dab",
        "records.jsonl": "87b6fbf1661cb437e04ac1093a24bd4060be7f067f653db00fd24089a5efc041",
        "stats_report.json": "5257c1b4299e949eac9a29c34436ec70a644d733a5f062279e816ad3418095b5",
        "summaries.csv": "47c0833d6aa90ee4f628f6a34d0a24041182c91d847b048dc625ca6dbe1edc84",
    },
    "character-level": {
        "correlations.csv": "e866178ae80e1fc2d5170b90eedb6c48ac400aa409d0aab90d696a06aca5896c",
        "manifest.json": "d30d0af5923212c785ed14decd3c56b55a9a32cc8dde1cebec85cb1c979538cb",
        "matrix_bleu.json": "728aa8ea2e43b0adf0f42fa2a61b52c14754e4ec6be0a7d45745f40cf9ea4f9c",
        "matrix_bleu_unif.json": "11632e78ce86016ab18102a8715641903d1cfd3ebc3fcc1bb86b8e8981196166",
        "matrix_chrf.json": "ad73fcdc614b3505069fa244decf5265e82da26ce178f9344a4157d27dace645",
        "matrix_semantic_similarity.json": "64ffb6af98167c854aa2671591b68b28fc09b28b4a7761614782da13954a7d00",
        "matrix_ter.json": "807a9870a0da19017dcc96e07af6a87e5c98cc986ba99d72f5b0ccb407d9e4ed",
        "pairwise_tests.csv": "231bc097c9ea0ba7e23e671ee88b515b203e62d47ef84467adaae4db122c3da0",
        "plot_bundle.json": "955cc4e87e607502cac2027e1ee66c993a141caa72ae975c155506bbd33011bf",
        "records.jsonl": "87b6fbf1661cb437e04ac1093a24bd4060be7f067f653db00fd24089a5efc041",
        "stats_report.json": "334d2c13aa609a1821cd43b2c02692399dca14b58a9022cb627574882803a492",
        "summaries.csv": "2cc4e4596aca172eb5c9ee12a3342f6c9c8de92fe2c88297c1c7701f73f081de",
    },
    "http-one-failure": {
        "correlations.csv": "3f769e7da2dc767c8d1649c2d751b953f2437f6d9b8391236e5d28b595abeaef",
        "manifest.json": "861910ecbd4f24be84a855e87136253162fbd7aea8caf43856a51d70412559d8",
        "matrix_bleu.json": "ec2e6eea3fc7d230c1781dd3b6b5d7987f198d8a252399835fc9c32fb1813f07",
        "matrix_bleu_unif.json": "77fcdbcbd08c614c043fcabd7fd234964d14231de8a5d333d33e60397e11ec88",
        "matrix_chrf.json": "ebe01680638a033701aff537f93d4d093e18c149a4846bb13ad354755710bd11",
        "matrix_semantic_similarity.json": "0529992b26cd5957f9338208b0379659a838c640c55a1c3931bbb771aa1eab13",
        "matrix_ter.json": "70583469ddfdb95ed54e86016a93e59bea727eecfa5e3d656e9e6914275384c6",
        "pairwise_tests.csv": "6f205131a702952f1f384034ee6fbc114296cdbdcac629ecaf07c0015f1d7e69",
        "plot_bundle.json": "ba78d54d908c43b1ff9054c396014c84579e740bd462e0661010a204ffa0b2f4",
        "records.jsonl": "a02bed600015eae72be778d289f924ff3b0d41885ff3eb13468b5cb86a055c3d",
        "stats_report.json": "26bc0545148aab04705df520d7ca66213f1caa25ec08a8adf566ffffc215362c",
        "summaries.csv": "0f3dee6144062d7060334f4a0363782d3c4546b5d0183dc2852c9c6b06c0ff0c",
    },
}


@pytest.mark.parametrize("scoring", list(GOLDEN_RUN_SCORINGS))
def test_run_artifacts_match_golden_bytes(tmp_path, scoring):
    config = write_run_config(tmp_path, corpus_head(tmp_path, 12), GOLDEN_RUN_BACKENDS,
                              scoring=GOLDEN_RUN_SCORINGS[scoring])
    out = tmp_path / "out"
    code, _, _ = run_cli("run", "--config", str(config), "--out", str(out))
    assert code == EXIT_OK
    assert run_artifact_hashes(out) == GOLDEN_RUN_SHA256[scoring]


@pytest.mark.parametrize("scoring", list(GOLDEN_RUN_SCORINGS))
def test_run_artifacts_do_not_depend_on_batch_boundaries(monkeypatch, tmp_path, scoring):
    # a batch of one original each, where the default cap scores the run in one batch
    batches = []
    score_batch = metrics._score_batch

    def counting(batch, *args):
        batches.append(len(batch))
        return score_batch(batch, *args)

    monkeypatch.setattr(metrics, "_score_batch", counting)
    config = write_run_config(tmp_path, corpus_head(tmp_path, 12), GOLDEN_RUN_BACKENDS,
                              scoring=GOLDEN_RUN_SCORINGS[scoring])
    assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "one"))[0] == 0
    assert batches == [12]
    batches.clear()
    monkeypatch.setattr(metrics, "_BATCH_SYMBOLS", 1)
    out = tmp_path / "out"
    code, _, _ = run_cli("run", "--config", str(config), "--out", str(out))
    assert code == EXIT_OK and batches == [1] * 12
    assert run_artifact_hashes(out) == GOLDEN_RUN_SHA256[scoring]


@pytest.mark.parametrize("scoring", list(GOLDEN_RUN_SCORINGS))
def test_run_segments_each_original_once(monkeypatch, tmp_path, scoring):
    calls = Counter()
    segment_words = segmentation.segment_words

    def counting(text, lexicon=None):
        calls[text] += 1
        return segment_words(text, lexicon)

    monkeypatch.setattr(segmentation, "segment_words", counting)
    corpus = corpus_head(tmp_path, 12)
    config = write_run_config(tmp_path, corpus, GOLDEN_RUN_BACKENDS,
                              scoring=GOLDEN_RUN_SCORINGS[scoring])
    assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "out"))[0] == 0
    originals = [sample.text for sample in parse_corpus(corpus)]
    assert len(originals) == 12 and all(calls[text] == 1 for text in originals)
    # the rest: each noise mock's back leg (not kept), and each distinct back-translation
    records = pipeline.read_records(tmp_path / "out" / "records.jsonl")
    back_legs = sum(rec.backend_id != "echo" for rec in records)
    zhy = {rec.zhy for rec in records} - set(originals)
    assert sum(calls.values()) == 12 + back_legs + len(zhy)


def test_http_run_with_a_failure_matches_golden_bytes(tmp_path):
    # the first request fails: one error record, one imputed cell
    with serve(lambda request: chat("译文结果") if request.index else Step(500)) as stub:
        http = {"id": "stub", "kind": "http_llm", "model_name": "stub-model",
                "endpoint": f"http://127.0.0.1:{stub.port}/v1/chat/completions",
                "max_retries": 0, "max_workers": 1, "rate_limit_rps": 1000.0, "timeout": 5.0}
        config = write_run_config(tmp_path, corpus_head(tmp_path, 4),
                                  [http] + GOLDEN_RUN_BACKENDS[:2], repetitions=1,
                                  max_missing_fraction=1.0)
        out = tmp_path / "out"
        code, _, err = run_cli("run", "--config", str(config), "--out", str(out))
    assert code == EXIT_OK and "1 errors" in err
    assert run_artifact_hashes(out) == GOLDEN_RUN_SHA256["http-one-failure"]
