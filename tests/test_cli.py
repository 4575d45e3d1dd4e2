"""Subcommand behavior, exit codes, and on-disk run artifacts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bteval.cli import EXIT_DEGRADED, EXIT_OK, EXIT_USAGE, main

from conftest import FIXTURES


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_run_config(tmp_path, corpus_path, backends, **extra):
    config = {"corpus": str(corpus_path), "repetitions": 2, "master_seed": 7,
              "backends": backends}
    config.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


TINY_CORPUS_RECORDS = [
    {"id": "S1", "domain": "chemistry", "text": "化学工程领域的研究与分析。", "variant": "simplified"},
    {"id": "S2", "domain": "chemistry", "text": "元素观点：物质由元素组成。", "variant": "simplified"},
]


@pytest.fixture
def tiny_corpus_path(tmp_path):
    path = tmp_path / "tiny.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for record in TINY_CORPUS_RECORDS:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    return path


# ---------------------------------------------------------------- segment

def test_segment_char_level(capsys):
    code, out, _ = invoke(capsys, "segment", "--level", "char", "化学")
    assert code == EXIT_OK
    assert out.strip() == "化/学"


def test_segment_with_custom_lexicon(capsys, tmp_path):
    dict_path = tmp_path / "dict.txt"
    dict_path.write_text("人工智能 100\n人工 50\n智能 50\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "segment", "--lexicon", str(dict_path), "人工智能")
    assert code == EXIT_OK
    assert out.strip() == "人工智能"


def test_segment_lines_flag(capsys):
    code, out, _ = invoke(capsys, "segment", "--level", "char", "--lines", "化学")
    assert code == EXIT_OK and out == "化\n学\n"


def test_segment_missing_lexicon_exits_2(capsys):
    code, out, err = invoke(capsys, "segment", "--lexicon", "/does/not/exist.txt", "化学")
    assert code == EXIT_USAGE
    assert "not found" in err
    assert out == ""


# ---------------------------------------------------------------- score

def test_score_identical_files(capsys, tmp_path):
    a = tmp_path / "a.txt"
    a.write_text("化学工程领域的研究。", encoding="utf-8")
    code, out, _ = invoke(capsys, "score", str(a), str(a))
    assert code == EXIT_OK
    vector = json.loads(out)
    assert vector == {"bleu": 1.0, "bleu_unif": 1.0, "chrf": 1.0, "ter": 0.0,
                      "semantic_similarity": 1.0}


def test_score_lyric_fixture_band(capsys):
    code, out, _ = invoke(
        capsys, "score",
        str(FIXTURES / "hua_yao" / "original.txt"),
        str(FIXTURES / "hua_yao" / "deepseek_v3.txt"),
    )
    assert code == EXIT_OK
    assert abs(json.loads(out)["bleu"] - 0.7602) <= 0.15


def test_score_empty_candidate_no_partial_json(capsys, tmp_path):
    a = tmp_path / "a.txt"
    a.write_text("原文", encoding="utf-8")
    b = tmp_path / "empty.txt"
    b.write_text("  \n", encoding="utf-8")
    code, out, err = invoke(capsys, "score", str(a), str(b))
    assert code == EXIT_USAGE
    assert out == ""  # nothing half-written to stdout
    assert "empty candidate" in err


# ---------------------------------------------------------------- validate

def test_validate_shipped_corpus(capsys):
    code, out, err = invoke(capsys, "validate", str(FIXTURES / "corpora" / "cnki_che_89.jsonl"))
    assert code == EXIT_OK
    assert out == ""  # clean corpus: no warnings on stdout
    assert "89 samples" in err


def test_validate_missing_file_exits_2(capsys):
    code, _, err = invoke(capsys, "validate", "/no/such/corpus.jsonl")
    assert code == EXIT_USAGE and "not found" in err


def test_validate_missing_variant_table_exits_2(capsys, tmp_path):
    code, out, err = invoke(capsys, "validate", str(FIXTURES / "corpora" / "cnki_che_89.jsonl"),
                            "--variant-table", str(tmp_path / "nope.txt"))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and "variant table file not found" in err


def test_validate_reports_traditional_warning(capsys, tmp_path):
    path = tmp_path / "c.jsonl"
    record = {"id": "T1", "domain": "x", "text": "元素觀點：物質由元素組成",
              "variant": "simplified"}
    path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "validate", str(path))
    assert code == EXIT_OK
    assert "traditional characters detected" in out


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


def test_run_emits_all_artifacts_with_record_count(capsys, tmp_path, tiny_corpus_path):
    config = write_run_config(tmp_path, tiny_corpus_path, MOCK_BACKENDS)
    out_dir = tmp_path / "out"
    code, _, err = invoke(capsys, "run", "--config", str(config), "--out", str(out_dir))
    assert code == EXIT_OK
    assert "8 records" in err  # 2 texts x 2 backends x 2 reps
    for name in RUN_ARTIFACTS:
        assert (out_dir / name).is_file(), name
    records = (out_dir / "records.jsonl").read_text(encoding="utf-8").strip().split("\n")
    assert len(records) == 8
    # manifest ties the run to the exact corpus bytes and records the prompts
    import hashlib

    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["corpus_sha256"] == hashlib.sha256(
        Path(tiny_corpus_path).read_bytes()).hexdigest()
    assert set(manifest["prompt_variants"]) == {"zh_to_en", "en_to_zh"}
    assert all(len(v) == 3 for v in manifest["prompt_variants"].values())


def test_run_replay_is_byte_identical(capsys, tmp_path, tiny_corpus_path):
    config = write_run_config(tmp_path, tiny_corpus_path, MOCK_BACKENDS)
    dirs = (tmp_path / "run_a", tmp_path / "run_b")
    for out_dir in dirs:
        code, _, _ = invoke(capsys, "run", "--config", str(config), "--out", str(out_dir))
        assert code == EXIT_OK
    comparable = [name for name in RUN_ARTIFACTS if name != "manifest.json"]
    for name in comparable:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
    # manifests differ only in their timestamps
    manifests = [json.loads((d / "manifest.json").read_text(encoding="utf-8")) for d in dirs]
    for manifest in manifests:
        manifest.pop("timestamp")
    assert manifests[0] == manifests[1]


def test_run_seed_flag_overrides_config(capsys, tmp_path, tiny_corpus_path):
    config = write_run_config(tmp_path, tiny_corpus_path, MOCK_BACKENDS)
    a, b = tmp_path / "a", tmp_path / "b"
    invoke(capsys, "run", "--config", str(config), "--out", str(a), "--seed", "99")
    invoke(capsys, "run", "--config", str(config), "--out", str(b))
    assert (a / "records.jsonl").read_bytes() != (b / "records.jsonl").read_bytes()
    manifest = json.loads((a / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["master_seed"] == 99


def test_run_unreachable_backend_degrades_to_missing(capsys, tmp_path, tiny_corpus_path):
    backends = [
        {"id": "alive", "kind": "mock", "model_name": "identity"},
        {"id": "dead", "kind": "http_llm", "model_name": "x",
         "endpoint": "http://127.0.0.1:9/v1", "max_retries": 0, "timeout": 0.2,
         "rate_limit_rps": 1000.0},
    ]
    config = write_run_config(tmp_path, tiny_corpus_path, backends)
    out_dir = tmp_path / "out"
    code, _, err = invoke(capsys, "run", "--config", str(config), "--out", str(out_dir))
    assert code == EXIT_OK  # degraded but within the default threshold
    assert "8 records" in err and "4 errors" in err
    matrix = json.loads((out_dir / "matrix_bleu.json").read_text(encoding="utf-8"))
    dead_column = [block[1] for block in matrix["values"]]
    assert all(value is None for cell in dead_column for value in cell)


def test_run_degradation_threshold_exit_code(capsys, tmp_path, tiny_corpus_path):
    backends = [
        {"id": "alive", "kind": "mock", "model_name": "identity"},
        {"id": "dead", "kind": "http_llm", "model_name": "x",
         "endpoint": "http://127.0.0.1:9/v1", "max_retries": 0, "timeout": 0.2,
         "rate_limit_rps": 1000.0},
    ]
    config = write_run_config(tmp_path, tiny_corpus_path, backends,
                              max_missing_fraction=0.25)
    code, _, err = invoke(capsys, "run", "--config", str(config),
                          "--out", str(tmp_path / "out"))
    assert code == EXIT_DEGRADED
    assert "threshold exceeded" in err


def test_run_with_every_round_trip_failing_is_degraded(capsys, tmp_path, tiny_corpus_path):
    backends = [
        {"id": backend_id, "kind": "http_llm", "model_name": "x",
         "endpoint": "http://127.0.0.1:9/v1", "max_retries": 0, "timeout": 0.2,
         "rate_limit_rps": 1000.0}
        for backend_id in ("dead1", "dead2")
    ]
    config = write_run_config(tmp_path, tiny_corpus_path, backends)
    out_dir = tmp_path / "out"
    code, _, err = invoke(capsys, "run", "--config", str(config), "--out", str(out_dir))
    assert code == EXIT_DEGRADED  # whatever max_missing_fraction allows
    assert "8 records, 8 errors" in err and "summary skipped for bleu" in err
    for name in RUN_ARTIFACTS:
        assert (out_dir / name).is_file(), name


def test_run_missing_config_exits_2(capsys, tmp_path):
    code, _, err = invoke(capsys, "run", "--config", str(tmp_path / "nope.json"),
                          "--out", str(tmp_path / "out"))
    assert code == EXIT_USAGE and "not found" in err


def test_run_missing_variant_table_exits_2(capsys, tmp_path, tiny_corpus_path):
    config = write_run_config(tmp_path, tiny_corpus_path, MOCK_BACKENDS,
                              variant_table=str(tmp_path / "nope.txt"))
    out_dir = tmp_path / "out"
    code, _, err = invoke(capsys, "run", "--config", str(config), "--out", str(out_dir))
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "variant table file not found" in err
    assert not out_dir.exists()


def one_mock_backend(**fields):
    return {"backends": [dict(MOCK_BACKENDS[0], **fields)]}


def one_http_backend(**fields):
    return {"backends": [dict({"id": "h1", "kind": "http_llm", "model_name": "x"}, **fields)]}


@pytest.mark.parametrize("extra, message", [
    ({"scoring": {"bogus": 1}}, "unknown scoring fields"),
    ({"scoring": {"level": "sentence"}}, "scoring level"),
    ({"repetitions": "three"}, "'repetitions' must be int"),
    ({"scoring": {"chrf_max_n": 0}}, "chrf_max_n must be an integer >= 1"),
    ({"scoring": {"chrf_beta": 0}}, "chrf_beta must be > 0"),
    ({"scoring": {"bleu_weights": [0.5, 0.5, 0.5, 0.0]}}, "weights must sum to 1"),
    ({"scoring": {"bleu_unif_weights": [0.5, 0.5]}}, "exactly 4 n-gram weights"),
    ({"scoring": {"smoothing_epsilon": 0}}, "smoothing_epsilon must be > 0"),
    ({"repetitions": 0}, "repetitions must be >= 1"),
    ({"backends": MOCK_BACKENDS[:1] * 2}, "backend ids must be unique within a run"),
    (one_mock_backend(drop_prob=2.0), "drop_prob must lie in [0, 1]"),
    (one_mock_backend(swap_prob=-0.1), "swap_prob must lie in [0, 1]"),
    (one_mock_backend(max_retries=-1), "max_retries must be an integer >= 0"),
    (one_mock_backend(rate_limit_rps=0), "rate_limit_rps must be > 0"),
    (one_mock_backend(max_workers=0), "max_workers must be an integer >= 1"),
    (one_mock_backend(timeout=0), "timeout must be > 0"),
    (one_http_backend(endpoint="127.0.0.1:9/v1"), "must be an http or https URL"),
    (one_http_backend(endpoint="ftp://127.0.0.1/v1"), "must be an http or https URL"),
    (one_http_backend(endpoint="http:///v1"), "has no host"),
    (one_http_backend(endpoint="http://127.0.0.1:abc/v1"), "Port could not be cast"),
    (one_http_backend(endpoint="http://127.0.0.1:9/v1", temperature=float("nan")),
     "temperature must be finite"),
    ({"repetitons": 3}, "unknown run config keys: ['repetitons']"),
    ({"backends": []}, "'backends' must be a non-empty array of objects"),
    ({"backends": {"id": "a"}}, "'backends' must be a non-empty array of objects"),
    ({"repetitions": 2.7}, "'repetitions' must be int, got 2.7"),
    ({"repetitions": True}, "'repetitions' must be int, got True"),
    ({"master_seed": 1.5}, "'master_seed' must be int, got 1.5"),
    ({"verbatim_threshold": float("nan")}, "'verbatim_threshold' must be a number in [0, 1]"),
    ({"traditional_threshold": 1.5}, "'traditional_threshold' must be a number in [0, 1]"),
    ({"max_missing_fraction": -0.1}, "'max_missing_fraction' must be a number in [0, 1]"),
], ids=["unknown-scoring-key", "unknown-level", "non-integer-repetitions",
        "chrf-max-n-zero", "chrf-beta-zero", "bleu-weights-sum", "bleu-unif-weights-length",
        "smoothing-epsilon-zero", "zero-repetitions", "duplicate-backend-ids",
        "drop-prob-above-one",
        "negative-swap-prob", "negative-max-retries", "zero-rate-limit", "zero-max-workers",
        "zero-timeout", "endpoint-without-scheme", "ftp-endpoint", "endpoint-without-host",
        "endpoint-non-integer-port", "nan-temperature", "unknown-top-level-key",
        "empty-backends", "backends-object", "fractional-repetitions", "bool-repetitions",
        "fractional-master-seed", "nan-verbatim-threshold", "traditional-threshold-above-one",
        "negative-max-missing-fraction"])
def test_run_config_error_exits_2_before_running(capsys, tmp_path, tiny_corpus_path,
                                                 extra, message):
    config = write_run_config(tmp_path, tiny_corpus_path, **{"backends": MOCK_BACKENDS, **extra})
    out_dir = tmp_path / "out"
    code, _, err = invoke(capsys, "run", "--config", str(config), "--out", str(out_dir))
    assert code == EXIT_USAGE
    assert err.startswith("error:") and message in err
    assert not out_dir.exists()  # a rejected run leaves no output directory behind


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
def test_input_not_utf8_exits_2(capsys, tmp_path, tiny_corpus_path, make_argv):
    code, out, err = invoke(capsys, *make_argv(tmp_path, tiny_corpus_path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and "not UTF-8" in err and "bad." in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def matrix_file(tmp_path):
    from bteval.stats import ExperimentDesign, ScoreMatrix
    matrix = ScoreMatrix(ExperimentDesign(3, 2, 1), "bleu", np.arange(6.0).reshape(3, 2, 1),
                         ["b0", "b1", "b2"], ["t0", "t1"])
    path = tmp_path / "matrix_bleu.json"
    path.write_text(json.dumps(matrix.to_dict()), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", ["run", "stats", "report"])
@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_out_that_cannot_be_a_directory_exits_2(capsys, tmp_path, tiny_corpus_path,
                                                 command, out):
    (tmp_path / "file").write_text("taken\n", encoding="utf-8")
    out_path = str(tmp_path / out)
    argv = {
        "run": ["run", "--config",
                str(write_run_config(tmp_path, tiny_corpus_path, MOCK_BACKENDS))],
        "stats": ["stats", matrix_file(tmp_path)],
        "report": ["report", str(Path(matrix_file(tmp_path)).parent)],
    }[command]
    code, _, err = invoke(capsys, *argv, "--out", out_path)
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "cannot create output directory" in err
    assert "Traceback" not in err
    assert (tmp_path / "file").read_text(encoding="utf-8") == "taken\n"


@pytest.mark.parametrize("argv", [
    ["run", "--config", "run.json", "--out", "out", "--alpha", "7"],
    ["stats", "matrix_bleu.json", "--out", "out", "--alpha", "0"],
], ids=["run-alpha-above-one", "stats-alpha-zero"])
def test_alpha_outside_unit_interval_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "error: argument --alpha: must lie in (0, 1)" in capsys.readouterr().err


# ---------------------------------------------------------------- stats/report

def test_stats_constant_matrix_empty_pairs(capsys, tmp_path):
    from bteval.stats import ExperimentDesign, ScoreMatrix
    import numpy as np

    matrix = ScoreMatrix(ExperimentDesign(4, 3, 2), "bleu", np.full((4, 3, 2), 0.5),
                         [f"b{i}" for i in range(4)], ["x", "y", "z"])
    path = tmp_path / "matrix_bleu.json"
    path.write_text(json.dumps(matrix.to_dict()), encoding="utf-8")
    out_dir = tmp_path / "stats_out"
    code, _, err = invoke(capsys, "stats", str(path), "--out", str(out_dir))
    assert code == EXIT_OK
    pairwise = (out_dir / "pairwise_tests.csv").read_text(encoding="utf-8")
    assert pairwise == "metric,model_a,model_b,mean_difference,adjusted_p,significant\n"
    report = json.loads((out_dir / "stats_report.json").read_text(encoding="utf-8"))
    assert report["bleu"]["friedman"]["p_value"] == 1.0


def test_stats_planted_effect_lands_in_csv(capsys, tmp_path):
    from bteval.stats import ExperimentDesign, ScoreMatrix
    import numpy as np

    rng = np.random.default_rng(6)
    values = rng.normal(0.6, 0.02, size=(30, 3, 2))
    values[:, 2, :] -= 0.1  # plant one clearly worse system
    matrix = ScoreMatrix(ExperimentDesign(30, 3, 2), "bleu", values,
                         [f"b{i}" for i in range(30)], ["good1", "good2", "bad"])
    path = tmp_path / "matrix_bleu.json"
    path.write_text(json.dumps(matrix.to_dict()), encoding="utf-8")
    out_dir = tmp_path / "stats_out"
    code, _, _ = invoke(capsys, "stats", str(path), "--out", str(out_dir))
    assert code == EXIT_OK
    import csv

    with (out_dir / "pairwise_tests.csv").open(encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    pairs = {frozenset((r["model_a"], r["model_b"])) for r in rows}
    assert pairs == {frozenset(("good1", "bad")), frozenset(("good2", "bad"))}
    assert all(abs(float(r["mean_difference"]) - 0.1) < 0.03 for r in rows)


def test_stats_missing_matrix_exits_2(capsys, tmp_path):
    code, _, err = invoke(capsys, "stats", str(tmp_path / "matrix_none.json"),
                          "--out", str(tmp_path / "o"))
    assert code == EXIT_USAGE and "not found" in err


@pytest.mark.parametrize("content, message", [
    ('{"metric": "bleu", "design": {"n": 2,', "invalid JSON matrix"),
    ('{"metric": "bleu"}', "KeyError: 'design'"),
    ('{"metric": "bleu", "design": {"n": 1, "k": 2, "r": 2}, "block_ids": ["b"], '
     '"treatment_ids": ["x", "y"], "values": [[[0.1, 0.2], [0.3]]]}', "ValueError"),
], ids=["truncated", "missing-design", "ragged-grid"])
def test_stats_malformed_matrix_exits_2(capsys, tmp_path, content, message):
    path = tmp_path / "bad.json"
    path.write_text(content, encoding="utf-8")
    code, _, err = invoke(capsys, "stats", str(path), "--out", str(tmp_path / "o"))
    assert code == EXIT_USAGE
    assert err.startswith("error:") and message in err


def test_report_over_run_dir(capsys, tmp_path, tiny_corpus_path):
    config = write_run_config(tmp_path, tiny_corpus_path, MOCK_BACKENDS)
    run_dir = tmp_path / "run"
    invoke(capsys, "run", "--config", str(config), "--out", str(run_dir))
    report_dir = tmp_path / "report"
    code, _, err = invoke(capsys, "report", str(run_dir), "--out", str(report_dir))
    assert code == EXIT_OK
    for name in ("summaries.csv", "correlations.csv", "plot_bundle.json"):
        assert (report_dir / name).is_file()


def test_report_sum_past_float_max_exits_2(capsys, tmp_path):
    from bteval.stats import ExperimentDesign, ScoreMatrix
    import numpy as np

    values = np.array([[[1e308], [0.5]], [[1.79e308], [0.5]]])
    matrix = ScoreMatrix(ExperimentDesign(2, 2, 1), "bleu", values, ["b0", "b1"], ["x", "y"])
    (tmp_path / "matrix_bleu.json").write_text(json.dumps(matrix.to_dict()), encoding="utf-8")
    code, _, err = invoke(capsys, "report", str(tmp_path), "--out", str(tmp_path / "o"))
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "sum past the largest float" in err


def test_report_opposite_infinities_exit_2(capsys, tmp_path):
    from bteval.stats import ExperimentDesign, ScoreMatrix
    import numpy as np

    values = np.array([[[np.inf], [0.5]], [[-np.inf], [0.5]]])
    matrix = ScoreMatrix(ExperimentDesign(2, 2, 1), "bleu", values, ["b0", "b1"], ["x", "y"])
    (tmp_path / "matrix_bleu.json").write_text(json.dumps(matrix.to_dict()), encoding="utf-8")
    code, _, err = invoke(capsys, "report", str(tmp_path), "--out", str(tmp_path / "o"))
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "both +inf and -inf" in err


def test_report_missing_dir_exits_2(capsys, tmp_path):
    code, _, err = invoke(capsys, "report", str(tmp_path / "ghost"),
                          "--out", str(tmp_path / "o"))
    assert code == EXIT_USAGE


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["segment"])  # missing positional argument
    assert exc.value.code == EXIT_USAGE


def test_import_does_not_load_requests_or_cookiejar():
    code = ('import sys; sys.modules["requests"] = None; import bteval, bteval.cli; '
            'assert "http.cookiejar" not in sys.modules')
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
