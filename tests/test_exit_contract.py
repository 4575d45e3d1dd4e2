"""The CLI exit-code contract, swept: each leaf of a small valid run config, matrix
file or corpus line is replaced by a JSON value of another kind or size, or by
arrays nested just short of the reader's recursion limit; whole files that nest
past it, or hold no JSON object, are cases too.

Whatever the input, ``cli.main`` returns 0, 1 or 2 and never raises, an exit 2
leaves no ``--out`` behind, and every JSON file an exit 0 or 1 writes is RFC 8259
JSON, which has no NaN or Infinity. A run config the loader accepts is within the size caps
before it is run, so no mutated size ever allocates or starts threads; a config with
an ``http_llm`` backend is run only when its API key check fails, so it never sends.
"""

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bteval import jsonio
from bteval.config import MAX_REPETITIONS, MAX_RETRIES, MAX_WORKERS, RunConfig, api_key
from bteval.cli import EXIT_USAGE, main
from bteval.metrics import MAX_CHRF_ORDER, MetricError

# JSON texts, so 1e400, 10^30 and 10^400 reach the reader as written; NaN and Infinity
# are not JSON, though Python's json reads them
VALUES = ("null", "true", "false", "0", "-1", "0.5", "1e308", "-1e308", "1e400", "-1e400",
          "1" + "0" * 30, "1" + "0" * 400, '""', '"x"', '"化学"', '"\\ud800"', "[]", '[1, "a"]', "{}",
          '{"id": "x"}', "NaN", "Infinity", "-Infinity")

CORPUS_LINES = [
    {"id": "S1", "domain": "chemistry", "text": "化学工程领域的研究与分析。", "title": "研究",
     "variant": "simplified"},
    {"id": "S2", "domain": "chemistry", "text": "元素观点：物质由元素组成。", "variant": "simplified"},
]

SCORING = {"bleu_weights": [0.5, 0.5, 0.0, 0.0], "bleu_unif_weights": [0.25, 0.25, 0.25, 0.25],
           "smoothing_epsilon": None, "chrf_max_n": 6, "chrf_beta": 2.0, "level": "word"}

BACKEND = {"model_name": "noise", "endpoint": "", "prompt_template_forward": None,
           "prompt_template_backward": None, "temperature": 0.0, "timeout": 30.0,
           "max_retries": 2, "api_key_env": None, "wire_format": "chat", "rate_limit_rps": 1.0,
           "max_workers": 4, "drop_prob": 0.1, "swap_prob": 0.05}

# the variable a key check reads; no test sets it
UNSET_KEY = "BTEVAL_EXIT_CONTRACT_UNSET_KEY"


def run_config(corpus: str) -> dict:
    return {"corpus": corpus, "lexicon": None, "variant_table": None, "scoring": SCORING,
            "repetitions": 2, "master_seed": 7, "verbatim_threshold": 0.7,
            "traditional_threshold": 0.05, "max_missing_fraction": 1.0,
            "backends": [dict(BACKEND, id="m1", kind="mock"),
                         {"id": "m2", "kind": "mock", "model_name": "identity"}]}


def http_run_config(corpus: str) -> dict:
    http = dict(BACKEND, id="h1", kind="http_llm", model_name="x",
                endpoint="http://127.0.0.1:9/v1", api_key_env=UNSET_KEY)
    return dict(run_config(corpus), backends=[dict(BACKEND, id="m1", kind="mock"), http])


MATRIX = {"metric": "bleu", "design": {"n": 2, "k": 2, "r": 2}, "block_ids": ["a", "b"],
          "treatment_ids": ["x", "y"],
          "values": [[[0.1, 0.2], [0.3, 0.4]], [[0.5, None], [0.7, 0.8]]]}


def leaves(doc, path=()):
    """The path to every leaf of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    found = [leaf for key, value in items for leaf in leaves(value, path + (key,))]
    return found or [path]


def mutated(doc, path, value_text: str) -> str:
    """doc's JSON text with the leaf at path replaced by value_text."""
    marker = "\u0000leaf\u0000"
    copy = parent = json.loads(json.dumps(doc))
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = marker
    return json.dumps(copy, ensure_ascii=False).replace(json.dumps(marker), value_text)


@contextlib.contextmanager
def workdir():
    """A fresh directory per example: hypothesis reuses one function-scoped tmp_path."""
    path = Path(tempfile.mkdtemp(prefix="bteval-contract-"))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def check_main(argv, out: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_USAGE:
        assert err.getvalue().startswith("error:"), err.getvalue()
        assert not out.exists(), f"exit 2 left {out} behind"
    for path in sorted(out.glob("*.json")) if out.exists() else ():
        json.loads(path.read_text(encoding="utf-8"), parse_constant=not_json)
    return code


def not_json(name: str):
    raise AssertionError(f"{name} written, which is not JSON")


def write_corpus(directory: Path, lines) -> Path:
    path = directory / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def loaded_within_caps(text: str):
    """The run config text as the loader reads it, or None if it is rejected;
    an accepted config is asserted to be within every size cap."""
    try:
        config = jsonio.config_from_json(RunConfig, json.loads(text), "run config")
    except (jsonio.ConfigError, MetricError):
        return None
    assert 1 <= config.repetitions <= MAX_REPETITIONS
    assert 1 <= config.scoring.chrf_max_n <= MAX_CHRF_ORDER
    assert all(1 <= b.max_workers <= MAX_WORKERS for b in config.backends)
    assert all(0 <= b.max_retries <= MAX_RETRIES for b in config.backends)
    return config


def check_run(directory: Path, text: str) -> None:
    config_path = directory / "run.json"
    config_path.write_text(text, encoding="utf-8")
    out = directory / "out"
    argv = ["run", "--config", str(config_path), "--out", str(out)]
    config = loaded_within_caps(text)
    if config is None:
        assert check_main(argv, out) == EXIT_USAGE
        return
    http = [b for b in config.backends if b.kind == "http_llm"]
    try:
        for backend in http:
            api_key(backend)
    except jsonio.ConfigError:
        assert check_main(argv, out) == EXIT_USAGE  # rejected before any request
        return
    if not http:  # a run that would send is never started
        check_main(argv, out)


RUN_MUTATIONS = [(run_config, path) for path in leaves(run_config("corpus.jsonl"))
                 if path != ("corpus",)]
RUN_MUTATIONS += [(http_run_config, path) for path in leaves(http_run_config("corpus.jsonl"))
                  if path[:2] == ("backends", 1)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RUN_MUTATIONS), st.sampled_from(VALUES))
def test_run_config_leaf_swaps_keep_the_exit_code_contract(mutation, value):
    make, path = mutation
    with workdir() as directory:
        corpus = write_corpus(directory, [json.dumps(line, ensure_ascii=False)
                                          for line in CORPUS_LINES])
        check_run(directory, mutated(make(str(corpus)), path, value))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(leaves(CORPUS_LINES[0])), st.sampled_from(VALUES))
def test_corpus_leaf_swaps_keep_the_exit_code_contract(path, value):
    with workdir() as directory:
        corpus = write_corpus(directory, [mutated(CORPUS_LINES[0], path, value),
                                          json.dumps(CORPUS_LINES[1], ensure_ascii=False)])
        check_main(["validate", str(corpus)], directory / "unused")
        check_run(directory, json.dumps(run_config(str(corpus))))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(leaves(MATRIX)), st.sampled_from(VALUES))
def test_matrix_leaf_swaps_keep_the_exit_code_contract(path, value):
    with workdir() as directory:
        run_dir = directory / "run"
        run_dir.mkdir()
        matrix = run_dir / "matrix_bleu.json"
        matrix.write_text(mutated(MATRIX, path, value), encoding="utf-8")
        check_main(["stats", str(matrix), "--out", str(directory / "stats")], directory / "stats")
        check_main(["report", str(run_dir), "--out", str(directory / "report")],
                   directory / "report")


@pytest.mark.parametrize("field, cap", [
    ("repetitions", MAX_REPETITIONS),
    ("chrf_max_n", MAX_CHRF_ORDER),
    ("max_workers", MAX_WORKERS),
    ("max_retries", MAX_RETRIES),
])
def test_size_caps_hold_at_their_bounds(field, cap):
    def load(value):
        data = run_config("corpus.jsonl")
        if field == "chrf_max_n":
            data["scoring"] = dict(SCORING, chrf_max_n=value)
        elif field in ("max_workers", "max_retries"):
            data["backends"][0][field] = value
        else:
            data[field] = value
        return jsonio.config_from_json(RunConfig, data, "run config")

    load(cap)  # loading only: no run at the cap
    with pytest.raises((jsonio.ConfigError, MetricError), match=f"{field} must be <= {cap}"):
        load(cap + 1)


# written as text, since json.dumps recurses too; no reader may decode this deep
DEEP = "[" * 100_000

WHOLE_FILES = {"deep": DEEP, "array": "[]", "string": '"x"'}


@pytest.mark.parametrize("document", WHOLE_FILES.values(), ids=WHOLE_FILES.keys())
@pytest.mark.parametrize("command", ["stats", "run", "validate"])
def test_whole_file_cases_exit_2(tmp_path, command, document):
    out = tmp_path / "out"
    if command == "validate":  # a corpus line, or its text when deep
        deep_text = '{"id": "S1", "domain": "chemistry", "text": ' + DEEP
        line = deep_text if document is DEEP else document
        argv = ["validate", str(write_corpus(tmp_path, [line]))]
    else:
        path = tmp_path / "input.json"
        path.write_text(document, encoding="utf-8")
        argv = ["stats", str(path), "--out", str(out)] if command == "stats" else [
            "run", "--config", str(path), "--out", str(out)]
    assert check_main(argv, out) == EXIT_USAGE


def deepest_decodable() -> int:
    """The deepest array nesting the reader decodes when called from here."""
    depth = sys.getrecursionlimit()
    while True:
        try:
            jsonio.loads("[" * depth + "]" * depth)
            return depth
        except ValueError:
            depth -= 1


DEEP_LEAVES = ([("run", path) for path in leaves(run_config("corpus.jsonl"))]
               + [("run", path) for path in leaves(http_run_config("corpus.jsonl"))
                  if path[:2] == ("backends", 1)]
               + [("corpus", path) for path in leaves(dict(CORPUS_LINES[0], note=None))]
               + [("matrix", path) for path in leaves(MATRIX)])


@pytest.mark.parametrize("kind, path", DEEP_LEAVES,
                         ids=[f"{kind}-{'.'.join(map(str, path))}" for kind, path in DEEP_LEAVES])
def test_leaves_nested_near_the_recursion_limit_keep_the_contract(kind, path):
    # Nesting a little shallower than the reader's limit decodes; whatever then
    # reads, checks, shows or re-encodes the value must not exceed the limit itself.
    # Only the corpus line's unknown field may hold an array, which it keeps.
    deepest = deepest_decodable()
    with workdir() as directory:
        corpus = write_corpus(directory, [json.dumps(line, ensure_ascii=False)
                                          for line in CORPUS_LINES])
        config, matrix = directory / "run.json", directory / "matrix_bleu.json"
        for depth in range(deepest - 12, deepest + 3):
            value, out = "[" * depth + "]" * depth, directory / f"out{depth}"
            if kind == "matrix":
                matrix.write_text(mutated(MATRIX, path, value), encoding="utf-8")
                assert check_main(["stats", str(matrix), "--out", str(out)], out) == EXIT_USAGE
                assert check_main(["report", str(directory), "--out", str(out)], out) == EXIT_USAGE
            elif kind == "corpus":
                corpus.write_text(mutated(dict(CORPUS_LINES[0], note=None), path, value) + "\n",
                                  encoding="utf-8")
                code = check_main(["validate", str(corpus)], out)
                assert code == EXIT_USAGE or path == ("note",)
            else:
                make = http_run_config if path[:2] == ("backends", 1) else run_config
                config.write_text(mutated(make(str(corpus)), path, value), encoding="utf-8")
                assert check_main(["run", "--config", str(config), "--out", str(out)],
                                  out) == EXIT_USAGE
