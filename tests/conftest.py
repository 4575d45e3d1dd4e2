import contextlib
import io
import json
import re
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from bteval import jsonio
from bteval.cli import EXIT_DEGRADED, EXIT_OK, EXIT_USAGE, main
from bteval.config import RunConfig
from bteval.segmentation import Lexicon
from bteval.stats import ExperimentDesign, ScoreMatrix

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"

HUA_YAO_MODELS = (
    "deepseek_v3", "gpt_4_5", "google", "sogou", "grok", "claude", "baidu", "gemini",
)

# written as the JSON number 1e400, which reads as inf; json.dumps would spell inf
# as Infinity, which is not JSON and which the config reader rejects
OVERFLOW = "\u0000overflow\u0000"


# a hypothesis example may run a whole `bteval run`, which can outlast the default deadline
settings.register_profile("bteval", deadline=None)
settings.load_profile("bteval")


def fixture_text(relative: str) -> str:
    return (FIXTURES / relative).read_text(encoding="utf-8").strip()


def run_config(backends, repetitions=1, **fields) -> RunConfig:
    """The RunConfig of a run on an in-memory corpus; run_experiment reads none of its paths."""
    return RunConfig(corpus="", backends=tuple(backends), repetitions=repetitions, **fields)


def make_matrix(values, metric="bleu", treatments=None, blocks=None) -> ScoreMatrix:
    """A matrix over an n x k x r grid; its ids are b0.. and t0.. unless given."""
    values = np.asarray(values, dtype=float)
    n, k, r = values.shape
    return ScoreMatrix(ExperimentDesign(n=n, k=k, r=r), metric, values,
                       list(blocks or (f"b{i}" for i in range(n))),
                       list(treatments or (f"t{j}" for j in range(k))))


def write_matrix(path: Path, matrix: ScoreMatrix) -> str:
    """A matrix file; json.dumps spells an infinite cell Infinity, which is not JSON."""
    path.write_text(json.dumps(matrix.to_dict()), encoding="utf-8")
    return str(path)


def write_jsonl(path: Path, records) -> Path:
    """A corpus file: one JSON object per line, its non-ASCII characters written raw."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    return path


def write_config(path: Path, config: dict) -> Path:
    """A JSON config file; OVERFLOW anywhere in config is written as 1e400."""
    path.write_text(json.dumps(config).replace(json.dumps(OVERFLOW), "1e400"), encoding="utf-8")
    return path


def write_run_config(directory: Path, corpus_path, backends, name="run.json", **fields) -> Path:
    """directory/name: a run over a corpus file and backend dicts, r = 2 and seed 7 unless
    fields say otherwise."""
    return write_config(directory / name, {"corpus": str(corpus_path), "repetitions": 2,
                                           "master_seed": 7, "backends": backends, **fields})


class CliResult(NamedTuple):
    code: int
    out: str
    err: str


def run_cli(*argv) -> CliResult:
    """`bteval argv` in this process, its stdout and stderr captured, with the exit-code
    contract checked: the code is 0, 1 or 2 (argparse's SystemExit counts as its code, and
    any other exception fails the caller); an exit 2 prints nothing on stdout, leads stderr
    with an `error:` line (argparse's follows its usage lines) and leaves no --out that did
    not exist before; and every *.json file under --out is strict JSON."""
    argv = [str(arg) for arg in argv]
    out_dir = Path(argv[argv.index("--out") + 1]) if "--out" in argv[:-1] else None
    out_existed = out_dir is not None and out_dir.exists()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    result = CliResult(code, out.getvalue(), err.getvalue())
    assert code in (EXIT_OK, EXIT_DEGRADED, EXIT_USAGE), (argv, result)
    assert "Traceback" not in result.err, result.err
    if code == EXIT_USAGE:
        assert result.out == "", result.out
        assert (result.err.startswith("error:") or (result.err.startswith("usage: bteval")
                and re.search(r"^bteval[^\n]*: error:", result.err, re.M))), result.err
        assert out_existed or out_dir is None or not out_dir.exists(), f"exit 2 left {out_dir}"
    for path in out_dir.glob("*.json") if out_dir else ():
        if path.is_file():
            jsonio.loads(path.read_text(encoding="utf-8"))
    return result


@pytest.fixture(scope="session")
def tiny_lexicon() -> Lexicon:
    # the worked segmentation example: one 4-char word vs two 2-char words
    return Lexicon({"人工智能": 100, "人工": 50, "智能": 50})


@pytest.fixture(scope="session")
def hua_yao_original() -> str:
    return fixture_text("hua_yao/original.txt")
