import json
from pathlib import Path

import numpy as np
import pytest

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


@pytest.fixture(scope="session")
def tiny_lexicon() -> Lexicon:
    # the worked segmentation example: one 4-char word vs two 2-char words
    return Lexicon({"人工智能": 100, "人工": 50, "智能": 50})


@pytest.fixture(scope="session")
def hua_yao_original() -> str:
    return fixture_text("hua_yao/original.txt")
