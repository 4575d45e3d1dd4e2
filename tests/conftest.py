from pathlib import Path

import pytest

from bteval.config import RunConfig
from bteval.segmentation import Lexicon

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"

HUA_YAO_MODELS = (
    "deepseek_v3", "gpt_4_5", "google", "sogou", "grok", "claude", "baidu", "gemini",
)


def fixture_text(relative: str) -> str:
    return (FIXTURES / relative).read_text(encoding="utf-8").strip()


def run_config(backends, repetitions=1, **fields) -> RunConfig:
    """The RunConfig of a run on an in-memory corpus; run_experiment reads none of its paths."""
    return RunConfig(corpus="", backends=tuple(backends), repetitions=repetitions, **fields)


@pytest.fixture(scope="session")
def tiny_lexicon() -> Lexicon:
    # the worked segmentation example: one 4-char word vs two 2-char words
    return Lexicon({"人工智能": 100, "人工": 50, "智能": 50})


@pytest.fixture(scope="session")
def hua_yao_original() -> str:
    return fixture_text("hua_yao/original.txt")
