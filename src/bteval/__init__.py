"""Back-translation evaluation toolkit.

Scores Chinese -> English -> Chinese round-trips with segmentation-aware
metrics and establishes model differences with rank-based statistics.
"""

from .config import BackendConfig, RunConfig, RunManifest
from .corpus import Corpus, CorpusError, TextSample, parse_corpus, serialize_corpus, validate_corpus
from .metrics import (
    BleuConfig,
    IdfModel,
    MetricVector,
    ScoringConfig,
    bleu,
    chrf,
    fit_idf,
    score_pair,
    semantic_similarity,
    ter,
)
from .pipeline import TranslationRecord, detect_verbatim, run_experiment
from .segmentation import (
    Lexicon,
    TokenList,
    detect_traditional,
    load_lexicon,
    segment_chars,
    segment_words,
)
from .stats import (
    ExperimentDesign,
    ScoreMatrix,
    StatTestResult,
    benjamini_hochberg,
    cell_means,
    descriptive_stats,
    dunn_posthoc,
    friedman,
    levene,
    shapiro_wilk,
    spearman_battery,
)

__version__ = "0.1.0"
