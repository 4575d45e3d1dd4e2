"""Pairwise scores for an (original, back-translation) pair: two BLEU
weightings, character-n-gram F-score, token edit rate, and TF-IDF cosine
similarity. All five share one segmentation pass via score_tokens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .segmentation import (
    WORD,
    CHARACTER,
    Lexicon,
    ngrams,
    tokenize,
)

TECHNICAL_WEIGHTS = (0.5, 0.5, 0.0, 0.0)
UNIFORM_WEIGHTS = (0.25, 0.25, 0.25, 0.25)

METRIC_NAMES = ("bleu", "bleu_unif", "chrf", "ter", "semantic_similarity")


class MetricError(ValueError):
    """Invalid metric input (empty reference, bad configuration)."""


@dataclass(frozen=True)
class BleuConfig:
    """Weight scheme over 1..4-grams plus smoothing and segmentation level.

    smoothing_epsilon None means unsmoothed: a zero precision at any
    positively weighted order zeroes the whole score.
    """

    weights: tuple[float, float, float, float] = TECHNICAL_WEIGHTS
    smoothing_epsilon: float | None = None
    level: str = WORD

    def __post_init__(self) -> None:
        if len(self.weights) != 4:
            raise MetricError("exactly 4 n-gram weights required")
        if any(w < 0 for w in self.weights):
            raise MetricError("weights must be non-negative")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise MetricError("weights must sum to 1")
        if self.smoothing_epsilon is not None and not self.smoothing_epsilon > 0:
            raise MetricError("smoothing_epsilon must be > 0 or null")


@dataclass(frozen=True)
class MetricVector:
    bleu: float
    bleu_unif: float
    chrf: float
    ter: float
    semantic_similarity: float

    def as_dict(self) -> dict[str, float]:
        return {
            "bleu": self.bleu,
            "bleu_unif": self.bleu_unif,
            "chrf": self.chrf,
            "ter": self.ter,
            "semantic_similarity": self.semantic_similarity,
        }

    def __getitem__(self, name: str) -> float:
        return self.as_dict()[name]


@dataclass
class IdfModel:
    """Smoothed inverse document frequencies: idf = ln((1+N)/(1+df)) + 1."""

    document_count: int
    document_frequency: dict[str, int]

    def idf(self, token: str) -> float:
        df = self.document_frequency.get(token, 0)
        return math.log((1 + self.document_count) / (1 + df)) + 1.0


@dataclass(frozen=True)
class ScoringConfig:
    bleu_weights: tuple[float, float, float, float] = TECHNICAL_WEIGHTS
    bleu_unif_weights: tuple[float, float, float, float] = UNIFORM_WEIGHTS
    smoothing_epsilon: float | None = None
    chrf_max_n: int = 6
    chrf_beta: float = 2.0
    level: str = WORD

    def __post_init__(self) -> None:
        if self.level not in (WORD, CHARACTER):
            raise MetricError(f"scoring level must be {WORD} or {CHARACTER}, not {self.level!r}")
        if not isinstance(self.chrf_max_n, int) or self.chrf_max_n < 1:
            raise MetricError(f"chrf_max_n must be an integer >= 1, not {self.chrf_max_n!r}")
        if not self.chrf_beta > 0:
            raise MetricError(f"chrf_beta must be > 0, not {self.chrf_beta!r}")
        for weights in (self.bleu_weights, self.bleu_unif_weights):
            BleuConfig(weights, self.smoothing_epsilon, self.level)

    def as_dict(self) -> dict:
        return {
            "bleu_weights": list(self.bleu_weights),
            "bleu_unif_weights": list(self.bleu_unif_weights),
            "smoothing_epsilon": self.smoothing_epsilon,
            "chrf_max_n": self.chrf_max_n,
            "chrf_beta": self.chrf_beta,
            "level": self.level,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScoringConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise MetricError(f"unknown scoring fields: {sorted(unknown)}")
        kwargs = dict(data)
        try:
            for key in ("bleu_weights", "bleu_unif_weights"):
                if key in kwargs:
                    kwargs[key] = tuple(kwargs[key])
            return cls(**kwargs)
        except TypeError as exc:  # a value of the wrong JSON type
            raise MetricError(f"bad scoring config: {exc}") from exc


DEFAULT_SCORING = ScoringConfig()


def modified_precision(candidate, reference, n: int) -> tuple[int, int]:
    """Clipped n-gram matches and candidate n-gram total."""
    if not 1 <= n <= 4:
        raise MetricError("n must lie in [1, 4]")
    cand = ngrams(candidate, n)
    ref = ngrams(reference, n)
    matched = sum(min(count, ref.get(gram, 0)) for gram, count in cand.items())
    return matched, sum(cand.values())


def brevity_penalty(candidate_len: int, reference_len: int) -> float:
    if reference_len < 1:
        raise MetricError("reference must be non-empty")
    if candidate_len == 0:
        return 0.0
    if candidate_len >= reference_len:
        return 1.0
    return math.exp(1.0 - reference_len / candidate_len)


def bleu(candidate, reference, config: BleuConfig = BleuConfig()) -> float:
    """Weighted-geometric-mean BLEU with brevity penalty.

    Orders where neither side has any n-gram (both shorter than n) carry
    no evidence and are skipped, so identical inputs score 1.0 at every
    length. A zero precision at a weighted order yields 0.0 unless an
    epsilon floor is configured.
    """
    cand = tuple(candidate)
    ref = tuple(reference)
    if not ref:
        raise MetricError("reference must be non-empty")
    bp = brevity_penalty(len(cand), len(ref))
    if bp == 0.0:
        return 0.0
    log_sum = 0.0
    for n, weight in enumerate(config.weights, start=1):
        if weight == 0.0:
            continue
        matched, total = modified_precision(cand, ref, n)
        if total == 0 and len(ref) < n:
            continue
        if matched == 0:
            if config.smoothing_epsilon is None or total == 0:
                return 0.0
            p = config.smoothing_epsilon / total
        else:
            p = matched / total
        log_sum += weight * math.log(p)
    return bp * math.exp(log_sum)


def _char_grams(text: str, n: int) -> dict[str, int]:
    counts: dict[str, int] = {}
    for i in range(len(text) - n + 1):
        gram = text[i:i + n]
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def chrf(candidate: str, reference: str, max_n: int = 6, beta: float = 2.0) -> float:
    """Mean F-beta over character n-gram orders, whitespace stripped.

    Orders longer than both strings are excluded from the mean, so
    identical strings score 1.0 regardless of length.
    """
    cand = "".join(candidate.split())
    ref = "".join(reference.split())
    if not ref:
        raise MetricError("reference must be non-empty")
    beta_sq = beta * beta
    scores = []
    for n in range(1, max_n + 1):
        if len(cand) < n and len(ref) < n:
            continue
        cand_grams = _char_grams(cand, n)
        ref_grams = _char_grams(ref, n)
        matched = sum(min(c, ref_grams.get(g, 0)) for g, c in cand_grams.items())
        cand_total = sum(cand_grams.values())
        ref_total = sum(ref_grams.values())
        precision = matched / cand_total if cand_total else 0.0
        recall = matched / ref_total if ref_total else 0.0
        if precision == 0.0 and recall == 0.0:
            scores.append(0.0)
        else:
            scores.append((1 + beta_sq) * precision * recall / (beta_sq * precision + recall))
    return sum(scores) / len(scores) if scores else 0.0


def edit_distance(candidate, reference) -> int:
    """Unit-cost insert/delete/substitute distance between token sequences."""
    cand = tuple(candidate)
    ref = tuple(reference)
    if not cand:
        return len(ref)
    if not ref:
        return len(cand)
    previous = list(range(len(ref) + 1))
    for i, ctok in enumerate(cand, start=1):
        current = [i] + [0] * len(ref)
        for j, rtok in enumerate(ref, start=1):
            cost = 0 if ctok == rtok else 1
            current[j] = min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
        previous = current
    return previous[-1]


def ter(candidate, reference) -> float:
    """Token edit distance divided by reference length; lower is better."""
    ref = tuple(reference)
    if not ref:
        raise MetricError("reference must be non-empty")
    return edit_distance(candidate, ref) / len(ref)


def fit_idf(documents) -> IdfModel:
    """Document-frequency model over tokenized documents."""
    docs = [tuple(doc) for doc in documents]
    if len(docs) < 2:
        raise MetricError("idf fitting needs at least 2 documents")
    df: dict[str, int] = {}
    for doc in docs:
        for token in set(doc):
            df[token] = df.get(token, 0) + 1
    return IdfModel(document_count=len(docs), document_frequency=df)


def _tfidf_vector(tokens, idf: IdfModel) -> dict[str, float]:
    counts: dict[str, int] = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    return {token: count * idf.idf(token) for token, count in counts.items()}


def semantic_similarity(candidate, reference, idf: IdfModel) -> float:
    """Cosine of the TF-IDF vectors; 0 when either vector is all-zero."""
    cand_vec = _tfidf_vector(candidate, idf)
    ref_vec = _tfidf_vector(reference, idf)
    if cand_vec == ref_vec:
        return 1.0 if cand_vec else 0.0
    dot = sum(weight * ref_vec.get(token, 0.0) for token, weight in cand_vec.items())
    norm_c = math.sqrt(sum(w * w for w in cand_vec.values()))
    norm_r = math.sqrt(sum(w * w for w in ref_vec.values()))
    if norm_c == 0.0 or norm_r == 0.0:
        return 0.0
    return min(1.0, max(0.0, dot / (norm_c * norm_r)))


def score_pair(
    original: str,
    backtranslation: str,
    lexicon: Lexicon | None = None,
    config: ScoringConfig = DEFAULT_SCORING,
    idf: IdfModel | None = None,
) -> MetricVector:
    """All five metrics for one pair, sharing a single tokenization.

    Without a prefitted idf model the pair itself is the fitting corpus.
    """
    if not original.strip():
        raise MetricError("original must be non-empty")
    ref_tokens = tokenize(original, config.level, lexicon)
    cand_tokens = tokenize(backtranslation, config.level, lexicon)
    if idf is None:
        idf = fit_idf([ref_tokens, cand_tokens])
    return score_tokens(cand_tokens, ref_tokens, config, idf)


def score_tokens(cand_tokens, ref_tokens, config: ScoringConfig, idf: IdfModel) -> MetricVector:
    """All five metrics for one tokenized pair. chrF reads the joined tokens, which
    differ from the texts only by whitespace that chrF strips anyway."""
    technical = BleuConfig(config.bleu_weights, config.smoothing_epsilon, config.level)
    uniform = BleuConfig(config.bleu_unif_weights, config.smoothing_epsilon, config.level)
    return MetricVector(
        bleu=bleu(cand_tokens, ref_tokens, technical),
        bleu_unif=bleu(cand_tokens, ref_tokens, uniform),
        chrf=chrf("".join(cand_tokens), "".join(ref_tokens), config.chrf_max_n, config.chrf_beta),
        ter=ter(cand_tokens, ref_tokens),
        semantic_similarity=semantic_similarity(cand_tokens, ref_tokens, idf),
    )
