"""Pairwise scores for an (original, back-translation) pair: two BLEU
weightings, character-n-gram F-score, token edit rate, and TF-IDF cosine
similarity. All five share one segmentation pass, and PreparedReference
counts a reference once for any number of candidates.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .segmentation import (
    WORD,
    CHARACTER,
    Lexicon,
    tokenize,
)

TECHNICAL_WEIGHTS = (0.5, 0.5, 0.0, 0.0)
UNIFORM_WEIGHTS = (0.25, 0.25, 0.25, 0.25)

METRIC_NAMES = ("bleu", "bleu_unif", "chrf", "ter", "semantic_similarity")


class MetricError(ValueError):
    """Invalid metric input (empty reference, bad configuration)."""


@dataclass(frozen=True)
class BleuConfig:
    """Weight scheme over 1..4-grams plus smoothing.

    smoothing_epsilon None means unsmoothed: a zero precision at any
    positively weighted order zeroes the whole score.
    """

    weights: tuple[float, float, float, float] = TECHNICAL_WEIGHTS
    smoothing_epsilon: float | None = None

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
            BleuConfig(weights, self.smoothing_epsilon)

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


def _grams(seq, orders) -> Counter:
    """Every window of each order of a str or tuple, counted in one multiset.

    Windows of different orders differ in length, so they never collide.
    """
    return Counter(seq[i:i + n] for n in orders for i in range(len(seq) - n + 1))


def _matches(cand_grams: Counter, ref_grams: dict, top: int) -> list[int]:
    """Clipped matches per order 0..top: each shared window counts min(cand, ref) times."""
    matched = [0] * (top + 1)
    for gram in cand_grams.keys() & ref_grams.keys():
        c, r = cand_grams[gram], ref_grams[gram]
        matched[len(gram)] += c if c < r else r
    return matched


def _windows(length: int, n: int) -> int:
    return max(0, length - n + 1)


def brevity_penalty(candidate_len: int, reference_len: int) -> float:
    if reference_len < 1:
        raise MetricError("reference must be non-empty")
    if candidate_len == 0:
        return 0.0
    if candidate_len >= reference_len:
        return 1.0
    return math.exp(1.0 - reference_len / candidate_len)


def _weighted_orders(*weightings) -> tuple[int, ...]:
    return tuple(n for n in range(1, 5) if any(w[n - 1] for w in weightings))


def _bleu(weights, epsilon: float | None, matched: list[int], cand_len: int,
          ref_len: int) -> float:
    """The geometric mean of the per-order precisions, times the brevity penalty."""
    bp = brevity_penalty(cand_len, ref_len)
    if bp == 0.0:
        return 0.0
    log_sum = 0.0
    for n, weight in enumerate(weights, start=1):
        if weight == 0.0:
            continue
        total = _windows(cand_len, n)
        if total == 0 and ref_len < n:
            continue
        if matched[n] == 0:
            if epsilon is None or total == 0:
                return 0.0
            p = epsilon / total
        else:
            p = matched[n] / total
        log_sum += weight * math.log(p)
    return bp * math.exp(log_sum)


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
    orders = _weighted_orders(config.weights)
    matched = _matches(_grams(cand, orders), _grams(ref, orders), 4)
    return _bleu(config.weights, config.smoothing_epsilon, matched, len(cand), len(ref))


def _f_beta(matched: int, cand_total: int, ref_total: int, beta_sq: float) -> float:
    precision = matched / cand_total if cand_total else 0.0
    recall = matched / ref_total if ref_total else 0.0
    if precision == 0.0 and recall == 0.0:
        return 0.0
    return (1 + beta_sq) * precision * recall / (beta_sq * precision + recall)


def _chrf(cand: str, ref_grams: dict, ref_len: int, max_n: int, beta: float) -> float:
    """Mean F-beta over the orders 1..max_n that either whitespace-free text reaches."""
    orders = range(1, max_n + 1)
    matched = _matches(_grams(cand, orders), ref_grams, max_n)
    beta_sq = beta * beta
    scores = [
        _f_beta(matched[n], _windows(len(cand), n), _windows(ref_len, n), beta_sq)
        for n in orders if len(cand) >= n or ref_len >= n
    ]
    return sum(scores) / len(scores) if scores else 0.0


def chrf(candidate: str, reference: str, max_n: int = 6, beta: float = 2.0) -> float:
    """Mean F-beta over character n-gram orders, whitespace stripped.

    Orders longer than both strings are excluded from the mean, so
    identical strings score 1.0 regardless of length.
    """
    cand = "".join(candidate.split())
    ref = "".join(reference.split())
    if not ref:
        raise MetricError("reference must be non-empty")
    return _chrf(cand, _grams(ref, range(1, max_n + 1)), len(ref), max_n, beta)


def _peq(reference: tuple) -> dict:
    """Per token, the bitmask of the reference positions that hold it."""
    peq: dict = {}
    for i, tok in enumerate(reference):
        peq[tok] = peq.get(tok, 0) | (1 << i)
    return peq


def _edit_distance(cand: tuple, peq: dict, ref_len: int) -> int:
    """Bit-parallel Levenshtein distance to a non-empty reference given by its peq."""
    mask = (1 << ref_len) - 1
    last = 1 << (ref_len - 1)
    pv, mv, dist = mask, 0, ref_len
    for tok in cand:
        eq = peq.get(tok, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        # the top row of a global alignment grows by one per candidate token
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv & mask
    return dist


def edit_distance(candidate, reference) -> int:
    """Unit-cost insert/delete/substitute distance between token sequences.

    Exact bit-parallel Levenshtein (Myers 1999, JACM 46(3); Hyyrö 2003):
    one Python int holds one DP column as vertical +1/-1 deltas, one bit
    per reference token, so the reference may have any length.
    """
    cand = tuple(candidate)
    ref = tuple(reference)
    if not ref:
        return len(cand)
    return _edit_distance(cand, _peq(ref), len(ref))


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
    return {token: count * idf.idf(token) for token, count in Counter(tokens).items()}


def _norm(vector: dict[str, float]) -> float:
    return math.sqrt(sum(w * w for w in vector.values()))


def _cosine(cand_vec: dict[str, float], ref_vec: dict[str, float], ref_norm: float) -> float:
    if cand_vec == ref_vec:
        return 1.0 if cand_vec else 0.0
    dot = sum(weight * ref_vec.get(token, 0.0) for token, weight in cand_vec.items())
    norm_c = _norm(cand_vec)
    if norm_c == 0.0 or ref_norm == 0.0:
        return 0.0
    return min(1.0, max(0.0, dot / (norm_c * ref_norm)))


def semantic_similarity(candidate, reference, idf: IdfModel) -> float:
    """Cosine of the TF-IDF vectors; 0 when either vector is all-zero."""
    ref_vec = _tfidf_vector(reference, idf)
    return _cosine(_tfidf_vector(candidate, idf), ref_vec, _norm(ref_vec))


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


class PreparedReference:
    """One reference with everything the five metrics read from it built once:
    the word n-gram counts of every weighted BLEU order, the whitespace-free
    text and its character n-gram counts, the TF-IDF vector and its norm, and
    the edit-distance bitmasks. score() rates any number of candidates
    against it; each candidate is counted once per order, and both BLEU
    weightings read the same counts.
    """

    def __init__(self, ref_tokens, config: ScoringConfig, idf: IdfModel) -> None:
        ref = tuple(ref_tokens)
        # chrF reads the joined tokens, which differ from the texts only by
        # whitespace that chrF strips anyway
        text = "".join("".join(ref).split())
        if not ref or not text:
            raise MetricError("reference must be non-empty")
        self._config = config
        self._idf = idf
        self._len = len(ref)
        self._orders = _weighted_orders(config.bleu_weights, config.bleu_unif_weights)
        self._word_grams = _grams(ref, self._orders)
        self._text_len = len(text)
        self._char_grams = _grams(text, range(1, config.chrf_max_n + 1))
        self._vector = _tfidf_vector(ref, idf)
        self._norm = _norm(self._vector)
        self._peq = _peq(ref)

    def score(self, cand_tokens) -> MetricVector:
        config = self._config
        cand = tuple(cand_tokens)
        matched = _matches(_grams(cand, self._orders), self._word_grams, 4)
        epsilon = config.smoothing_epsilon
        return MetricVector(
            bleu=_bleu(config.bleu_weights, epsilon, matched, len(cand), self._len),
            bleu_unif=_bleu(config.bleu_unif_weights, epsilon, matched, len(cand), self._len),
            chrf=_chrf("".join("".join(cand).split()), self._char_grams, self._text_len,
                       config.chrf_max_n, config.chrf_beta),
            ter=_edit_distance(cand, self._peq, self._len) / self._len,
            semantic_similarity=_cosine(_tfidf_vector(cand, self._idf), self._vector, self._norm),
        )


def score_tokens(cand_tokens, ref_tokens, config: ScoringConfig, idf: IdfModel) -> MetricVector:
    """All five metrics for one tokenized pair."""
    return PreparedReference(ref_tokens, config, idf).score(cand_tokens)
