"""Pairwise scores for an (original, back-translation) pair: two BLEU
weightings, character-n-gram F-score, token edit rate, and TF-IDF cosine
similarity.

One batch scorer computes all five over integer ids: many references, each
with its candidates, per numpy call. score_run is the one scoring entry: it
interns each distinct text once into a TokenTable, fits the IDF on the run,
and feeds its originals through the scorer in batches of at most
_BATCH_SYMBOLS candidate symbols. score_pair is a run of one round-trip; the
public one-metric functions call the same kernels with one reference.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, fields
from typing import Callable, Iterator

import numpy as np

from .jsonio import check_fields, check_value
from .segmentation import (
    WORD,
    CHARACTER,
    Lexicon,
    Segmenter,
    code_points,
)

TECHNICAL_WEIGHTS = (0.5, 0.5, 0.0, 0.0)
UNIFORM_WEIGHTS = (0.25, 0.25, 0.25, 0.25)
MAX_CHRF_ORDER = 32  # chrF's n-gram arrays grow with the order; 6 is the usual one


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
        check_fields(self, MetricError, "BLEU config")
        if len(self.weights) != 4:
            raise MetricError("exactly 4 n-gram weights required")
        if any(not w >= 0 for w in self.weights):
            raise MetricError("weights must be non-negative")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise MetricError("weights must sum to 1")
        if self.smoothing_epsilon is not None and not 0 < self.smoothing_epsilon <= 1:
            raise MetricError("smoothing_epsilon must be > 0 and <= 1, or null")


@dataclass(frozen=True)
class MetricVector:
    bleu: float
    bleu_unif: float
    chrf: float
    ter: float
    semantic_similarity: float


METRIC_NAMES = tuple(f.name for f in fields(MetricVector))


@dataclass
class IdfModel:
    """Smoothed inverse document frequencies: idf = ln((1+N)/(1+df)) + 1."""

    document_count: int
    document_frequency: dict[str, int]

    def idf(self, token: str) -> float:
        df = self.document_frequency.get(token, 0)
        return math.log((1 + self.document_count) / (1 + df)) + 1.0


def _check_chrf(max_n: int, beta: float) -> None:
    """The ranges of chrF's parameters, type-checked already, for a ScoringConfig and the
    public chrf alike: a MetricError unless max_n is 1..MAX_CHRF_ORDER and beta is positive
    with a finite square."""
    if max_n < 1:
        raise MetricError(f"chrf_max_n must be an integer >= 1, not {max_n!r}")
    if max_n > MAX_CHRF_ORDER:
        raise MetricError(f"chrf_max_n must be <= {MAX_CHRF_ORDER}, not {max_n!r}")
    # compared, not passed to isfinite, as an int's square can pass the float range
    if not (beta > 0 and beta * beta <= sys.float_info.max):
        raise MetricError(f"chrf_beta must be > 0 with a finite square, not {beta!r}")


@dataclass(frozen=True)
class ScoringConfig:
    bleu_weights: tuple[float, float, float, float] = TECHNICAL_WEIGHTS
    bleu_unif_weights: tuple[float, float, float, float] = UNIFORM_WEIGHTS
    smoothing_epsilon: float | None = None
    chrf_max_n: int = 6
    chrf_beta: float = 2.0
    level: str = WORD

    def __post_init__(self) -> None:
        check_fields(self, MetricError, "scoring")
        if self.level not in (WORD, CHARACTER):
            raise MetricError(f"scoring level must be {WORD} or {CHARACTER}, not {self.level!r}")
        _check_chrf(self.chrf_max_n, self.chrf_beta)
        for weights in (self.bleu_weights, self.bleu_unif_weights):
            BleuConfig(weights, self.smoothing_epsilon)


DEFAULT_SCORING = ScoringConfig()


# Candidate symbols scored in one batch, counted as if every candidate were as
# long as the batch's longest text, so the padded arrays of a batch stay small.
_BATCH_SYMBOLS = 1 << 14

_FIRST = np.zeros(1, np.int64)  # the reference slot of a lone candidate

IdfGather = Callable[[np.ndarray], np.ndarray]  # token ids -> their idf


def _pack(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Integer sequences end to end, and their lengths."""
    lengths = np.fromiter(map(len, seqs), np.int64, len(seqs))
    return (np.concatenate(seqs) if seqs else np.zeros(0, np.int64)), lengths


def _one(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return ids, np.array([len(ids)])


def _owners(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per symbol of a packed array: its sequence, and the symbols left in that sequence from it."""
    owner = np.repeat(np.arange(len(lengths)), lengths)
    return owner, np.repeat(np.cumsum(lengths), lengths) - np.arange(len(owner))


def _interned(*seqs) -> tuple[list[np.ndarray], dict]:
    """Token sequences as ids in one vocabulary of their own, and the vocabulary.
    A token's id is the number of tokens seen before its first sighting."""
    vocab: dict = {}
    sighted = itertools.count()
    return [np.fromiter(map(vocab.setdefault, seq, sighted), np.int64) for seq in seqs], vocab


def _text_points(tokens) -> np.ndarray:
    """Code points of the joined tokens, whitespace stripped as chrF strips it."""
    return code_points("".join("".join(tokens).split()))


def _clipped_matches(refs, cands, cand_ref: np.ndarray, top: int) -> np.ndarray:
    """Clipped n-gram matches of packed candidates against their packed
    references, one row per candidate and one column per order 0..top: each
    distinct candidate n-gram counts min(its count, its count in the
    candidate's reference). cand_ref is each candidate's reference slot, in
    non-decreasing order.

    An order-n gram's key is the id of its (n-1)-gram prefix times the symbol
    range plus its last symbol, where an order-1 gram's prefix is its
    reference's slot, so every key belongs to one reference; its id is the
    key's index in the order's sorted reference keys. Candidate keys roll
    forward from their previous order's ids the same way and are found by
    searchsorted, so no window is built. Hits are counted in (gram id,
    candidate slot among its reference's candidates) cells, then clipped.
    """
    (ref_syms, ref_lens), (cand_syms, cand_lens) = refs, cands
    count = len(cand_lens)
    matched = np.zeros((count, max(top, 0) + 1), np.int64)
    if not count:
        return matched
    size = int(max(ref_syms.max(initial=0), cand_syms.max(initial=0))) + 1
    first = np.searchsorted(cand_ref, np.arange(len(ref_lens)))  # each reference's first candidate
    slot = np.arange(count) - first[cand_ref]
    slots = int(slot.max()) + 1
    gram_ref = np.arange(len(ref_lens))  # each prefix id's reference
    ref_owner, ref_room = _owners(ref_lens)
    cand_owner, cand_room = _owners(cand_lens)
    ref_at, ref_ids = np.arange(len(ref_syms)), ref_owner
    cand_at, cand_ids = np.arange(len(cand_syms)), cand_ref[cand_owner]
    for n in range(1, top + 1):
        inside = ref_room[ref_at] >= n  # a window never spans two sequences
        ref_at, ref_ids = ref_at[inside], ref_ids[inside]
        inside = cand_room[cand_at] >= n
        cand_at, cand_ids = cand_at[inside], cand_ids[inside]
        if not len(ref_at) or not len(cand_at):
            break
        keys, ref_ids, counts = np.unique(ref_ids * size + ref_syms[ref_at + n - 1],
                                          return_inverse=True, return_counts=True)
        gram_ref = gram_ref[keys // size]
        key = cand_ids * size + cand_syms[cand_at + n - 1]
        cand_ids = np.searchsorted(keys, key)
        found = keys[np.minimum(cand_ids, len(keys) - 1)] == key
        cand_at, cand_ids = cand_at[found], cand_ids[found]
        hits = np.bincount(cand_ids * slots + slot[cand_owner[cand_at]],
                           minlength=len(keys) * slots)
        cells = np.flatnonzero(hits)
        grams = cells // slots
        matched[:, n] = np.bincount(first[gram_ref[grams]] + cells % slots,
                                    np.minimum(hits[cells], counts[grams]), minlength=count)
    return matched


def brevity_penalty(candidate_len: int, reference_len: int) -> float:
    if reference_len < 1:
        raise MetricError("reference must be non-empty")
    if candidate_len == 0:
        return 0.0
    if candidate_len >= reference_len:
        return 1.0
    return math.exp(1.0 - reference_len / candidate_len)


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
        total = max(0, cand_len - n + 1)
        if total == 0 and ref_len < n:
            continue
        if matched[n] == 0:
            p = 0.0 if epsilon is None or total == 0 else epsilon / total
            if p == 0.0:  # unsmoothed, or a subnormal epsilon's quotient underflowed
                return 0.0
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
    (cand, ref), _ = _interned(candidate, reference)
    if not len(ref):
        raise MetricError("reference must be non-empty")
    top = max(n for n, weight in enumerate(config.weights, start=1) if weight)
    matched = _clipped_matches(_one(ref), _one(cand), _FIRST, top)[0].tolist()
    return _bleu(config.weights, config.smoothing_epsilon, matched, len(cand), len(ref))


def _chrf(matched: np.ndarray, cand_lens: np.ndarray, ref_lens: np.ndarray, max_n: int,
          beta: float) -> np.ndarray:
    """Each candidate's mean F-beta over the orders 1..max_n that it or its
    reference (ref_lens, one per candidate) reaches, whitespace-free, summed
    left to right."""
    hits = matched[:, 1:]
    orders = np.arange(1, max_n + 1)
    cand_total = np.maximum(cand_lens[:, None] - orders + 1, 0)
    ref_total = np.maximum(ref_lens[:, None] - orders + 1, 0)
    precision = np.divide(hits, cand_total, out=np.zeros(hits.shape), where=cand_total > 0)
    recall = np.divide(hits, ref_total, out=np.zeros(hits.shape), where=ref_total > 0)
    beta_sq = beta * beta
    scores = np.divide((1 + beta_sq) * precision * recall, beta_sq * precision + recall,
                       out=np.zeros(hits.shape), where=(precision != 0.0) | (recall != 0.0))
    # the orders past both texts score 0.0 and come last, so they leave the sum as it is
    reached = np.minimum(np.maximum(cand_lens, ref_lens), max_n)
    return np.divide(np.cumsum(scores, axis=1)[:, -1], reached, out=np.zeros(len(reached)),
                     where=reached > 0)


def chrf(candidate: str, reference: str, max_n: int = 6, beta: float = 2.0) -> float:
    """Mean F-beta over character n-gram orders, whitespace stripped.

    Orders longer than both strings are excluded from the mean, so
    identical strings score 1.0 regardless of length.
    """
    check_value(int, max_n, MetricError, "chrf", "max_n")
    check_value(float, beta, MetricError, "chrf", "beta")
    _check_chrf(max_n, beta)
    cand, ref = _text_points(candidate), _text_points(reference)
    if not len(ref):
        raise MetricError("reference must be non-empty")
    matched = _clipped_matches(_one(ref), _one(cand), _FIRST, max_n)
    return float(_chrf(matched, np.array([len(cand)]), np.array([len(ref)]), max_n, beta)[0])


_ONES = np.uint64(2 ** 64 - 1)


def _big(words: np.ndarray) -> int:
    """64-bit words as one Python int, the first word lowest."""
    return int.from_bytes(words.astype("<u8").tobytes(), "little")


def _edit_distances(refs, cands, cand_ref: np.ndarray) -> list[int]:
    """Each packed candidate's edit distance to its non-empty packed reference.

    Bit-parallel Levenshtein (Myers 1999, JACM 46(3); Hyyrö 2003) for all
    candidates at once. A candidate owns a field of whole 64-bit words in one
    Python int, one bit per token of its reference below at least one guard
    bit, so no carry or shift crosses into the next field; a field holds one
    DP column as vertical +1/-1 deltas. Candidates are aligned at their last
    token: before its first token a field sees no match and no top-row step,
    which leaves its first column as it is. The distance is read from the last
    column: the candidate's length plus its +1 deltas minus its -1 deltas.
    """
    (ref_syms, ref_lens), (cand_syms, cand_lens) = refs, cands
    if not len(cand_lens):
        return []
    size = int(max(ref_syms.max(initial=0), cand_syms.max(initial=0))) + 1
    width = ref_lens // 64 + 1  # words per field of each reference's candidates
    # each distinct (reference, token)'s positions as a bitmask block of its field's
    # width, then a zero block for the tokens a reference lacks
    ref_owner, _ = _owners(ref_lens)
    position = np.arange(len(ref_syms)) - (np.cumsum(ref_lens) - ref_lens)[ref_owner]
    keys, key_of = np.unique(ref_owner * size + ref_syms, return_inverse=True)
    key_width = width[keys // size]
    key_at = np.cumsum(key_width) - key_width
    zero_at = int(key_width.sum())
    table = np.zeros(zero_at + int(width.max()), np.uint64)
    np.bitwise_or.at(table, key_at[key_of] + position // 64,
                     np.left_shift(np.uint64(1), (position % 64).astype(np.uint64)))
    cand_owner, _ = _owners(cand_lens)
    wanted = cand_ref[cand_owner] * size + cand_syms
    found = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    block = np.where(keys[found] == wanted, key_at[found], zero_at)
    # fields from the longest candidate down, so the started ones are a prefix
    order = np.argsort(-cand_lens, kind="stable")
    lengths = cand_lens[order]
    steps = int(lengths[0])
    start = steps - lengths  # the step of each field's first token
    field_width = width[cand_ref[order]]
    field_at = np.cumsum(field_width) - field_width
    field = np.repeat(np.arange(len(order)), field_width)  # each word's field
    word = np.arange(len(field)) - field_at[field]  # its index in the field
    # a word's token index at a step: its field's candidate offset, less the start, plus the step
    token_base = ((np.cumsum(cand_lens) - cand_lens)[order] - start)[field]
    last = word == field_width[field] - 1
    bits = (ref_lens[cand_ref[order]] % 64).astype(np.uint64)[field]
    mask = _big(np.where(last, np.left_shift(np.uint64(1), bits) - np.uint64(1), _ONES))
    low = _big((word == 0).astype(np.uint64))
    started = np.append(field_at, len(field))[np.searchsorted(start, np.arange(steps), "right")]
    pv, mv = mask, 0
    for step, words in enumerate(started.tolist()):
        eq = _big(table[block[token_base[:words] + step] + word[:words]])
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        # a started field's top row (a global alignment) grows by one per token
        ph = ((ph & mask) << 1) | (low & ((1 << (64 * words)) - 1))
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv

    def deltas(vector: int) -> np.ndarray:
        packed = np.frombuffer(vector.to_bytes(8 * len(field), "little"), np.uint8)
        return np.add.reduceat(np.unpackbits(packed).reshape(-1, 64).sum(1), field_at)

    distances = np.empty(len(order), np.int64)
    distances[order] = lengths + deltas(pv) - deltas(mv)
    return distances.tolist()


def edit_distance(candidate, reference) -> int:
    """Unit-cost insert/delete/substitute distance between token sequences.

    Exact bit-parallel Levenshtein (Myers 1999, JACM 46(3); Hyyrö 2003):
    one Python int holds one DP column as vertical +1/-1 deltas, one bit
    per reference token, so the reference may have any length.
    """
    (cand, ref), _ = _interned(candidate, reference)
    if not len(ref):
        return len(cand)
    return _edit_distances(_one(ref), _one(cand), _FIRST)[0]


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


def _idf_weights(document_count: int, df: np.ndarray) -> np.ndarray:
    """IdfModel.idf for each document frequency in df, one math.log per distinct value."""
    distinct, inverse = np.unique(df, return_inverse=True)
    logs = [math.log((1 + document_count) / (1 + d)) + 1.0 for d in distinct.tolist()]
    return np.array(logs, float)[inverse]


def _gather(keys: np.ndarray, weights: np.ndarray) -> IdfGather:
    """weights[i] for each id keys[i] (keys sorted)."""
    return lambda ids: weights[np.searchsorted(keys, ids)]


def _idf_of(idf: IdfModel, vocab: dict) -> IdfGather:
    """The model's idf as a gather on the ids of vocab."""
    df = np.fromiter((idf.document_frequency.get(t, 0) for t in vocab), np.int64, len(vocab))
    ids = np.fromiter(vocab.values(), np.int64, len(vocab))  # ascending: numbered in order of sight
    return _gather(ids, _idf_weights(idf.document_count, df))


def _ordered_sums(owner: np.ndarray, values: np.ndarray, count: int) -> np.ndarray:
    """Per sequence, its values (owner non-decreasing) added left to right to
    0.0, whatever the interpreter's sum() or numpy's pairwise sum would do: a
    cumsum along zero-padded rows."""
    rank = np.arange(len(owner)) - np.searchsorted(owner, owner)
    rows = np.zeros((count, int(rank.max(initial=-1)) + 2))
    rows[owner, rank + 1] = values
    return np.cumsum(rows, axis=1)[:, -1]


def _cosines(refs, cands, cand_ref: np.ndarray, idf: IdfGather) -> np.ndarray:
    """Each packed candidate's TF-IDF cosine with its packed reference.

    A token weighs count × idf; the dot product and the norms sum in the
    order in which each vector's tokens first occur. Equal vectors score 1
    (0 when empty), and an all-zero vector 0.
    """
    (ref_syms, ref_lens), (cand_syms, cand_lens) = refs, cands
    count = len(cand_lens)
    size = int(max(ref_syms.max(initial=0), cand_syms.max(initial=0))) + 1

    def vectors(syms, lens):
        """(sequence, token) keys, sorted, with their weights, and the first-occurrence order."""
        owner = np.repeat(np.arange(len(lens)), lens)
        keys, first, counts = np.unique(owner * size + syms, return_index=True, return_counts=True)
        return keys, counts * idf(syms[first]), np.argsort(first)

    ref_keys, ref_weights, ref_order = vectors(ref_syms, ref_lens)
    keys, weights, order = vectors(cand_syms, cand_lens)
    keys, weights = keys[order], weights[order]
    owner = keys // size
    wanted = cand_ref[owner] * size + keys % size
    # a sentinel past every key, where a token its reference lacks lands
    at = np.searchsorted(ref_keys, wanted)
    ref_keys = np.append(ref_keys, np.iinfo(np.int64).max)
    ref_weights = np.append(ref_weights, 0.0)
    hit = ref_keys[at] == wanted
    shared = np.where(hit, ref_weights[at], 0.0)
    dot = _ordered_sums(owner, weights * shared, count)
    norm = np.sqrt(_ordered_sums(owner, weights * weights, count))
    ref_owner = ref_keys[ref_order] // size
    ref_weights = ref_weights[ref_order]
    ref_norm = np.sqrt(_ordered_sums(ref_owner, ref_weights * ref_weights, len(ref_lens)))[cand_ref]
    distinct = np.bincount(owner, minlength=count)
    equal = ((np.bincount(owner[~hit | (weights != shared)], minlength=count) == 0)
             & (distinct == np.bincount(ref_owner, minlength=len(ref_lens))[cand_ref]))
    cosine = np.divide(dot, norm * ref_norm, out=np.zeros(count),
                       where=(norm != 0.0) & (ref_norm != 0.0))
    # min(1.0, max(0.0, x)) as Python orders it
    cosine = np.where(cosine > 0.0, cosine, 0.0)
    cosine = np.where(cosine < 1.0, cosine, 1.0)
    return np.where(equal, np.where(distinct > 0, 1.0, 0.0), cosine)


def semantic_similarity(candidate, reference, idf: IdfModel) -> float:
    """Cosine of the TF-IDF vectors; 0 when either vector is all-zero."""
    (cand, ref), vocab = _interned(candidate, reference)
    return float(_cosines(_one(ref), _one(cand), _FIRST, _idf_of(idf, vocab))[0])


def _score(tokens, chars, words, cand_ref: np.ndarray, config: ScoringConfig,
           idf: IdfGather) -> list[tuple[MetricVector, float]]:
    """The batch scorer: each packed candidate's five metrics against its
    packed reference, and its verbatim similarity, detect_verbatim's
    unsmoothed 1-2-gram BLEU over words.

    tokens, chars and words are each (references, candidates), packed: the
    scoring ids, the whitespace-free code points and the word ids, which at
    the word level are the scoring ids. cand_ref is each candidate's
    reference slot, non-decreasing.
    """
    (refs, cands), (ref_chars, cand_chars), (ref_words, cand_words) = tokens, chars, words
    ref_lens, text_lens = refs[1], ref_chars[1]
    if not (ref_lens.all() and text_lens.all()):
        raise MetricError("reference must be non-empty")
    epsilon = config.smoothing_epsilon
    matches = _clipped_matches(refs, cands, cand_ref, 4).tolist()
    verbatim = (matches if config.level == WORD
                else _clipped_matches(ref_words, cand_words, cand_ref, 2).tolist())
    similarities = [
        _bleu(TECHNICAL_WEIGHTS, None, hits, cand_len, ref_len) for hits, cand_len, ref_len
        in zip(verbatim, cand_words[1].tolist(), ref_words[1][cand_ref].tolist())]
    char_matches = _clipped_matches(ref_chars, cand_chars, cand_ref, config.chrf_max_n)
    chrfs = _chrf(char_matches, cand_chars[1], text_lens[cand_ref], config.chrf_max_n,
                  config.chrf_beta)
    scored = []
    for matched, cand_len, ref_len, chrf_, distance, cosine, similarity in zip(
            matches, cands[1].tolist(), ref_lens[cand_ref].tolist(), chrfs.tolist(),
            _edit_distances(refs, cands, cand_ref), _cosines(refs, cands, cand_ref, idf).tolist(),
            similarities):
        vector = MetricVector(
            bleu=_bleu(config.bleu_weights, epsilon, matched, cand_len, ref_len),
            bleu_unif=_bleu(config.bleu_unif_weights, epsilon, matched, cand_len, ref_len),
            chrf=chrf_,
            ter=distance / ref_len,
            semantic_similarity=cosine,
        )
        scored.append((vector, similarity))
    return scored


def score_pair(original: str, backtranslation: str, lexicon: Lexicon | None = None,
               config: ScoringConfig = DEFAULT_SCORING) -> MetricVector:
    """All five metrics for one pair: a run of one round-trip, so the pair
    itself is the IDF's fitting corpus."""
    return next(score_run([original], [(original, [backtranslation])], config,
                          Segmenter(lexicon)))[0]


class TokenTable:
    """A run's texts as integer ids, each distinct text segmented into words
    once, through segment. A word's id is the number of words interned before
    its first sighting. The scoring ids are the word ids at the word level and
    the whitespace-free code points (chars) at the character level."""

    def __init__(self, texts, level: str, segment: Segmenter) -> None:
        vocab: dict[str, int] = {}
        sighted = itertools.count()
        self.words: dict[str, np.ndarray] = {}
        for text in dict.fromkeys(texts):
            tokens = segment(text)
            self.words[text] = np.fromiter(map(vocab.setdefault, tokens, sighted), np.int64,
                                           len(tokens))
        self.chars = {text: code_points("".join(text.split())) for text in self.words}
        self.ids = self.words if level == WORD else self.chars

    def idf(self, documents: list[str]) -> IdfGather:
        """fit_idf over the documents' scoring ids (repeated texts count again),
        as a gather on those ids."""
        unique = {text: np.unique(ids) for text, ids in self.ids.items()}
        keys, df = np.unique(np.concatenate([unique[text] for text in documents]),
                             return_counts=True)
        return _gather(keys, _idf_weights(len(documents), df))


def score_run(originals: list[str], groups, config: ScoringConfig,
              segment: Segmenter) -> Iterator[tuple[MetricVector, float]]:
    """Per back-translation of each (original, [back-translations]) group, in
    order: its five metrics and its verbatim similarity, as _score gives them.

    The texts are interned into one TokenTable through segment, and the IDF is
    fit on every original plus every back-translation. Consecutive groups share
    a batch while its candidates, each counted as long as the longest, stay
    within _BATCH_SYMBOLS symbols."""
    texts = [*originals, *(cand for _, cands in groups for cand in cands)]
    table = TokenTable(texts, config.level, segment)
    idf = table.idf(texts)
    batch: list = []
    count = longest = 0
    for ref, cands in groups:
        size = max(map(len, cands))
        if batch and (count + len(cands)) * max(longest, size) > _BATCH_SYMBOLS:
            yield from _score_batch(batch, table, config, idf)
            batch, count, longest = [], 0, 0
        batch.append((ref, cands))
        count, longest = count + len(cands), max(longest, size)
    if batch:
        yield from _score_batch(batch, table, config, idf)


def _score_batch(batch, table: TokenTable, config: ScoringConfig,
                 idf: IdfGather) -> list[tuple[MetricVector, float]]:
    refs = [ref for ref, _ in batch]
    cands = [cand for _, group in batch for cand in group]
    cand_ref = np.repeat(np.arange(len(batch)), [len(group) for _, group in batch])

    def packed(of) -> tuple:
        return _pack([of(ref) for ref in refs]), _pack([of(cand) for cand in cands])

    chars, words = packed(table.chars.get), packed(table.words.get)
    return _score(words if config.level == WORD else chars, chars, words, cand_ref, config, idf)
