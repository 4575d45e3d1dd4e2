"""Metric implementations against brute-force counting oracles."""

import json
import math
import random
import re
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bteval.metrics import (
    MAX_CHRF_ORDER,
    BleuConfig,
    IdfModel,
    MetricError,
    MetricVector,
    ScoringConfig,
    _clipped_matches,
    _edit_distances,
    _idf_of,
    _interned,
    _pack,
    _score,
    _text_points,
    bleu,
    brevity_penalty,
    chrf,
    fit_idf,
    score_pair,
    score_run,
    semantic_similarity,
    ter,
)
from bteval.corpus import parse_corpus
from bteval.config import BackendConfig
from bteval.jsonio import config_from_json
from bteval.pipeline import run_experiment
from bteval.segmentation import (CHARACTER, WORD, Lexicon, Segmenter, segment_chars,
                                 segment_words)

from conftest import FIXTURES, run_config


# ---------------------------------------------------------------- oracles

def packed_groups(groups):
    """A batch kernel's packed references, packed candidates and candidate
    reference slots for (reference, [candidates]) groups of tokens."""
    refs = [ref for ref, _ in groups]
    cands = [cand for _, group in groups for cand in group]
    ids, _ = _interned(*refs, *cands)
    cand_ref = np.repeat(np.arange(len(groups)), [len(group) for _, group in groups])
    return _pack(ids[:len(refs)]), _pack(ids[len(refs):]), cand_ref


def ordered_sum(values) -> float:
    """Floats added left to right to 0.0, as sum() adds them before Python 3.12
    (whose sum() is compensated, and so can differ in the last bit)."""
    total = 0.0
    for value in values:
        total += value
    return total


def ngrams(tokens, n: int) -> dict[tuple[str, ...], int]:
    """Multiset of contiguous n-token windows; empty when the sequence is shorter than n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    seq = tuple(tokens)
    counts: dict[tuple[str, ...], int] = {}
    for i in range(len(seq) - n + 1):
        gram = seq[i:i + n]
        counts[gram] = counts.get(gram, 0) + 1
    return counts


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


def pair_matches(cands, ref, top: int) -> list[list[int]]:
    """Each candidate's clipped matches per order 0..top, counted one pair at a time."""
    ref_grams = _grams(ref, range(1, top + 1))
    return [_matches(_grams(cand, range(1, top + 1)), ref_grams, top) for cand in cands]


def modified_precision(candidate, reference, n: int) -> tuple[int, int]:
    """Clipped n-gram matches and candidate n-gram total, through the
    window-counting oracles ``_grams`` and ``_matches``."""
    cand = tuple(candidate)
    matched = _matches(_grams(cand, (n,)), _grams(tuple(reference), (n,)), n)
    return matched[n], max(0, len(cand) - n + 1)


def oracle_bleu(candidate, reference, weights):
    """Direct-from-definition BLEU: explicit window enumeration and clipping."""
    if not candidate:
        return 0.0
    c, r = len(candidate), len(reference)
    bp = 1.0 if c >= r else math.exp(1 - r / c)
    log_sum = 0.0
    for n, w in enumerate(weights, start=1):
        if w == 0:
            continue
        cand_grams = Counter(tuple(candidate[i:i + n]) for i in range(c - n + 1))
        ref_grams = Counter(tuple(reference[i:i + n]) for i in range(r - n + 1))
        if not cand_grams and not ref_grams:
            continue
        matched = sum(min(k, ref_grams[g]) for g, k in cand_grams.items())
        total = sum(cand_grams.values())
        if total == 0 or matched == 0:
            return 0.0
        log_sum += w * math.log(matched / total)
    return bp * math.exp(log_sum)


def oracle_edit_distance(a, b):
    """Full-matrix Wagner-Fischer."""
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + (0 if a[i - 1] == b[j - 1] else 1),
            )
    return d[m][n]


# Per-pair scoring: every call counts both sides again. The batch scorer must
# equal these bit for bit.

def pair_bleu(candidate, reference, config):
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
        cand_grams = ngrams(cand, n)
        ref_grams = ngrams(ref, n)
        matched = sum(min(count, ref_grams.get(gram, 0)) for gram, count in cand_grams.items())
        total = sum(cand_grams.values())
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


def pair_char_grams(text, n):
    counts = {}
    for i in range(len(text) - n + 1):
        gram = text[i:i + n]
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def pair_chrf_orders(candidate, reference, max_n=6, beta=2.0):
    """The F-beta of each order 1..max_n that either whitespace-free text reaches."""
    cand = "".join(candidate.split())
    ref = "".join(reference.split())
    if not ref:
        raise MetricError("reference must be non-empty")
    beta_sq = beta * beta
    scores = []
    for n in range(1, max_n + 1):
        if len(cand) < n and len(ref) < n:
            continue
        cand_grams = pair_char_grams(cand, n)
        ref_grams = pair_char_grams(ref, n)
        matched = sum(min(c, ref_grams.get(g, 0)) for g, c in cand_grams.items())
        cand_total = sum(cand_grams.values())
        ref_total = sum(ref_grams.values())
        precision = matched / cand_total if cand_total else 0.0
        recall = matched / ref_total if ref_total else 0.0
        if precision == 0.0 and recall == 0.0:
            scores.append(0.0)
        else:
            scores.append((1 + beta_sq) * precision * recall / (beta_sq * precision + recall))
    return scores


def pair_chrf(candidate, reference, max_n=6, beta=2.0):
    scores = pair_chrf_orders(candidate, reference, max_n, beta)
    return ordered_sum(scores) / len(scores) if scores else 0.0


def pair_tfidf_vector(tokens, idf):
    counts = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    return {token: count * idf.idf(token) for token, count in counts.items()}


def pair_semantic_similarity(candidate, reference, idf):
    cand_vec = pair_tfidf_vector(candidate, idf)
    ref_vec = pair_tfidf_vector(reference, idf)
    if cand_vec == ref_vec:
        return 1.0 if cand_vec else 0.0
    dot = ordered_sum(weight * ref_vec.get(token, 0.0) for token, weight in cand_vec.items())
    norm_c = math.sqrt(ordered_sum(w * w for w in cand_vec.values()))
    norm_r = math.sqrt(ordered_sum(w * w for w in ref_vec.values()))
    if norm_c == 0.0 or norm_r == 0.0:
        return 0.0
    return min(1.0, max(0.0, dot / (norm_c * norm_r)))


def pair_score_tokens(cand_tokens, ref_tokens, config, idf):
    """TER reads the full-matrix oracle below, which the bit-parallel kernel equals exactly."""
    technical = BleuConfig(config.bleu_weights, config.smoothing_epsilon)
    uniform = BleuConfig(config.bleu_unif_weights, config.smoothing_epsilon)
    ref = tuple(ref_tokens)
    return MetricVector(
        bleu=pair_bleu(cand_tokens, ref, technical),
        bleu_unif=pair_bleu(cand_tokens, ref, uniform),
        chrf=pair_chrf("".join(cand_tokens), "".join(ref), config.chrf_max_n, config.chrf_beta),
        ter=oracle_edit_distance(tuple(cand_tokens), ref) / len(ref),
        semantic_similarity=pair_semantic_similarity(cand_tokens, ref, idf),
    )


def hexed(vector):
    return {name: value.hex() for name, value in asdict(vector).items()}


def random_pair(rng):
    alphabet = [chr(ord("a") + i) for i in range(rng.randint(1, 10))]
    cand = [rng.choice(alphabet) for _ in range(rng.randint(0, 15))]
    ref = [rng.choice(alphabet) for _ in range(rng.randint(1, 15))]
    return cand, ref


# ---------------------------------------------------------------- BLEU

def test_ngrams_examples():
    assert ngrams(["a", "b", "c"], 2) == {("a", "b"): 1, ("b", "c"): 1}
    assert ngrams(["a", "a", "a"], 1) == {("a",): 3}
    assert ngrams(["a", "b"], 3) == {}
    with pytest.raises(ValueError):
        ngrams(["a"], 0)


def test_modified_precision_examples():
    assert modified_precision(["a", "b", "c"], ["a", "b", "c", "d"], 1) == (3, 3)
    assert modified_precision(["a", "a", "a"], ["a"], 1) == (1, 3)
    assert modified_precision(["a", "b"], ["c", "d"], 2) == (0, 1)


def test_brevity_penalty_examples():
    assert brevity_penalty(5, 5) == 1.0
    assert brevity_penalty(3, 4) == pytest.approx(math.exp(1 - 4 / 3), abs=1e-12)
    assert brevity_penalty(0, 4) == 0.0
    with pytest.raises(MetricError):
        brevity_penalty(3, 0)


def test_bleu_worked_example():
    value = bleu(["太阳", "升", "起"], ["太阳", "升", "起", "了"], BleuConfig())
    assert value == pytest.approx(math.exp(1 - 4 / 3), abs=1e-9)


def test_bleu_identity_and_disjoint():
    tokens = ["这", "是", "一", "段", "文字"]
    assert bleu(tokens, tokens, BleuConfig()) == 1.0
    assert bleu(["x", "y"], ["a", "b"], BleuConfig()) == 0.0


def test_bleu_empty_reference_rejected():
    with pytest.raises(MetricError):
        bleu(["a"], [], BleuConfig())


def test_bleu_matches_oracle_on_200_random_pairs():
    rng = random.Random(1234)
    for _ in range(200):
        cand, ref = random_pair(rng)
        for weights in ((0.5, 0.5, 0.0, 0.0), (0.25, 0.25, 0.25, 0.25)):
            mine = bleu(cand, ref, BleuConfig(weights))
            assert mine == pytest.approx(oracle_bleu(cand, ref, weights), abs=1e-12)


def test_bleu_epsilon_smoothing():
    config = BleuConfig((0.5, 0.5, 0, 0), smoothing_epsilon=0.1)
    # unigram match, zero bigram matches: smoothed instead of collapsing to 0
    value = bleu(["a", "x"], ["a", "b"], config)
    expected = math.exp(0.5 * math.log(1 / 2) + 0.5 * math.log(0.1 / 1))
    assert value == pytest.approx(expected, abs=1e-12)
    assert bleu(["a", "x"], ["a", "b"], BleuConfig((0.5, 0.5, 0, 0))) == 0.0


def test_bleu_epsilon_above_one_is_rejected():
    # epsilon / total above one real match would lift BLEU past 1: 2.0 on this pair at 4.0
    for epsilon in (4.0, 1e400, float("nan")):
        with pytest.raises(MetricError, match="smoothing_epsilon must be > 0 and <= 1"):
            BleuConfig(smoothing_epsilon=epsilon)
        with pytest.raises(MetricError, match="smoothing_epsilon must be > 0 and <= 1"):
            score_pair("化学研究", "研究化学", config=ScoringConfig(smoothing_epsilon=epsilon))


def test_bleu_nan_weight_is_rejected():
    # NaN fails neither w < 0 nor |sum - 1| > 1e-9, and scored every BLEU as NaN
    for weights in ((math.nan, 0.5, 0.5, 0.0), (0.5, 0.5, 0.0, math.nan)):
        with pytest.raises(MetricError, match="weights must be non-negative"):
            BleuConfig(weights)


@given(st.lists(st.sampled_from("abcd"), max_size=8),
       st.lists(st.sampled_from("abcd"), min_size=1, max_size=8),
       st.lists(st.integers(0, 4), min_size=4, max_size=4),
       st.one_of(st.none(), st.floats(0.0, 2.0)))
@settings(max_examples=300)
@example(["a", "b"], ["b", "a"], [1, 1, 1, 1], 1.0)
@example(["a", "a", "a"], ["a"], [0, 1, 0, 0], 5e-324)  # epsilon / 2 underflows to 0.0
def test_bleu_lies_in_the_unit_interval_for_any_accepted_config(candidate, reference, parts,
                                                               epsilon):
    assume(sum(parts))
    weights = tuple(part / sum(parts) for part in parts)
    try:
        config = BleuConfig(weights, epsilon)
    except MetricError:
        assume(False)
    assert 0.0 <= bleu(candidate, reference, config) <= 1.0


def test_bleu_unif_below_technical_when_higher_orders_weaker():
    rng = random.Random(99)
    checked = 0
    for _ in range(400):
        cand, ref = random_pair(rng)
        if not cand:
            continue
        ps = []
        for n in range(1, 5):
            matched, total = modified_precision(cand, ref, n)
            ps.append(matched / total if total else None)
        if None in ps[:2] or ps[0] in (0, None) or ps[1] in (0, None):
            continue
        p3 = ps[2] if ps[2] is not None else 0.0
        p4 = ps[3] if ps[3] is not None else 0.0
        if p3 <= min(ps[0], ps[1]) and p4 <= min(ps[0], ps[1]):
            technical = bleu(cand, ref, BleuConfig())
            uniform = bleu(cand, ref, BleuConfig((0.25, 0.25, 0.25, 0.25)))
            assert uniform <= technical + 1e-12
            checked += 1
    assert checked > 50


@given(st.data())
@settings(max_examples=150)
def test_monotone_degradation(data):
    alphabet = st.sampled_from(["a", "b", "c", "d"])
    ref = data.draw(st.lists(alphabet, min_size=2, max_size=12))
    cand = list(ref)
    idx = data.draw(st.integers(0, len(cand) - 1))
    before_bleu = bleu(cand, ref, BleuConfig())
    before_chrf = chrf("".join(cand), "".join(ref))
    before_ter = ter(cand, ref)
    cand[idx] = "Z"  # fresh token never in the reference
    assert bleu(cand, ref, BleuConfig()) <= before_bleu + 1e-12
    assert chrf("".join(cand), "".join(ref)) <= before_chrf + 1e-12
    assert ter(cand, ref) >= before_ter - 1e-12


# ---------------------------------------------------------------- CHRF

def test_chrf_examples():
    assert chrf("同一段文字", "同一段文字") == 1.0
    assert chrf("abcd", "wxyz") == 0.0
    assert chrf("abce", "abcd", max_n=2, beta=2.0) == pytest.approx(
        (0.75 + 2 / 3) / 2, abs=1e-9
    )


def test_chrf_strips_whitespace():
    assert chrf("化学 工程", "化学工程") == 1.0


def test_chrf_identity_shorter_than_max_n():
    # orders longer than both sides drop out of the mean
    assert chrf("ab", "ab", max_n=6) == 1.0


def test_chrf_empty_reference():
    with pytest.raises(MetricError):
        chrf("abc", "   ")


# ---------------------------------------------------------------- TER

def test_ter_examples():
    assert ter(["a", "b", "c"], ["a", "b", "c"]) == 0.0
    assert ter(["a", "b", "x", "d", "e"], ["a", "b", "c", "d", "e"]) == pytest.approx(0.2)
    assert ter([], ["a", "b", "c", "d"]) == 1.0


def test_ter_matches_dp_oracle_exactly():
    rng = random.Random(4321)
    for _ in range(200):
        cand, ref = random_pair(rng)
        expected = oracle_edit_distance(cand, ref)
        assert _edit_distances(*packed_groups([(ref, [cand])])) == [expected]
        assert ter(cand, ref) == expected / len(ref)


TOKEN_POOL = ("a", "b", "c", "x", "的", "。", "，", "化学", "工程", "元素", "物质", "药品",
              "研究", "分析", "人工", "智能", "人工智能", "化学工程", "H2O", "Fe")


@st.composite
def long_token_pairs(draw):
    """Both sides 0-200 tokens over 1-20 tokens, so bit-vectors cross 64 and 128 bits."""
    alphabet = draw(st.lists(st.sampled_from(TOKEN_POOL), min_size=1, max_size=20, unique=True))
    sides = []
    for _ in range(2):
        size = draw(st.integers(0, 200))
        sides.append(draw(st.lists(st.sampled_from(alphabet), min_size=size, max_size=size)))
    return tuple(sides)


@given(long_token_pairs())
@settings(max_examples=200)
@example(([], []))
@example(([], ["化学"] * 70))
@example((["化学", "工程"] * 65, []))
@example((list(TOKEN_POOL) * 4, list(TOKEN_POOL) * 4))
@example((["的"] * 63, ["的"] * 64))
@example((["的"] * 129, ["的"] * 128))
@example((["的"] * 200, ["的"]))
def test_ter_matches_dp_oracle_across_word_boundaries(pair):
    cand, ref = pair
    if not ref:
        with pytest.raises(MetricError, match="reference must be non-empty"):
            ter(cand, ref)
        return
    expected = oracle_edit_distance(cand, ref)
    assert _edit_distances(*packed_groups([(ref, [cand])])) == [expected]
    assert ter(cand, ref) == expected / len(ref)


@st.composite
def long_token_batches(draw):
    """One to three references of 1-200 tokens, each with up to four candidates of 0-200."""
    groups = []
    for _ in range(draw(st.integers(1, 3))):
        ref, cand = draw(long_token_pairs())
        cands = [cand] + [draw(long_token_pairs())[0] for _ in range(draw(st.integers(0, 3)))]
        groups.append((ref or ["的"], cands))
    return groups


@given(long_token_batches())
@settings(max_examples=100)
@example([(["的"] * 64, [["的"] * 63, []]), (["化学"] * 128, [["化学"] * 200, ["的"] * 3]),
          (["的"], [["的"] * 65])])  # fields of one, two and three words, each filled to the top
def test_batched_edit_distances_equal_dp_oracle(groups):
    expected = [oracle_edit_distance(cand, ref) for ref, cands in groups for cand in cands]
    assert _edit_distances(*packed_groups(groups)) == expected


def test_ter_matches_dp_oracle_on_corpus_run():
    corpus = parse_corpus(FIXTURES / "corpora" / "cnki_che_89.jsonl")
    config = BackendConfig(id="noisy", kind="mock", model_name="noise",
                           drop_prob=0.1, swap_prob=0.05)
    matrices, records, _ = run_experiment(corpus, run_config([config], master_seed=7))
    assert len(records) == 89 and all(rec.error is None for rec in records)
    ter_matrix = matrices["ter"]
    longest = 0
    for rec in records:
        cand, ref = segment_words(rec.zhy), segment_words(rec.zhx)
        longest = max(longest, len(ref))
        expected = oracle_edit_distance(cand, ref)
        assert ter(cand, ref) == expected / len(ref)
        block = ter_matrix.block_ids.index(rec.sample_id)
        assert ter_matrix.values[block, 0, 0] == expected / len(ref)
    assert longest > 64  # at least one bit-vector is wider than 64 bits


def test_ter_denominator_symmetry():
    rng = random.Random(777)
    for _ in range(50):
        cand, ref = random_pair(rng)
        if not cand:
            continue
        assert ter(cand, ref) * len(ref) == pytest.approx(ter(ref, cand) * len(cand))


# ---------------------------------------------------------------- TF-IDF

def test_fit_idf_examples():
    model = fit_idf([["a", "b"], ["c", "d"]])
    assert model.document_frequency == {"a": 1, "b": 1, "c": 1, "d": 1}
    everywhere = fit_idf([["t"], ["t", "x"], ["t", "y"]])
    assert everywhere.idf("t") == pytest.approx(1.0)
    four_docs = fit_idf([["a"], ["a", "b"], ["c"], ["d"]])
    assert four_docs.idf("a") == pytest.approx(math.log(5 / 3) + 1, abs=1e-9)


def test_fit_idf_requires_two_documents():
    with pytest.raises(MetricError):
        fit_idf([["only"]])


def test_semantic_similarity_examples():
    idf = fit_idf([["a", "b"], ["a", "c"]])
    assert semantic_similarity(["a", "b"], ["a", "b"], idf) == 1.0
    assert semantic_similarity(["a", "b"], ["x", "y"], idf) == 0.0


def test_semantic_similarity_uniform_idf_halfway():
    # hand-computed 3-dimensional cosine with equal idf weights
    uniform = fit_idf([["a", "b", "c"], ["a", "b", "c"]])
    assert uniform.idf("a") == uniform.idf("b") == uniform.idf("c")
    value = semantic_similarity(["a", "b"], ["a", "c"], uniform)
    assert value == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------- score_pair

def test_score_pair_identity_extremes(hua_yao_original):
    vector = score_pair(hua_yao_original, hua_yao_original)
    assert (vector.bleu, vector.bleu_unif, vector.chrf, vector.ter,
            vector.semantic_similarity) == (1.0, 1.0, 1.0, 0.0, 1.0)


@given(st.text(alphabet="化学工程元素物质药品研究分析", min_size=1, max_size=20))
@settings(max_examples=100)
def test_score_pair_identity_property(text):
    vector = score_pair(text, text)
    assert vector.bleu == 1.0
    assert vector.bleu_unif == 1.0
    assert vector.chrf == 1.0
    assert vector.ter == 0.0
    assert vector.semantic_similarity == 1.0


def test_score_pair_ranges():
    rng = random.Random(31)
    lexicon = Lexicon({"化学": 10, "工程": 10, "研究": 5})
    vocab = "化学工程研究药品分析实验"
    for _ in range(50):
        a = "".join(rng.choice(vocab) for _ in range(rng.randint(1, 18)))
        b = "".join(rng.choice(vocab) for _ in range(rng.randint(1, 18)))
        v = score_pair(a, b, lexicon)
        assert 0.0 <= v.bleu <= 1.0
        assert 0.0 <= v.bleu_unif <= 1.0
        assert 0.0 <= v.chrf <= 1.0
        assert 0.0 <= v.semantic_similarity <= 1.0
        assert v.ter >= 0.0


@given(st.text(alphabet="化学工程元素 \t\u3000\x1c\xa0药品", min_size=1, max_size=20),
       st.text(alphabet="化学工程元素 \t\u3000\x1c\xa0药品", max_size=20),
       st.sampled_from(["word", "character"]))
@settings(max_examples=200)
def test_score_pair_chrf_equals_chrf_over_raw_texts(original, candidate, level):
    # score_pair reads chrF from the joined tokens; only whitespace may differ
    assume(original.strip())
    vector = score_pair(original, candidate, config=ScoringConfig(level=level))
    assert vector.chrf == chrf(candidate, original)


def test_score_pair_rejects_empty_original():
    with pytest.raises(MetricError):
        score_pair("   ", "something")


def test_scoring_config_round_trip():
    config = ScoringConfig(chrf_max_n=4, smoothing_epsilon=0.01)
    manifest_json = json.loads(json.dumps(asdict(config)))  # as a run manifest stores it
    assert config_from_json(ScoringConfig, manifest_json, "scoring") == config


def test_bleu_config_validation():
    with pytest.raises(MetricError):
        BleuConfig((0.5, 0.5))  # not 4 weights
    with pytest.raises(MetricError):
        BleuConfig((0.5, 0.5, 0.5, 0.5))  # sum != 1
    with pytest.raises(MetricError):
        BleuConfig((-0.5, 1.5, 0.0, 0.0))


def test_ter_upper_bound():
    rng = random.Random(6)
    for _ in range(100):
        cand, ref = random_pair(rng)
        assert ter(cand, ref) <= max(1.0, len(cand) / len(ref)) + 1e-12


# ------------------------------------------------- batch scorer

PREPARED_CONFIGS = {
    "default": ScoringConfig(),
    "epsilon": ScoringConfig(smoothing_epsilon=0.1),
    "character": ScoringConfig(level=CHARACTER),
    "chrf-1": ScoringConfig(chrf_max_n=1),
    "chrf-8": ScoringConfig(chrf_max_n=8, chrf_beta=1.0),
    "high-orders": ScoringConfig(bleu_weights=(0, 0, 0.5, 0.5),
                                 bleu_unif_weights=(0, 0.5, 0, 0.5)),
    "high-orders-epsilon": ScoringConfig(bleu_weights=(0, 0, 0.5, 0.5), smoothing_epsilon=0.5),
}

# few distinct tokens, so grams repeat; "a b" carries whitespace that chrF strips
PREPARED_POOL = ("a", "b", "ab", "的", "化学", "工程", "化学工程", "a b")


def at_level(level, words):
    """The scoring tokens of a word sequence: its whitespace-free characters at
    the character level, the words themselves otherwise."""
    return list("".join(words).replace(" ", "")) if level == CHARACTER else list(words)


@st.composite
def word_case(draw):
    """A config, and one reference and several candidates as words, including
    the empty one, ones shorter than every order, one sharing only a prefix,
    and the reference itself."""
    config = PREPARED_CONFIGS[draw(st.sampled_from(sorted(PREPARED_CONFIGS)))]
    tokens = st.sampled_from(PREPARED_POOL)
    ref = draw(st.lists(tokens, min_size=1, max_size=30))
    cands = draw(st.lists(st.lists(tokens, max_size=30), min_size=1, max_size=5))
    cands += [[], ref[:1], ref[:3], list(ref), ref + ref[:2]]
    return config, ref, cands


@st.composite
def reference_and_candidates(draw):
    """A word case's reference and candidates at its config's scoring level."""
    config, ref, cands = draw(word_case())
    return config, at_level(config.level, ref), [at_level(config.level, c) for c in cands]


@st.composite
def batches(draw):
    """One to four (reference words, [candidate words]) groups, scored as one
    batch at the first one's config."""
    cases = [draw(word_case()) for _ in range(draw(st.integers(1, 4)))]
    return cases[0][0], [(ref, cands) for _, ref, cands in cases]


def at_scoring_level(config, groups):
    return [(at_level(config.level, ref), [at_level(config.level, c) for c in cands])
            for ref, cands in groups]


def score_groups(config, groups, idf):
    """_score over (reference words, [candidate words]) groups at the config's
    level, with the IdfModel idf over the scoring tokens."""
    refs = [ref for ref, _ in groups]
    cands = [cand for _, group in groups for cand in group]
    cand_ref = np.repeat(np.arange(len(groups)), [len(group) for _, group in groups])

    def packed(seqs):
        return _pack(seqs[:len(refs)]), _pack(seqs[len(refs):])

    tokens, vocab = _interned(*(at_level(config.level, seq) for seq in refs + cands))
    words, _ = _interned(*refs, *cands)
    chars = [_text_points(seq) for seq in refs + cands]
    return _score(packed(tokens), packed(chars), packed(words), cand_ref, config,
                  _idf_of(idf, vocab))


def batched_matches(groups, top):
    """_clipped_matches over (reference, [candidates]) groups of token sequences."""
    return _clipped_matches(*packed_groups(groups), top)


@given(batches())
@settings(max_examples=300)
def test_batch_scorer_equals_per_pair_oracles(case):
    config, groups = case
    scoring = at_scoring_level(config, groups)
    idf = fit_idf([ref for ref, _ in scoring] + [c for _, cands in scoring for c in cands])
    scored = iter(score_groups(config, groups, idf))
    for (ref, cands), (ref_tokens, cand_tokens) in zip(groups, scoring):
        for cand, tokens in zip(cands, cand_tokens):
            vector, similarity = next(scored)
            expected = hexed(pair_score_tokens(tokens, ref_tokens, config, idf))
            assert hexed(vector) == expected
            assert hexed(score_groups(config, [(ref, [cand])], idf)[0][0]) == expected
            # the verbatim similarity reads the words at either level
            assert similarity.hex() == pair_bleu(cand, ref, BleuConfig()).hex()
    assert next(scored, None) is None


@given(batches())
@settings(max_examples=300)
def test_batched_matches_equal_per_pair_clipping(case):
    config, groups = case
    groups = at_scoring_level(config, groups)
    words = batched_matches(groups, 4)
    assert words.shape == (sum(len(cands) for _, cands in groups), 5)
    expected = [row for ref, cands in groups
                for row in pair_matches([tuple(c) for c in cands], tuple(ref), 4)]
    assert words.tolist() == expected
    top = config.chrf_max_n
    texts = [("".join("".join(ref).split()), ["".join("".join(c).split()) for c in cands])
             for ref, cands in groups]
    chars = batched_matches(texts, top)
    assert chars.tolist() == [row for ref, group in texts for row in pair_matches(group, ref, top)]


@pytest.mark.parametrize("ref, cands, top", [
    ("abc", ["xyz", "axbxc", "", "zzzzzz"], 3),  # symbols absent from the reference
    ("aab", ["aaaa", "aabaab", "ab" * 5], 3),  # repeated n-grams clipped to the reference count
    (("的", "的", "化学"), [("的",) * 4, ("化学", "的", "的", "的")], 4),
    ("𠀀𝄞a𠀀𝄞", ["𝄞a𠀀", "𠀀𠀀𝄞𝄞", "a\U0002A6D6"], 4),  # characters beyond the BMP
    ("abcab", ["abcab", "cabca", "b"], 1),
    ("abc", ["abc", "abcabc", "cba"], 8),  # orders longer than the reference
    ("abc", [], 6),
], ids=["absent-symbols", "clipped-repeats", "word-tokens", "non-bmp", "order-1",
        "orders-past-reference", "no-candidates"])
def test_batched_matches_examples(ref, cands, top):
    matched = batched_matches([(ref, cands)], top)
    assert matched.shape == (len(cands), top + 1)
    assert matched.tolist() == pair_matches(cands, ref, top)


def test_batched_matches_never_span_two_candidates():
    matched = batched_matches([("abcd", ["ab", "cd"])], 4).tolist()
    assert matched == [[0, 2, 1, 0, 0], [0, 2, 1, 0, 0]]
    assert matched == pair_matches(["ab", "cd"], "abcd", 4)
    # the same symbols as one candidate do match at orders 3 and 4
    assert batched_matches([("abcd", ["abcd"])], 4).tolist() == [[0, 4, 3, 2, 1]]


def test_batched_matches_never_cross_references():
    # each candidate is clipped against its own reference only
    groups = [("ab", ["ab", "cd"]), ("cd", ["ab"]), ("abcd", ["cd", "abcd"])]
    expected = [row for ref, cands in groups for row in pair_matches(cands, ref, 4)]
    assert batched_matches(groups, 4).tolist() == expected
    assert expected[:3] == [[0, 2, 1, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]]


@given(reference_and_candidates())
@settings(max_examples=200)
def test_public_metrics_equal_per_pair_oracles(case):
    config, ref, cands = case
    idf = fit_idf([ref] + cands)
    weighting = BleuConfig(config.bleu_weights, config.smoothing_epsilon)
    ref_text = " ".join(ref)
    for cand in cands:
        assert bleu(cand, ref, weighting).hex() == pair_bleu(cand, ref, weighting).hex()
        cand_text = " ".join(cand)
        assert (chrf(cand_text, ref_text, config.chrf_max_n, config.chrf_beta).hex()
                == pair_chrf(cand_text, ref_text, config.chrf_max_n, config.chrf_beta).hex())
        assert (semantic_similarity(cand, ref, idf).hex()
                == pair_semantic_similarity(cand, ref, idf).hex())
        # an empty reference vector scores 0 against anything
        assert semantic_similarity(cand, [], idf) == pair_semantic_similarity(cand, [], idf)
        for n in range(1, 5):
            cand_grams, ref_grams = ngrams(cand, n), ngrams(ref, n)
            assert modified_precision(cand, ref, n) == (
                sum(min(c, ref_grams.get(g, 0)) for g, c in cand_grams.items()),
                sum(cand_grams.values()))


def test_batch_scorer_rejects_empty_reference():
    idf = fit_idf([["a"], ["b"]])
    for ref in ([], [" "]):
        with pytest.raises(MetricError, match="reference must be non-empty"):
            score_groups(ScoringConfig(), [(ref, [["a"]])], idf)
        # one empty reference anywhere in a batch
        with pytest.raises(MetricError, match="reference must be non-empty"):
            score_groups(ScoringConfig(), [(["a"], [["a"]]), (ref, [["b"]])], idf)
    with pytest.raises(MetricError, match="reference must be non-empty"):
        next(score_run(["a", " "], [("a", ["a"]), (" ", ["b"])], ScoringConfig(), Segmenter()))


@pytest.mark.parametrize("level", [WORD, CHARACTER])
def test_score_run_verbatim_similarity_is_word_bleu_at_either_level(level):
    originals = [s.text for s in parse_corpus(FIXTURES / "corpora" / "cnki_che_89.jsonl")][:6]
    groups = [(text, [text, text[::-1], text[:len(text) // 2], text[3:] + text[:3]])
              for text in originals]
    scored = score_run(originals, groups, ScoringConfig(level=level), Segmenter())
    word_bleus, char_bleus = [], []
    for ref, cands in groups:
        for cand in cands:
            _, similarity = next(scored)
            word_bleus.append(pair_bleu(segment_words(cand), segment_words(ref), BleuConfig()))
            char_bleus.append(pair_bleu(segment_chars(cand), segment_chars(ref), BleuConfig()))
            assert similarity.hex() == word_bleus[-1].hex()
    assert next(scored, None) is None
    assert word_bleus != char_bleus  # the two levels' BLEU tell apart


def test_scores_sum_left_to_right_on_every_interpreter():
    # Inputs whose left-to-right float sums differ from the exactly rounded ones,
    # which Python 3.12's compensated sum() comes close to: the scores must keep
    # the left-to-right value, so a run's bytes do not depend on the interpreter.
    idf = IdfModel(document_count=10, document_frequency={
        "a": 0, "b": 4, "c": 0, "d": 1, "e": 1, "f": 9, "g": 8, "h": 0})
    cand, ref = list("aeg"), list("gbaagfed")
    cand_vec, ref_vec = pair_tfidf_vector(cand, idf), pair_tfidf_vector(ref, idf)
    dot = [w * ref_vec.get(t, 0.0) for t, w in cand_vec.items()]
    norms = [[w * w for w in vec.values()] for vec in (cand_vec, ref_vec)]
    exact = math.fsum(dot) / (math.sqrt(math.fsum(norms[0])) * math.sqrt(math.fsum(norms[1])))
    assert semantic_similarity(cand, ref, idf) == 0.876946638593102 != exact
    assert semantic_similarity(cand, ref, idf) == pair_semantic_similarity(cand, ref, idf)

    cand_text, ref_text = "aadccbddc", "aadab"
    orders = pair_chrf_orders(cand_text, ref_text)
    assert chrf(cand_text, ref_text) == 0.22824662230288364 == ordered_sum(orders) / 6
    assert math.fsum(orders) / 6 == 0.2282466223028837


@pytest.mark.parametrize("max_n, beta, message, scoring_message", [
    (0, 2.0, "chrf_max_n must be an integer >= 1, not 0", None),
    (-1, 2.0, "chrf_max_n must be an integer >= 1, not -1", None),
    (MAX_CHRF_ORDER + 1, 2.0, f"chrf_max_n must be <= {MAX_CHRF_ORDER}, not {MAX_CHRF_ORDER + 1}",
     None),
    (6, 0.0, "chrf_beta must be > 0 with a finite square, not 0.0", None),
    (6, -2.0, "chrf_beta must be > 0 with a finite square, not -2.0", None),
    (6, 1e200, "chrf_beta must be > 0 with a finite square, not 1e+200", None),
    (6, 10 ** 200, f"chrf_beta must be > 0 with a finite square, not {10 ** 200}", None),
    # a value of the wrong type fails the field type check, by the rules of jsonio
    (2.5, 2.0, "chrf 'max_n' must be int, got 2.5", "scoring 'chrf_max_n' must be int, got 2.5"),
    (True, 2.0, "chrf 'max_n' must be int, got True",
     "scoring 'chrf_max_n' must be int, got True"),
    (6, "2", "chrf 'beta' must be a number, got '2'",
     "scoring 'chrf_beta' must be a number, got '2'"),
    (6, True, "chrf 'beta' must be a number, got True",
     "scoring 'chrf_beta' must be a number, got True"),
], ids=["max-n-0", "max-n-negative", "max-n-past-cap", "beta-0", "beta-negative",
        "beta-square-inf", "beta-int-square-past-float", "max-n-float", "max-n-bool",
        "beta-str", "beta-bool"])
def test_chrf_orders_outside_one_through_max_n(max_n, beta, message, scoring_message):
    # the public chrf follows ScoringConfig's rules: max_n 0 would leave no order to average
    with pytest.raises(MetricError, match=re.escape(message)):
        chrf("abc", "abc", max_n=max_n, beta=beta)
    with pytest.raises(MetricError, match=re.escape(scoring_message or message)):
        ScoringConfig(chrf_max_n=max_n, chrf_beta=beta)


@pytest.mark.parametrize("config", [ScoringConfig(), ScoringConfig(level=CHARACTER)],
                         ids=["word", "character"])
def test_run_experiment_scores_equal_per_pair_oracles(config):
    corpus = parse_corpus(FIXTURES / "corpora" / "cnki_che_89.jsonl")
    backend = BackendConfig(id="noisy", kind="mock", model_name="noise",
                            drop_prob=0.1, swap_prob=0.05)
    run = run_config([backend], 2, scoring=config, master_seed=11)
    matrices, records, _ = run_experiment(corpus, run)
    assert all(rec.error is None for rec in records)
    segment = segment_chars if config.level == CHARACTER else segment_words
    tokens = {text: segment(text)
              for text in [s.text for s in corpus] + [rec.zhy for rec in records]}
    idf = fit_idf([tokens[s.text] for s in corpus] + [tokens[rec.zhy] for rec in records])
    blocks = {s.id: i for i, s in enumerate(corpus)}
    for rec in records:
        expected = hexed(pair_score_tokens(tokens[rec.zhy], tokens[rec.zhx], config, idf))
        cell = (blocks[rec.sample_id], 0, rec.repetition - 1)
        assert {name: float(m.values[cell]).hex() for name, m in matrices.items()} == expected
