"""Metric implementations against brute-force counting oracles."""

import math
import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bteval.metrics import (
    BleuConfig,
    MetricError,
    MetricVector,
    PreparedReference,
    ScoringConfig,
    _grams,
    _matches,
    bleu,
    brevity_penalty,
    chrf,
    edit_distance,
    fit_idf,
    score_pair,
    score_tokens,
    semantic_similarity,
    ter,
)
from bteval.corpus import parse_corpus
from bteval.pipeline import BackendConfig, run_experiment
from bteval.segmentation import CHARACTER, Lexicon, tokenize

from conftest import FIXTURES


# ---------------------------------------------------------------- oracles

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


def modified_precision(candidate, reference, n: int) -> tuple[int, int]:
    """Clipped n-gram matches and candidate n-gram total, through the scorers'
    private kernels ``_grams`` and ``_matches``."""
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


# The per-pair scoring the prepared reference replaced: every call counts
# both sides again. The prepared path must equal these bit for bit.

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


def pair_chrf(candidate, reference, max_n=6, beta=2.0):
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
    return sum(scores) / len(scores) if scores else 0.0


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
    dot = sum(weight * ref_vec.get(token, 0.0) for token, weight in cand_vec.items())
    norm_c = math.sqrt(sum(w * w for w in cand_vec.values()))
    norm_r = math.sqrt(sum(w * w for w in ref_vec.values()))
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
    return {name: value.hex() for name, value in vector.as_dict().items()}


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
@settings(max_examples=150, deadline=None)
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
        assert edit_distance(cand, ref) == oracle_edit_distance(cand, ref)
        assert ter(cand, ref) == oracle_edit_distance(cand, ref) / len(ref)


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
@settings(max_examples=200, deadline=None)
@example(([], []))
@example(([], ["化学"] * 70))
@example((["化学", "工程"] * 65, []))
@example((list(TOKEN_POOL) * 4, list(TOKEN_POOL) * 4))
@example((["的"] * 63, ["的"] * 64))
@example((["的"] * 129, ["的"] * 128))
@example((["的"] * 200, ["的"]))
def test_edit_distance_matches_dp_oracle_across_word_boundaries(pair):
    cand, ref = pair
    expected = oracle_edit_distance(cand, ref)
    assert edit_distance(cand, ref) == expected
    if ref:
        assert ter(cand, ref) == expected / len(ref)


def test_edit_distance_matches_dp_oracle_on_corpus_run():
    corpus = parse_corpus(FIXTURES / "corpora" / "cnki_che_89.jsonl")
    config = BackendConfig(id="noisy", kind="mock", model_name="noise",
                           drop_prob=0.1, swap_prob=0.05)
    matrices, records, _ = run_experiment(corpus, [config], r=1, master_seed=7)
    assert len(records) == 89 and all(rec.error is None for rec in records)
    ter_matrix = matrices["ter"]
    longest = 0
    for rec in records:
        cand, ref = tokenize(rec.zhy), tokenize(rec.zhx)
        longest = max(longest, len(ref))
        expected = oracle_edit_distance(cand, ref)
        assert edit_distance(cand, ref) == expected
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
@settings(max_examples=100, deadline=None)
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
@settings(max_examples=200, deadline=None)
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
    assert ScoringConfig.from_dict(config.as_dict()) == config


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


# ------------------------------------------------- prepared reference

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


@st.composite
def reference_and_candidates(draw):
    """One reference and several candidates, including the empty one, ones shorter
    than every order, one sharing only a prefix, and the reference itself."""
    config = PREPARED_CONFIGS[draw(st.sampled_from(sorted(PREPARED_CONFIGS)))]
    tokens = st.sampled_from(PREPARED_POOL)
    ref = draw(st.lists(tokens, min_size=1, max_size=30))
    cands = draw(st.lists(st.lists(tokens, max_size=30), min_size=1, max_size=5))
    cands += [[], ref[:1], ref[:3], list(ref), ref + ref[:2]]
    if config.level == CHARACTER:
        ref = list("".join(ref).replace(" ", ""))
        cands = [list("".join(c).replace(" ", "")) for c in cands]
    return config, ref, cands


@given(reference_and_candidates())
@settings(max_examples=300, deadline=None)
def test_prepared_reference_equals_per_pair_oracles(case):
    config, ref, cands = case
    idf = fit_idf([ref] + cands)
    prepared = PreparedReference(ref, config, idf)
    for cand in cands:
        expected = hexed(pair_score_tokens(cand, ref, config, idf))
        assert hexed(prepared.score(cand)) == expected
        assert hexed(score_tokens(cand, ref, config, idf)) == expected


@given(reference_and_candidates())
@settings(max_examples=200, deadline=None)
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


def test_prepared_reference_rejects_empty_reference():
    idf = fit_idf([["a"], ["b"]])
    for ref in ([], [" "]):
        with pytest.raises(MetricError, match="reference must be non-empty"):
            PreparedReference(ref, ScoringConfig(), idf)


def test_chrf_orders_outside_one_through_max_n():
    # max_n below 1 leaves no order to average
    assert chrf("abc", "abc", max_n=0) == pair_chrf("abc", "abc", max_n=0) == 0.0


@pytest.mark.parametrize("config", [ScoringConfig(), ScoringConfig(level=CHARACTER)],
                         ids=["word", "character"])
def test_run_experiment_scores_equal_per_pair_oracles(config):
    corpus = parse_corpus(FIXTURES / "corpora" / "cnki_che_89.jsonl")
    backend = BackendConfig(id="noisy", kind="mock", model_name="noise",
                            drop_prob=0.1, swap_prob=0.05)
    matrices, records, _ = run_experiment(corpus, [backend], r=2, scoring=config, master_seed=11)
    assert all(rec.error is None for rec in records)
    tokens = {text: tokenize(text, config.level)
              for text in [s.text for s in corpus] + [rec.zhy for rec in records]}
    idf = fit_idf([tokens[s.text] for s in corpus] + [tokens[rec.zhy] for rec in records])
    blocks = {s.id: i for i, s in enumerate(corpus)}
    for rec in records:
        expected = hexed(pair_score_tokens(tokens[rec.zhy], tokens[rec.zhx], config, idf))
        cell = (blocks[rec.sample_id], 0, rec.repetition - 1)
        assert {name: float(m.values[cell]).hex() for name, m in matrices.items()} == expected
