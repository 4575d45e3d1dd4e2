"""Word/character segmentation against a brute-force route oracle."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from bteval.corpus import parse_corpus
from bteval.segmentation import (
    Lexicon,
    LexiconError,
    TokenList,
    DEFAULT_TRADITIONAL_THRESHOLD,
    default_lexicon,
    default_variant_table,
    detect_traditional,
    load_lexicon,
    load_variant_table,
    segment_chars,
    segment_words,
)

from conftest import FIXTURES


def oracle_log_prob(lexicon: Lexicon):
    """Word weight computed from lexicon.entries alone, so the oracles do not
    read the segmenter's table: log(f) - log(total) for an entry, the floor
    -log(total) for anything else."""
    entries = lexicon.entries
    log_total = math.log(sum(entries.values()))

    def log_prob(word: str) -> float:
        f = entries.get(word, 0)
        return math.log(f) - log_total if f > 0 else -log_total

    return log_prob


def route_score(tokens, lexicon: Lexicon) -> float:
    """Summed log-probability of a token route under a lexicon."""
    return sum(map(oracle_log_prob(lexicon), tokens))


def with_entry(lexicon: Lexicon, surface: str, frequency: int) -> Lexicon:
    """The lexicon with `frequency` added to `surface`'s count."""
    merged = dict(lexicon.entries)
    merged[surface] = merged.get(surface, 0) + frequency
    return Lexicon(merged)


def brute_force_best_route(text: str, lexicon: Lexicon):
    """Enumerate every valid segmentation (entries or single-char fallback),
    maximize summed log-probability, prefer the longer first token on ties."""
    n = len(text)
    best = None
    log_prob = oracle_log_prob(lexicon)

    def walk(i, tokens, score):
        nonlocal best
        if i == n:
            key = (score, tuple(len(t) for t in tokens))
            # lexicographic tie-break on token lengths = longer first token wins
            if best is None or key > best[0]:
                best = (key, list(tokens))
            return
        for j in range(i + 1, n + 1):
            word = text[i:j]
            if j == i + 1 or word in lexicon.entries:
                walk(j, tokens + [word], score + log_prob(word))

    walk(0, [], 0.0)
    assert best is not None
    return best[1]


def test_worked_example_prefers_whole_word(tiny_lexicon):
    # log(100/200) beats log(50/200) + log(50/200)
    assert segment_words("人工智能", tiny_lexicon).tokens == ("人工智能",)
    assert brute_force_best_route("人工智能", tiny_lexicon) == ["人工智能"]


def test_single_oov_character_falls_back(tiny_lexicon):
    assert segment_words("药", tiny_lexicon).tokens == ("药",)


def test_empty_text(tiny_lexicon):
    assert segment_words("", tiny_lexicon).tokens == ()
    assert segment_chars("").tokens == ()


def test_char_level_examples():
    assert segment_chars("化学 工程").tokens == ("化", "学", "工", "程")
    assert segment_chars("AI药物").tokens == ("A", "I", "药", "物")
    # oracle: scalar values of the string minus whitespace
    text = "AI药物 x"
    assert segment_chars(text).tokens == tuple(c for c in text if not c.isspace())


@pytest.mark.parametrize("seed", range(30))
def test_dp_matches_brute_force_on_short_texts(seed):
    import random

    rng = random.Random(seed)
    alphabet = "甲乙丙丁戊己庚辛"
    words = {}
    for _ in range(rng.randint(2, 10)):
        length = rng.randint(1, 3)
        word = "".join(rng.choice(alphabet) for _ in range(length))
        words[word] = rng.randint(1, 500)
    lexicon = Lexicon(words)
    text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
    dp_tokens = list(segment_words(text, lexicon).tokens)
    oracle_tokens = brute_force_best_route(text, lexicon)
    assert route_score(dp_tokens, lexicon) == pytest.approx(
        route_score(oracle_tokens, lexicon), abs=1e-12
    )
    assert dp_tokens == oracle_tokens  # including the tie-break


@given(st.text(alphabet="化学工程人智能药 \t", min_size=0, max_size=40))
@settings(max_examples=200, deadline=None)
def test_lossless_coverage(text):
    lexicon = Lexicon({"化学": 100, "工程": 80, "人工智能": 50, "智能": 30, "药": 5})
    tokens = segment_words(text, lexicon)
    assert "".join(tokens) == "".join(text.split())
    chars = segment_chars(text)
    assert len(chars) == sum(1 for c in text if not c.isspace())


def two_pass_segment_chunk(chunk: str, lexicon: Lexicon) -> list[str]:
    """The earlier segmenter, kept as an oracle: build the DAG of lexicon
    matches first (every substring that is an entry, no prefix index), then
    run the right-to-left DP over it."""
    n = len(chunk)
    dag = [[j for j in range(i + 1, n + 1) if chunk[i:j] in lexicon.entries] or [i + 1]
           for i in range(n)]

    log_prob = oracle_log_prob(lexicon)
    route: list[tuple[float, int]] = [(0.0, 0)] * (n + 1)
    for i in range(n - 1, -1, -1):
        best = None
        for j in dag[i]:
            cand = (log_prob(chunk[i:j]) + route[j][0], j)
            if best is None or cand > best:
                best = cand
        route[i] = best

    tokens = []
    i = 0
    while i < n:
        j = route[i][1]
        tokens.append(chunk[i:j])
        i = j
    return tokens


# Few letters and frequencies from a small range, or all equal, so that routes
# tie on score; 丁 is in no lexicon, so the lone-character fallback runs too.
WORDS = st.text(alphabet="甲乙丙", min_size=1, max_size=3)
SMALL_LEXICONS = st.one_of(
    st.dictionaries(WORDS, st.integers(1, 3), min_size=1, max_size=12),
    st.lists(WORDS, min_size=1, max_size=12).map(lambda words: dict.fromkeys(words, 7)),
)


@given(SMALL_LEXICONS, st.text(alphabet="甲乙丙丁 ", max_size=30))
@example({"甲乙": 7, "丙": 7, "甲": 7, "乙丙": 7}, "甲乙丙")  # equal routes: longer first token
@example({"甲乙": 1, "乙丙": 1, "甲": 1}, "甲乙丙")  # a frequency-1 entry ties the fallback
@settings(max_examples=500, deadline=None)
def test_segment_words_matches_two_pass_oracle(entries, text):
    lexicon = Lexicon(entries)
    expected = [t for chunk in text.split() for t in two_pass_segment_chunk(chunk, lexicon)]
    assert list(segment_words(text, lexicon).tokens) == expected


def test_segment_words_matches_two_pass_oracle_on_corpus():
    lexicon = default_lexicon()
    for sample in parse_corpus(FIXTURES / "corpora" / "cnki_che_89.jsonl"):
        expected = [t for chunk in sample.text.split()
                    for t in two_pass_segment_chunk(chunk, lexicon)]
        assert list(segment_words(sample.text, lexicon).tokens) == expected


@pytest.mark.parametrize("seed", range(20))
def test_adding_entry_never_worsens_route_score(seed):
    # compare both routes under the grown lexicon; the total changes, so
    # scores are only comparable within one lexicon
    import random

    rng = random.Random(1000 + seed)
    alphabet = "甲乙丙丁"
    lexicon = Lexicon({"甲乙": 40, "丙": 10})
    text = "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 8)))
    old_route = segment_words(text, lexicon).tokens
    i = rng.randrange(len(text))
    j = rng.randint(i + 1, min(len(text), i + 3))
    grown = with_entry(lexicon, text[i:j], rng.randint(1, 100))
    new_route = segment_words(text, grown).tokens
    assert route_score(new_route, grown) >= route_score(old_route, grown) - 1e-12


def test_load_lexicon(tmp_path):
    path = tmp_path / "dict.txt"
    path.write_text("人工智能 100 n\n智能 50\n人工智能 20 v\n", encoding="utf-8")
    lexicon = load_lexicon(path)
    assert lexicon.entries == {"人工智能": 120, "智能": 50}  # duplicate surfaces sum
    assert sum(lexicon.entries.values()) == 170
    assert any(surface.startswith("人工") for surface in lexicon.entries)


def test_lexicon_table_matches_entries():
    lexicon = default_lexicon()
    total = sum(lexicon.entries.values())
    assert lexicon.log_probs == {w: math.log(f) - math.log(total)
                                 for w, f in lexicon.entries.items()}
    assert lexicon.floor == -math.log(total)
    assert lexicon.prefixes == {w[:i] for w in lexicon.entries for i in range(1, len(w) + 1)}


@pytest.mark.parametrize("entries", [{}, {"甲": 0}, {"甲": -3, "乙": 5}])
def test_lexicon_rejects_empty_or_non_positive(entries):
    with pytest.raises(LexiconError):
        Lexicon(entries)


def test_load_lexicon_rejects_bad_lines(tmp_path):
    bad_freq = tmp_path / "bad.txt"
    bad_freq.write_text("智能 -5\n", encoding="utf-8")
    with pytest.raises(LexiconError, match="non-positive"):
        load_lexicon(bad_freq)
    malformed = tmp_path / "malformed.txt"
    malformed.write_text("只有一列\n", encoding="utf-8")
    with pytest.raises(LexiconError, match="line 1"):
        load_lexicon(malformed)


@pytest.mark.parametrize("load", [load_lexicon, load_variant_table])
def test_loaders_reject_files_that_are_not_utf8(tmp_path, load):
    path = tmp_path / "gbk.txt"
    path.write_bytes("智能 5\n".encode("gbk"))
    with pytest.raises(LexiconError, match=r"gbk\.txt: not UTF-8"):
        load(path)


def test_detect_traditional_fixture_strings():
    ratio, flagged = detect_traditional("元素觀點：物質由元素組成")
    assert flagged
    assert ratio > 0.3
    ratio, flagged = detect_traditional("元素观点：物质由元素组成")
    assert ratio == 0.0 and not flagged
    ratio, flagged = detect_traditional("ABC 123")
    assert ratio == 0.0 and not flagged


def test_detect_traditional_threshold():
    table = {"觀": "观"}
    text = "觀" + "点" * 99
    ratio, flagged = detect_traditional(text, table, threshold=0.05)
    assert ratio == pytest.approx(0.01)
    assert not flagged
    _, flagged = detect_traditional(text, table, threshold=0.005)
    assert flagged


HAN_RANGES = ((0x3400, 0x4DBF), (0x4E00, 0x9FFF), (0xF900, 0xFAFF), (0x20000, 0x2FA1F))


def oracle_is_han(ch):
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in HAN_RANGES)


def oracle_detect_traditional(text, table, threshold):
    """Per-character scan: the share of Han characters found in the table."""
    han = 0
    traditional = 0
    for ch in text:
        if oracle_is_han(ch):
            han += 1
            if ch in table:
                traditional += 1
    ratio = traditional / han if han else 0.0
    return ratio, ratio > threshold


HAN_BOUNDARIES = "".join(chr(cp) for pair in (
    (0x33FF, 0x3400), (0x4DBF, 0x4DC0), (0x9FFF, 0xA000), (0xF8FF, 0xF900),
    (0xFAFF, 0xFB00), (0x1FFFF, 0x20000), (0x2FA1F, 0x2FA20)) for cp in pair)

# a user table whose keys include characters outside the Han ranges, which must not count
MIXED_TABLE = {"觀": "观", "點": "点", "A": "a", chr(0x33FF): "x", chr(0xA000): "y",
               chr(0x2FA20): "z", chr(0x3400): "w", chr(0x2FA1F): "v"}


@given(st.text(alphabet=HAN_BOUNDARIES + "觀點观点元素 A1。", max_size=40),
       st.sampled_from(["default", "mixed"]),
       st.sampled_from([0.0, DEFAULT_TRADITIONAL_THRESHOLD, 0.5]))
@settings(max_examples=300, deadline=None)
@example("A" * 10 + chr(0x3400), "mixed", 0.5)
@example(chr(0x33FF) + chr(0xA000) + chr(0x2FA20), "mixed", 0.0)
def test_detect_traditional_equals_per_character_oracle(text, table_name, threshold):
    table = default_variant_table() if table_name == "default" else MIXED_TABLE
    assert (detect_traditional(text, table, threshold)
            == oracle_detect_traditional(text, table, threshold))


def test_token_list_behaves_like_sequence():
    tokens = TokenList(("a", "b"))
    assert list(tokens) == ["a", "b"]
    assert len(tokens) == 2
    assert tokens[0] == "a"
