"""Word/character segmentation against a brute-force route oracle."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bteval import segmentation
from bteval.corpus import parse_corpus
from bteval.segmentation import (
    Lexicon,
    LexiconError,
    Segmenter,
    TokenList,
    DEFAULT_TRADITIONAL_THRESHOLD,
    default_lexicon,
    default_variant_table,
    detect_traditional,
    load_lexicon,
    load_variant_table,
    segment_chars,
    segment_words,
    traditional_ratios,
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
@settings(max_examples=200)
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
@settings(max_examples=500)
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


def nested_dict_lexicon(entries: dict[str, int]) -> SimpleNamespace:
    """The earlier Lexicon table, kept as an oracle (its build loop verbatim):
    one nested dict per character, whose node for an entry holds
    (log(f) - log(total), the entry) under the key None."""
    log_total = math.log(sum(entries.values()))
    trie: dict = {}
    for word, frequency in entries.items():
        node = trie
        for ch in word:
            node = node.setdefault(ch, {})
        node[None] = (math.log(frequency) - log_total, word)
    return SimpleNamespace(trie=trie, floor=-log_total)


def nested_dict_segment_chunk(chunk: str, lexicon) -> list[str]:
    """The earlier _segment_chunk, kept verbatim as an oracle: two probes per
    trie step, the child and then its None key."""
    trie, floor = lexicon.trie, lexicon.floor
    n = len(chunk)
    score = [0.0] * (n + 1)
    end = [0] * (n + 1)
    word: list = [None] * n
    for i in range(n - 1, -1, -1):
        best, best_end, best_word = -math.inf, 0, None
        node = trie
        for j in range(i, n):
            node = node.get(chunk[j])
            if node is None:
                break
            entry = node.get(None)
            if entry is not None:
                s = entry[0] + score[j + 1]
                if s >= best:
                    best, best_end, best_word = s, j + 1, entry[1]
        if best_word is None:
            best, best_end, best_word = floor + score[i + 1], i + 1, chunk[i]
        score[i], end[i], word[i] = best, best_end, best_word

    tokens = []
    i = 0
    while i < n:
        tokens.append(word[i])
        i = end[i]
    return tokens


@st.composite
def prefix_lexicons(draw):
    """Lexicons over 甲乙丙 whose entries share prefixes: each stem comes with
    the stem followed by 乙. The first two entries are a word and one of its
    prefixes, in a drawn order, so that a prefix goes into the trie both
    before and after the longer entry; one entry is a single character.
    Frequencies are all equal half the time, to force ties."""
    longer = draw(st.text(alphabet="甲乙丙", min_size=2, max_size=5))
    prefix = longer[:draw(st.integers(1, len(longer) - 1))]
    pair = [prefix, longer] if draw(st.booleans()) else [longer, prefix]
    stems = draw(st.lists(st.text(alphabet="甲乙丙", min_size=1, max_size=3), max_size=8))
    words = pair + [draw(st.sampled_from("甲乙丙"))] + [w + x for w in stems for x in ("", "乙")]
    if draw(st.booleans()):
        return dict.fromkeys(words, 7)
    return {w: draw(st.integers(1, 3)) for w in words}


def with_corpus_examples(test):
    """The test with every fixture corpus text, under the default lexicon, as an example."""
    for path in sorted((FIXTURES / "corpora").glob("*.jsonl")):
        for sample in parse_corpus(path):
            test = example(default_lexicon().entries, sample.text)(test)
    return test


# lexicon characters, whitespace, and 戊 and latin letters, which no entry covers
@given(prefix_lexicons(), st.text(alphabet="甲乙丙戊a \t\n", max_size=40))
@with_corpus_examples
@settings(max_examples=300)
def test_segment_words_matches_nested_dict_oracle(entries, text):
    lexicon, oracle = Lexicon(entries), nested_dict_lexicon(entries)
    tokens = segment_words(text, lexicon).tokens
    assert list(tokens) == [t for chunk in text.split()
                            for t in nested_dict_segment_chunk(chunk, oracle)]
    # a token longer than one character is the lexicon's own string
    surfaces = {id(w) for w in lexicon.entries}
    assert all(id(t) in surfaces for t in tokens if len(t) > 1)


# lexicon characters, whitespace, and 丁 and latin letters, which no entry covers
TEXTS = st.text(alphabet="甲乙丙丁ab \t\n", max_size=12)


@given(SMALL_LEXICONS, st.lists(TEXTS, max_size=6), st.lists(TEXTS, max_size=6))
@settings(max_examples=200)
def test_segmenter_keeps_only_its_kept_texts(entries, keep, others):
    lexicon = Lexicon(entries)
    calls = []

    def counting(text, lexicon=None):
        calls.append(text)
        return segment_words(text, lexicon)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(segmentation, "segment_words", counting)
        segment = Segmenter(lexicon, keep)
        assert sorted(calls) == sorted(set(keep))  # each kept text once, at construction
        calls.clear()
        for text in [*keep, *others, *others]:
            assert segment(text) == segment_words(text, lexicon)
    # an unkept text is segmented on every call: nothing was stored
    assert sorted(calls) == sorted(2 * [text for text in others if text not in keep])


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


def trie_paths(trie, path=""):
    """(path, (log_prob, entry)) for every node below a trie."""
    for ch, (children, log_prob, entry) in trie.items():
        yield path + ch, (log_prob, entry)
        yield from trie_paths(children, path + ch)


def test_lexicon_table_matches_entries():
    lexicon = default_lexicon()
    total = sum(lexicon.entries.values())
    paths = dict(trie_paths(lexicon.trie))
    assert set(paths) == {w[:i] for w in lexicon.entries for i in range(1, len(w) + 1)}
    # a node where no entry ends holds (None, None)
    terminals = {path: node for path, node in paths.items() if node != (None, None)}
    assert terminals == {w: (math.log(f) - math.log(total), w) for w, f in lexicon.entries.items()}
    # an entry's node holds the lexicon's own string, which segmentation emits
    surfaces = {id(w) for w in lexicon.entries}
    assert all(id(word) in surfaces for _, word in terminals.values())
    assert lexicon.floor == -math.log(total)


def test_segment_words_emits_the_lexicon_strings(tiny_lexicon):
    surfaces = {id(w) for w in tiny_lexicon.entries}
    tokens = segment_words("人工智能 智能人工", tiny_lexicon).tokens
    assert [id(t) in surfaces for t in tokens] == [t in tiny_lexicon.entries for t in tokens]


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
@settings(max_examples=300)
@example("A" * 10 + chr(0x3400), "mixed", 0.5)
@example(chr(0x33FF) + chr(0xA000) + chr(0x2FA20), "mixed", 0.0)
def test_detect_traditional_equals_per_character_oracle(text, table_name, threshold):
    table = default_variant_table() if table_name == "default" else MIXED_TABLE
    assert (detect_traditional(text, table, threshold)
            == oracle_detect_traditional(text, table, threshold))


# BMP and extension-B Han, table keys, whitespace (U+3000 included) and lone surrogates,
# which JSON can decode and the kernel still reads as code points
RATIO_ALPHABET = (HAN_BOUNDARIES + "觀點观点元素組成" + chr(0x20BB7) + chr(0x2A6D6)
                  + " \t\n\u3000" + "\ud800\udbff\udc00\udfff" + "A1。")


@given(st.lists(st.text(alphabet=RATIO_ALPHABET, max_size=30), max_size=8),
       st.sampled_from(["default", "mixed"]))
@settings(max_examples=300)
@example([], "default")
@example(["", "\ud800", " \u3000", "觀点", chr(0x2FA1F)], "mixed")
@example(["觀点", "", "A", "元素"] * 80, "default")  # several slices of the kernel
def test_traditional_ratios_equal_per_text_oracle(texts, table_name):
    table = default_variant_table() if table_name == "default" else MIXED_TABLE
    ratios = traditional_ratios(texts, table)
    assert ratios.dtype == np.float64
    assert ratios.tolist() == [oracle_detect_traditional(text, table, 0.0)[0] for text in texts]


def test_token_list_behaves_like_sequence():
    tokens = TokenList(("a", "b"))
    assert list(tokens) == ["a", "b"]
    assert len(tokens) == 2
    assert tokens[0] == "a"
