"""Chinese tokenization: lexicon-driven word segmentation, character
segmentation, and simplified/traditional script detection.

Word segmentation picks the route through the lexicon matches that
maximizes the summed log(frequency / total), in one right-to-left
dynamic-programming pass over the character sequence that walks the
lexicon's prefix trie from each position. Characters covered by no entry
fall back to single-character tokens at the floor probability 1/total, so
any input is segmentable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterator

import numpy as np

WORD = "word"
CHARACTER = "character"

DEFAULT_TRADITIONAL_THRESHOLD = 0.05

_HAN_RANGES = (
    (0x3400, 0x4DBF),   # CJK extension A
    (0x4E00, 0x9FFF),   # CJK unified
    (0xF900, 0xFAFF),   # compatibility ideographs
    (0x20000, 0x2FA1F), # extensions B+
)


class LexiconError(ValueError):
    """Malformed lexicon or variant-table input."""


@dataclass(frozen=True)
class TokenList:
    """An ordered token sequence."""

    tokens: tuple[str, ...]

    def __iter__(self) -> Iterator[str]:
        return iter(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __getitem__(self, i):
        return self.tokens[i]


@dataclass(frozen=True)
class Lexicon:
    """Frequency lexicon, built once into the table the segmenter reads: the
    floor -log(total) for characters no entry covers, and a trie of the
    entries that maps each character to a (children, log_prob, entry) node:
    log(f) - log(total) and the entry's own string where an entry ends there,
    None and None where none does."""

    entries: dict[str, int]
    floor: float = field(init=False, repr=False)
    trie: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.entries:
            raise LexiconError("empty lexicon")
        for surface, frequency in self.entries.items():
            if frequency <= 0:
                raise LexiconError(f"non-positive frequency for {surface!r}")
        log_total = math.log(sum(self.entries.values()))
        trie: dict = {}
        for word, frequency in self.entries.items():
            node = trie
            for k, ch in enumerate(word, 1):
                children, log_prob, entry = node.get(ch, ({}, None, None))
                if k == len(word):
                    log_prob, entry = math.log(frequency) - log_total, word
                node[ch] = (children, log_prob, entry)
                node = children
        # the dataclass is frozen, so the derived table is set here, once
        object.__setattr__(self, "floor", -log_total)
        object.__setattr__(self, "trie", trie)


def _numbered_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(1-based number, line) for each line of a UTF-8 file; any other
    encoding is a LexiconError."""
    try:
        with open(path, encoding="utf-8") as handle:
            yield from enumerate(handle, start=1)
    except UnicodeDecodeError as exc:
        raise LexiconError(f"{path}: not UTF-8 ({exc})") from exc


def load_lexicon(path: str | Path) -> Lexicon:
    """Load a "surface frequency [tag]" lexicon file; duplicate surfaces sum."""
    entries: dict[str, int] = {}
    for lineno, raw in _numbered_lines(path):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(" ")
        if len(parts) < 2:
            raise LexiconError(f"{path}: line {lineno}: expected 'surface frequency [tag]'")
        surface = parts[0]
        try:
            frequency = int(parts[1])
        except ValueError as exc:
            raise LexiconError(f"{path}: line {lineno}: bad frequency {parts[1]!r}") from exc
        if frequency <= 0:
            raise LexiconError(f"{path}: line {lineno}: non-positive frequency")
        entries[surface] = entries.get(surface, 0) + frequency
    if not entries:
        raise LexiconError(f"{path}: empty lexicon")
    return Lexicon(entries)


@lru_cache(maxsize=1)
def default_lexicon() -> Lexicon:
    ref = resources.files("bteval").joinpath("data/lexicon.txt")
    with resources.as_file(ref) as path:
        return load_lexicon(path)


def _segment_chunk(chunk: str, lexicon: Lexicon) -> list[str]:
    """Best-route segmentation of one whitespace-free chunk, as the lexicon's
    own entry strings and lone characters."""
    trie, floor = lexicon.trie, lexicon.floor
    n = len(chunk)
    # score[i] is the best score from i to the end, reached by taking word[i],
    # which ends at end[i]; built right to left over the lexicon matches
    # starting at i, or else the lone character (end's and word's first value)
    # at the floor. Ends grow as the trie is walked, so replacing on >= keeps
    # the longer first token on ties: the maximum over (score, end).
    score = [0.0] * (n + 1)
    end = list(range(1, n + 1))
    word = list(chunk)
    unmatched = -math.inf
    for i in range(n - 1, -1, -1):
        best = unmatched
        node, j = trie, i
        while j < n:  # most walks end within two characters, so a range per i costs more
            hit = node.get(chunk[j])
            if hit is None:
                break
            node, log_prob, entry = hit
            j += 1
            if entry is not None:
                s = log_prob + score[j]
                if s >= best:
                    best, end[i], word[i] = s, j, entry
        score[i] = floor + score[i + 1] if best == unmatched else best

    tokens = []
    i = 0
    while i < n:
        tokens.append(word[i])
        i = end[i]
    return tokens


def segment_words(text: str, lexicon: Lexicon | None = None) -> TokenList:
    """Word-level segmentation; whitespace is dropped, coverage is lossless."""
    if lexicon is None:
        lexicon = default_lexicon()
    tokens: list[str] = []
    for chunk in text.split():
        tokens.extend(_segment_chunk(chunk, lexicon))
    return TokenList(tuple(tokens))


class Segmenter:
    """segment_words for one run: each text in keep (a run's originals) is
    segmented once, at construction, and kept; any other text is segmented on
    every call and not stored, so the object never grows."""

    def __init__(self, lexicon: Lexicon | None = None, keep=()) -> None:
        self.lexicon = lexicon
        self._kept = {text: segment_words(text, lexicon) for text in dict.fromkeys(keep)}

    def __call__(self, text: str) -> TokenList:
        tokens = self._kept.get(text)
        return segment_words(text, self.lexicon) if tokens is None else tokens


def segment_chars(text: str) -> TokenList:
    """One token per non-whitespace Unicode scalar value."""
    return TokenList(tuple(ch for ch in text if not ch.isspace()))


def tokenize(text: str, level: str = WORD, lexicon: Lexicon | None = None) -> TokenList:
    """Character tokens at the character level, lexicon words otherwise."""
    if level == CHARACTER:
        return segment_chars(text)
    return segment_words(text, lexicon)


def load_variant_table(path: str | Path) -> dict[str, str]:
    """Load "traditional simplified" character pairs, one per line."""
    table: dict[str, str] = {}
    for lineno, raw in _numbered_lines(path):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or len(parts[0]) != 1 or len(parts[1]) != 1:
            raise LexiconError(f"{path}: line {lineno}: expected 'traditional simplified'")
        table[parts[0]] = parts[1]
    return table


@lru_cache(maxsize=1)
def default_variant_table() -> dict[str, str]:
    ref = resources.files("bteval").joinpath("data/variant_table.txt")
    with resources.as_file(ref) as path:
        return load_variant_table(path)


def code_points(text: str) -> np.ndarray:
    """The text's Unicode scalar values (lone surrogates included) as int64."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32).astype(np.int64)


def traditional_ratios(texts: list[str], table: dict[str, str] | None = None) -> np.ndarray:
    """Per text, the traditional-only share (the table's one-character keys) of its Han
    characters, 0.0 with none. 128 texts at a time: freed arrays past glibc's mmap threshold
    raise it, which cost the 89x5x3 mock run's scorer 0.8 MiB more peak RSS."""
    if table is None:
        table = default_variant_table()
    keys = np.fromiter((ord(k) for k in table if len(k) == 1), np.int64)
    ratios = np.zeros(len(texts))
    for start in range(0, len(texts), 128):
        chunk = texts[start:start + 128]
        points = code_points("".join(chunk))
        han = np.zeros(points.shape, bool)
        for lo, hi in _HAN_RANGES:
            han |= (points >= lo) & (points <= hi)
        owner = np.repeat(np.arange(len(chunk)), np.fromiter(map(len, chunk), np.int64, len(chunk)))
        counts = np.bincount(owner[han], minlength=len(chunk))
        traditional = np.bincount(owner[han & np.isin(points, keys)], minlength=len(chunk))
        np.divide(traditional, counts, out=ratios[start:start + 128], where=counts > 0)
    return ratios


def detect_traditional(text: str, table: dict[str, str] | None = None,
                       threshold: float = DEFAULT_TRADITIONAL_THRESHOLD) -> tuple[float, bool]:
    """Fraction of Han characters that are traditional-only, and whether it exceeds the threshold."""
    ratio = float(traditional_ratios([text], table)[0])
    return ratio, ratio > threshold
