"""Chinese tokenization: lexicon-driven word segmentation, character
segmentation, and simplified/traditional script detection.

Word segmentation picks the route through the lexicon matches that
maximizes the summed log(frequency / total), in one right-to-left
dynamic-programming pass over the character sequence. Characters
covered by no entry fall back to single-character tokens at the floor
probability 1/total, so any input is segmentable.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterator

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
    """An ordered token sequence tagged with its segmentation level."""

    tokens: tuple[str, ...]
    level: str = WORD

    def __iter__(self) -> Iterator[str]:
        return iter(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __getitem__(self, i):
        return self.tokens[i]

    def join(self, sep: str = "") -> str:
        return sep.join(self.tokens)


@dataclass(frozen=True)
class Lexicon:
    """Frequency lexicon, built once into the table the segmenter reads: the
    log-probability log(f) - log(total) of every entry, the floor -log(total)
    for characters no entry covers, and the set of entry prefixes."""

    entries: dict[str, int]
    log_probs: dict[str, float] = field(init=False, repr=False)
    floor: float = field(init=False, repr=False)
    prefixes: frozenset[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.entries:
            raise LexiconError("empty lexicon")
        for surface, frequency in self.entries.items():
            if frequency <= 0:
                raise LexiconError(f"non-positive frequency for {surface!r}")
        log_total = math.log(sum(self.entries.values()))
        # the dataclass is frozen, so the derived table is set here, once
        object.__setattr__(self, "log_probs",
                           {w: math.log(f) - log_total for w, f in self.entries.items()})
        object.__setattr__(self, "floor", -log_total)
        object.__setattr__(self, "prefixes", frozenset(
            w[:i] for w in self.entries for i in range(1, len(w) + 1)))


def load_lexicon(path: str | Path) -> Lexicon:
    """Load a "surface frequency [tag]" lexicon file; duplicate surfaces sum."""
    entries: dict[str, int] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
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
    """Best-route segmentation of one whitespace-free chunk."""
    log_probs, prefixes, floor = lexicon.log_probs, lexicon.prefixes, lexicon.floor
    n = len(chunk)
    # route[i] = (best score from i to the end, chosen end index), built right
    # to left over the lexicon matches starting at i, or the lone character at
    # the floor when none match; ties prefer the longer first token, hence max
    # over (score, end).
    route: list[tuple[float, int]] = [(0.0, 0)] * (n + 1)
    for i in range(n - 1, -1, -1):
        best = None
        j = i + 1
        while j <= n and (word := chunk[i:j]) in prefixes:
            lp = log_probs.get(word)
            if lp is not None:
                cand = (lp + route[j][0], j)
                if best is None or cand > best:
                    best = cand
            j += 1
        route[i] = best or (floor + route[i + 1][0], i + 1)

    tokens = []
    i = 0
    while i < n:
        j = route[i][1]
        tokens.append(chunk[i:j])
        i = j
    return tokens


def segment_words(text: str, lexicon: Lexicon | None = None) -> TokenList:
    """Word-level segmentation; whitespace is dropped, coverage is lossless."""
    if lexicon is None:
        lexicon = default_lexicon()
    tokens: list[str] = []
    for chunk in text.split():
        tokens.extend(_segment_chunk(chunk, lexicon))
    return TokenList(tuple(tokens), WORD)


def segment_chars(text: str) -> TokenList:
    """One token per non-whitespace Unicode scalar value."""
    return TokenList(tuple(ch for ch in text if not ch.isspace()), CHARACTER)


def tokenize(text: str, level: str = WORD, lexicon: Lexicon | None = None) -> TokenList:
    """Character tokens at the character level, lexicon words otherwise."""
    if level == CHARACTER:
        return segment_chars(text)
    return segment_words(text, lexicon)


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


def load_variant_table(path: str | Path) -> dict[str, str]:
    """Load "traditional simplified" character pairs, one per line."""
    table: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2 or len(parts[0]) != 1 or len(parts[1]) != 1:
                raise LexiconError(f"{path}: line {lineno}: expected 'traditional simplified'")
            table[parts[0]] = parts[1]
    return table


@lru_cache(maxsize=1)
def _han_char():
    # compiling the class takes milliseconds, so an import that never checks a text skips it
    return re.compile("[" + "".join(f"\\U{lo:08X}-\\U{hi:08X}" for lo, hi in _HAN_RANGES) + "]")


@lru_cache(maxsize=1)
def default_variant_table() -> dict[str, str]:
    ref = resources.files("bteval").joinpath("data/variant_table.txt")
    with resources.as_file(ref) as path:
        return load_variant_table(path)


def detect_traditional(
    text: str,
    table: dict[str, str] | None = None,
    threshold: float = DEFAULT_TRADITIONAL_THRESHOLD,
) -> tuple[float, bool]:
    """Fraction of Han characters that are traditional-only, and whether it exceeds the threshold."""
    if table is None:
        table = default_variant_table()
    han = _han_char().findall(text)
    traditional = sum(map(table.__contains__, han))
    ratio = traditional / len(han) if han else 0.0
    return ratio, ratio > threshold
