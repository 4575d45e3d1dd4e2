"""Chinese tokenization: lexicon-driven word segmentation, character
segmentation, and simplified/traditional script detection.

Word segmentation builds the DAG of all lexicon matches over the
character sequence and picks the route maximizing the summed
log(frequency / total) by right-to-left dynamic programming. Characters
covered by no entry fall back to single-character tokens at the floor
probability 1/total, so any input is segmentable.
"""

from __future__ import annotations

import math
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


@dataclass
class Lexicon:
    """Frequency lexicon with a prefix index for DAG construction."""

    entries: dict[str, int]
    total_frequency: int = 0
    prefixes: set[str] = field(default_factory=set, repr=False)

    def __post_init__(self) -> None:
        if not self.total_frequency:
            self.total_frequency = sum(self.entries.values())
        if not self.prefixes:
            for surface in self.entries:
                for i in range(1, len(surface) + 1):
                    self.prefixes.add(surface[:i])

    def freq(self, surface: str) -> int:
        return self.entries.get(surface, 0)

    def is_prefix(self, fragment: str) -> bool:
        return fragment in self.prefixes

    def log_prob(self, surface: str) -> float:
        f = self.entries.get(surface, 0)
        if f > 0:
            return math.log(f) - math.log(self.total_frequency)
        return -math.log(self.total_frequency)

    def floor_log_prob(self) -> float:
        # fallback weight for single characters absent from the lexicon
        return -math.log(self.total_frequency)

    def with_entry(self, surface: str, frequency: int) -> "Lexicon":
        if frequency < 1:
            raise LexiconError(f"non-positive frequency for {surface!r}")
        merged = dict(self.entries)
        merged[surface] = merged.get(surface, 0) + frequency
        return Lexicon(merged)


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
    n = len(chunk)
    # DAG: start index -> list of end indices of lexicon matches
    dag: list[list[int]] = []
    for i in range(n):
        ends = []
        j = i + 1
        while j <= n and lexicon.is_prefix(chunk[i:j]):
            if lexicon.freq(chunk[i:j]) > 0:
                ends.append(j)
            j += 1
        if not ends:
            ends.append(i + 1)
        dag.append(ends)

    floor = lexicon.floor_log_prob()
    # route[i] = (best score from i to the end, chosen end index);
    # ties prefer the longer first token, hence max over (score, end).
    route: list[tuple[float, int]] = [(0.0, 0)] * (n + 1)
    for i in range(n - 1, -1, -1):
        best = None
        for j in dag[i]:
            word = chunk[i:j]
            lp = lexicon.log_prob(word) if lexicon.freq(word) > 0 else floor
            cand = (lp + route[j][0], j)
            if best is None or cand > best:
                best = cand
        route[i] = best  # type: ignore[assignment]

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


def route_score(tokens, lexicon: Lexicon) -> float:
    """Summed log-probability of a token route under a lexicon."""
    return sum(
        lexicon.log_prob(t) if lexicon.freq(t) > 0 else lexicon.floor_log_prob()
        for t in tokens
    )


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


def is_han(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _HAN_RANGES)


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
    han = 0
    traditional = 0
    for ch in text:
        if is_han(ch):
            han += 1
            if ch in table:
                traditional += 1
    ratio = traditional / han if han else 0.0
    return ratio, ratio > threshold
