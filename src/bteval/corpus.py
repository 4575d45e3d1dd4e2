"""Load, validate, and serialize evaluation corpora stored as JSONL.

One record per line: {"id", "domain", "title"?, "text", "variant"?}.
Unknown fields are preserved so files survive schema evolution; text is
stored byte-for-byte as found so character-level metrics see the source
exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .jsonio import check_fields, loads
from .segmentation import DEFAULT_TRADITIONAL_THRESHOLD, traditional_ratios

SIMPLIFIED = "simplified"
TRADITIONAL = "traditional"
UNKNOWN = "unknown"

_VARIANTS = (SIMPLIFIED, TRADITIONAL, UNKNOWN)
_KNOWN_FIELDS = ("id", "domain", "title", "text", "variant")


class CorpusError(ValueError):
    """Malformed corpus file or record."""


@dataclass
class TextSample:
    id: str
    domain: str
    text: str
    title: str | None = None
    variant: str = UNKNOWN
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_fields(self, CorpusError, "record")
        if not self.id:
            raise CorpusError("sample id must be non-empty")
        if not self.text.strip():
            raise CorpusError(f"sample {self.id}: text is empty")
        if self.variant not in _VARIANTS:
            raise CorpusError(f"sample {self.id}: unknown variant {self.variant!r}")


@dataclass
class Corpus:
    name: str
    samples: list[TextSample]
    sha256: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.samples:
            raise CorpusError("empty corpus")
        seen = set()
        for sample in self.samples:
            if sample.id in seen:
                raise CorpusError(f"duplicate id {sample.id!r}")
            seen.add(sample.id)

    def __iter__(self) -> Iterator[TextSample]:
        return iter(self.samples)

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, i: int) -> TextSample:
        return self.samples[i]


def parse_corpus(path: str | Path) -> Corpus:
    """Parse a JSONL corpus, preserving line order; errors carry 1-based line numbers."""
    path = Path(path)
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not UTF-8 ({exc})") from exc
    samples: list[TextSample] = []
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        where = f"{path}: line {lineno}"
        try:
            data = loads(line)
        except ValueError as exc:  # not RFC 8259 JSON, or an integer too long to convert
            raise CorpusError(f"{where}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
        if not isinstance(data, dict):
            raise CorpusError(f"{where}: record must be a JSON object")
        missing = [key for key in ("id", "domain", "text") if key not in data]
        if missing:
            raise CorpusError(f"{where}: record requires {missing}")
        try:
            sample = TextSample(**{key: data[key] for key in _KNOWN_FIELDS if key in data})
        except CorpusError as exc:
            raise CorpusError(f"{where}: {exc}") from exc
        extra = {key: value for key, value in data.items() if key not in _KNOWN_FIELDS}
        if extra:
            try:  # serialize_corpus writes the unknown fields back
                json.dumps(extra, ensure_ascii=False, allow_nan=False).encode("utf-8")
            except (ValueError, RecursionError) as exc:  # a lone surrogate, inf, or deep nesting
                raise CorpusError(
                    f"{where}: unknown fields cannot be written back as JSON ({exc})") from exc
            sample.extra = extra
        if sample.id in seen:
            raise CorpusError(
                f"{where}: duplicate id {sample.id!r} (first seen on line {seen[sample.id]})")
        seen[sample.id] = lineno
        samples.append(sample)
    if not samples:
        raise CorpusError(f"{path}: empty corpus")
    return Corpus(name=path.stem, samples=samples, sha256=hashlib.sha256(raw).hexdigest())


def serialize_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write JSONL that parse_corpus round-trips field-by-field."""
    lines = []
    for sample in corpus.samples:
        record: dict = {"id": sample.id, "domain": sample.domain}
        if sample.title is not None:
            record["title"] = sample.title
        record["text"] = sample.text
        record["variant"] = sample.variant
        record.update(sample.extra)
        lines.append(json.dumps(record, ensure_ascii=False))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


MIN_CHARS = 2  # below this, 2-gram precision is empty and BLEU collapses


def validate_corpus(
    corpus: Corpus,
    traditional_threshold: float = DEFAULT_TRADITIONAL_THRESHOLD,
    variant_table: dict[str, str] | None = None,
) -> list[str]:
    """Non-mutating checks; returns human-readable warnings."""
    warnings: list[str] = []
    simplified = [sample.text for sample in corpus if sample.variant == SIMPLIFIED]
    ratios = iter(traditional_ratios(simplified, variant_table).tolist())
    for sample in corpus:
        stripped = "".join(sample.text.split())
        if len(stripped) < MIN_CHARS:
            warnings.append(f"{sample.id}: sample too short for 2-gram BLEU")
        if sample.variant == SIMPLIFIED:
            ratio = next(ratios)
            if ratio > traditional_threshold:
                warnings.append(
                    f"{sample.id}: traditional characters detected "
                    f"(ratio {ratio:.3f} exceeds {traditional_threshold})"
                )
    return warnings
