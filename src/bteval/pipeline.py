"""ZHx -> EN -> ZHy round-trip execution against configured backends.

Backends are either HTTP chat-completion endpoints (``transport``) or
deterministic mocks (identity, bilingual token mapper, and a seeded noise
wrapper over the mapper). Every (sample, backend, repetition) triple yields
exactly one TranslationRecord whether it succeeded or not, anomaly flags
included, so a mock run replays byte-for-byte from its run config, its CLI
flags and its seed; the manifest lacks the backend configs and flags.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import random
from contextlib import ExitStack
from dataclasses import asdict, dataclass
from itertools import chain, groupby
from operator import attrgetter
from pathlib import Path

import numpy as np

from .config import (DEFAULT_VERBATIM_THRESHOLD, EN_TO_ZH, PROMPT_VARIANTS, ZH_TO_EN,
                     BackendConfig, RunConfig, RunManifest)
from .corpus import Corpus, TextSample
from .jsonio import loads
from .metrics import METRIC_NAMES, BleuConfig, bleu, score_run
from .segmentation import Lexicon, Segmenter, segment_words, traditional_ratios
from .stats import ExperimentDesign, ScoreMatrix
from .transport import BackendError, HttpBackend
from .transport import TokenBucket  # unused here: the bench's tracer wraps pipeline.TokenBucket


@dataclass
class TranslationRecord:
    sample_id: str
    backend_id: str
    repetition: int  # 1-based
    zhx: str
    en: str
    zhy: str
    seed: int
    prompt_variant: int
    verbatim_flag: bool = False
    traditional_flag: bool = False
    error: str | None = None


def derive_seed(master_seed: int, sample_id: str, backend_id: str, repetition: int) -> int:
    """Stable 63-bit seed; Python's salted hash() is useless for replay."""
    key = f"{master_seed}:{sample_id}:{backend_id}:{repetition}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


class IdentityMock:
    """Round-trip no-op: the back-translation equals the original."""

    def __init__(self, config: BackendConfig) -> None:
        self.config = config

    def translate(self, text: str, direction: str, seed: int, variant: int) -> str:
        return text


# Invertible ZH <-> EN token table for the mapper mock; unknown tokens pass
# through unchanged, which keeps the mapping invertible for arbitrary input.
BILINGUAL_TABLE = {
    "人工智能": "artificial-intelligence",
    "化学": "chemistry",
    "工程": "engineering",
    "计算": "computation",
    "研究": "research",
    "分析": "analysis",
    "方法": "method",
    "结果": "result",
    "实验": "experiment",
    "反应": "reaction",
    "物质": "substance",
    "元素": "element",
    "组成": "composition",
    "性质": "property",
    "结构": "structure",
    "效率": "efficiency",
    "质量": "quality",
    "提高": "improve",
    "应用": "application",
    "技术": "technology",
    "系统": "system",
    "我": "i",
    "你": "you",
    "的": "de",
    "了": "le",
    "是": "is",
    "在": "at",
    "和": "and",
    "与": "with",
    "眼泪": "tears",
    "月光": "moonlight",
    "时间": "time",
}
_REVERSE_TABLE = {en: zh for zh, en in BILINGUAL_TABLE.items()}


class LexiconMapperMock:
    """Bilingual token mapper: segment, map each token, join; exactly invertible.
    segment is a run's Segmenter; a mock made outside a run keeps nothing."""

    def __init__(self, config: BackendConfig, segment: Segmenter | None = None) -> None:
        self.config = config
        self.segment = Segmenter() if segment is None else segment

    def translate(self, text: str, direction: str, seed: int, variant: int) -> str:
        if direction == ZH_TO_EN:
            return " ".join([BILINGUAL_TABLE.get(t, t) for t in self.segment(text)])
        return "".join([_REVERSE_TABLE.get(t, t) for t in text.split(" ")])


class NoiseMock(LexiconMapperMock):
    """Seeded token drop/swap noise over the mapper mock."""

    def translate(self, text: str, direction: str, seed: int, variant: int) -> str:
        clean = super().translate(text, direction, seed, variant)
        # int-only seed material: hash() of strings is salted per process
        draw = random.Random(seed * 2 + (1 if direction == EN_TO_ZH else 0)).random
        drop_prob, swap_prob = self.config.drop_prob, self.config.swap_prob
        tokens = clean.split(" ") if direction == ZH_TO_EN else list(self.segment(clean))
        kept = [t for t in tokens if draw() >= drop_prob]
        if not kept:
            kept = tokens[:1]
        i = 0
        while i < len(kept) - 1:
            if draw() < swap_prob:
                kept[i], kept[i + 1] = kept[i + 1], kept[i]
                i += 2
            else:
                i += 1
        return " ".join(kept) if direction == ZH_TO_EN else "".join(kept)


def make_backend(config: BackendConfig, segment: Segmenter | None = None):
    """The backend for a config; the mapper and noise mocks segment through segment."""
    if config.kind == "mock":
        if config.model_name == "identity":
            return IdentityMock(config)
        if config.model_name == "lexicon":
            return LexiconMapperMock(config, segment)
        return NoiseMock(config, segment)
    return HttpBackend(config)


def detect_verbatim(zhx: str, zhy: str, lexicon: Lexicon | None = None,
                    threshold: float = DEFAULT_VERBATIM_THRESHOLD) -> tuple[float, bool]:
    """Word-level 1-2 gram BLEU of the back-translation against its own source."""
    if not zhx.strip():
        raise ValueError("zhx must be non-empty")
    reference = segment_words(zhx, lexicon)
    candidate = segment_words(zhy, lexicon)
    similarity = bleu(candidate, reference, BleuConfig())
    return similarity, similarity >= threshold


def _roundtrip(backend, config: BackendConfig, sample: TextSample, repetition: int,
               master_seed: int) -> TranslationRecord:
    """Both translation legs; a failed leg becomes the record's error."""
    seed = derive_seed(master_seed, sample.id, config.id, repetition)
    variant = (repetition - 1) % len(PROMPT_VARIANTS[ZH_TO_EN])
    record = TranslationRecord(
        sample_id=sample.id,
        backend_id=config.id,
        repetition=repetition,
        zhx=sample.text,
        en="",
        zhy="",
        seed=seed,
        prompt_variant=variant,
    )
    try:
        record.en = backend.translate(sample.text, ZH_TO_EN, seed, variant)
        record.zhy = backend.translate(record.en, EN_TO_ZH, seed, variant)
        if not record.zhy.strip():
            raise BackendError(f"{config.id}: empty back-translation")
    except BackendError as exc:
        record.zhy = ""
        record.error = str(exc)
    return record


def run_experiment(
    corpus: Corpus,
    config: RunConfig,
    lexicon: Lexicon | None = None,
    variant_table: dict[str, str] | None = None,
    backend_instances: dict | None = None,
) -> tuple[dict[str, ScoreMatrix], list[TranslationRecord], RunManifest]:
    """config's grid over corpus: per-metric score matrices, the sorted record log, and a
    manifest. The caller loads the corpus, lexicon and variant table config's paths name.

    Backend failures become error records and missing score cells; only
    corpus or configuration problems abort the run.
    """
    backends, r, master_seed = config.backends, config.repetitions, config.master_seed
    if any(backend.kind == "http_llm" for backend in backends):
        # only HTTP legs go to a pool, so a mock-only run never loads concurrent.futures
        from concurrent.futures import ThreadPoolExecutor, as_completed
    # each original is segmented once, for the mocks' forward legs and the scorer
    segment = Segmenter(lexicon, (sample.text for sample in corpus))
    with ExitStack() as stack:
        # every backend, and each HTTP backend's pool, is made before any leg starts
        instances, pools = dict(backend_instances or {}), {}
        for backend in backends:
            if backend.id not in instances:
                instances[backend.id] = make_backend(backend, segment)
                if backend.kind == "http_llm":
                    stack.callback(instances[backend.id].close)
            if backend.kind == "http_llm":
                pools[backend.id] = ThreadPoolExecutor(max_workers=backend.max_workers)
                stack.callback(pools[backend.id].shutdown, cancel_futures=True)
        # Every HTTP leg is submitted before the GIL-bound mock legs run inline, so the
        # HTTP backends wait on I/O together and while the mocks run; as_completed lets
        # go of each future it yields. A run that raises drops the legs not yet started.
        finished = as_completed([
            pools[backend.id].submit(_roundtrip, instances[backend.id], backend, sample, rep,
                                     master_seed)
            for backend in backends if backend.id in pools
            for sample in corpus for rep in range(1, r + 1)]) if pools else ()
        inline = (_roundtrip(instances[backend.id], backend, sample, rep, master_seed)
                  for backend in backends if backend.id not in pools
                  for sample in corpus for rep in range(1, r + 1))
        # the one place where every finished record arrives, the HTTP ones in completion order
        records = list(chain(inline, (future.result() for future in finished)))
    records.sort(key=lambda rec: (rec.sample_id, rec.backend_id, rec.repetition))

    scored = [rec for rec in records if rec.error is None]
    design = ExperimentDesign(n=len(corpus), k=len(backends), r=r)
    block_index = {s.id: i for i, s in enumerate(corpus)}
    treatment_index = {b.id: j for j, b in enumerate(backends)}
    grids = {name: np.full((design.n, design.k, design.r), np.nan) for name in METRIC_NAMES}
    # Records are sorted by sample, so each original's back-translations are consecutive.
    groups = [(zhx, [rec.zhy for rec in group])
              for zhx, group in groupby(scored, key=attrgetter("zhx"))]
    # flagged before scoring: ratios alive through the scorer cost the 89x5x3 run 0.8 MiB peak RSS
    for rec, ratio in zip(scored, traditional_ratios([r.zhy for r in scored], variant_table)):
        rec.traditional_flag = bool(ratio > config.traditional_threshold)
    results = score_run([s.text for s in corpus], groups, config.scoring, segment)
    for rec, (vector, similarity) in zip(scored, results):
        rec.verbatim_flag = similarity >= config.verbatim_threshold
        b, t = block_index[rec.sample_id], treatment_index[rec.backend_id]
        for name in METRIC_NAMES:
            grids[name][b, t, rec.repetition - 1] = getattr(vector, name)

    matrices = {
        name: ScoreMatrix(
            design=design,
            metric=name,
            values=grid,
            block_ids=[s.id for s in corpus],
            treatment_ids=[b.id for b in backends],
        )
        for name, grid in grids.items()
    }
    manifest = RunManifest(
        corpus_name=corpus.name,
        corpus_sha256=corpus.sha256 or "",
        backend_ids=[b.id for b in backends],
        design=asdict(design),
        scoring=asdict(config.scoring),
        master_seed=master_seed,
        timestamp=_dt.datetime.now(_dt.timezone.utc).isoformat(),
        verbatim_threshold=config.verbatim_threshold,
        traditional_threshold=config.traditional_threshold,
    )
    return matrices, records, manifest


def write_records(records: list[TranslationRecord], path: str | Path) -> None:
    # TranslationRecord is flat, so vars(rec) is asdict(rec) without the deep copy;
    # line by line, so the whole log is never held as one string
    with open(path, "w", encoding="utf-8") as handle:
        for rec in records:
            handle.write(json.dumps(vars(rec), ensure_ascii=False) + "\n")


def read_records(path: str | Path) -> list[TranslationRecord]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [TranslationRecord(**loads(line)) for line in lines if line.strip()]
