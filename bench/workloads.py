"""Seeded inputs for the three benchmark workloads.

The benchmark's seed reaches the program only as generated input: the
master seed of a `bteval run`, or the synthetic matrices of the stats pass.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from stub_server import endpoint_path

MOCK = "mock_89x5x3"
HTTP = "http_k5_latency"
STATS = "stats_report_large"
WORKLOADS = (MOCK, HTTP, STATS)

CORPUS = Path("fixtures") / "corpora" / "cnki_che_89.jsonl"
REPETITIONS = 3

# (drop, swap) per backend: the five noise mocks of acceptance criterion 9;
# the HTTP stub applies the same rates per character, per leg
NOISE = ((0.02, 0.02), (0.04, 0.03), (0.06, 0.04), (0.12, 0.06), (0.15, 0.08))
BACKEND_IDS = ("model-a", "model-b", "model-c", "model-d", "model-e")

# Per-backend rate at which the stub writes traditional forms (model-a only), so
# the traditional flag is true on some records and false on others.
HTTP_TRADITIONAL = (0.08, 0.0, 0.0, 0.0, 0.0)

# The stub's latency per request. At 10 ms a pass waits on the stub for most of
# its wall time (the run prints the share), so concurrent backends and
# keep-alive connections have room to show; a larger value would only
# lengthen the pass.
STUB_LATENCY_MS = 10.0
HTTP_MAX_WORKERS = min(2, os.cpu_count() or 1)
HTTP_RATE_LIMIT_RPS = 100000.0  # far above what two workers reach, so it never binds

METRICS = ("bleu", "bleu_unif", "chrf", "ter", "semantic_similarity")
STATS_DESIGN = (2000, 8, 5)  # blocks x treatments x repetitions
REP_MISSING_SHARE = 0.01
FULLY_MISSING_CELLS = 40
TREATMENT_EFFECTS = (0.06, 0.05, 0.05, 0.02, 0.0, 0.0, -0.03, -0.05)
METRIC_BASE = {"bleu": 0.55, "bleu_unif": 0.40, "chrf": 0.65, "ter": 0.45,
               "semantic_similarity": 0.75}


def mock_config(root: Path, seed: int) -> dict:
    return {
        "corpus": str(root / CORPUS),
        "repetitions": REPETITIONS,
        "master_seed": seed,
        "backends": [
            {"id": bid, "kind": "mock", "model_name": "noise", "drop_prob": drop,
             "swap_prob": swap}
            for bid, (drop, swap) in zip(BACKEND_IDS, NOISE)
        ],
    }


def http_config(root: Path, seed: int, port: int, backends: int = len(NOISE)) -> dict:
    return {
        "corpus": str(root / CORPUS),
        "repetitions": REPETITIONS,
        "master_seed": seed,
        "backends": [
            {"id": bid, "kind": "http_llm", "model_name": "stub",
             "endpoint": f"http://127.0.0.1:{port}{endpoint_path(drop, swap, trad)}",
             "rate_limit_rps": HTTP_RATE_LIMIT_RPS, "max_workers": HTTP_MAX_WORKERS}
            for bid, (drop, swap), trad in list(zip(BACKEND_IDS, NOISE, HTTP_TRADITIONAL))[:backends]
        ],
    }


def synthetic_values(seed: int, design=STATS_DESIGN,
                     fully_missing: int = FULLY_MISSING_CELLS) -> dict[str, np.ndarray]:
    """Score grids per metric, sharing one missing pattern.

    Each score is a metric base plus a block difficulty, a treatment effect,
    a cell interaction and repetition noise, clipped at 0 (and at 1 except
    for TER, which rises as quality falls). About 1% of repetitions are
    missing, never a whole cell; ``fully_missing`` cells, in distinct blocks,
    miss every repetition, so block-mean imputation runs on them.
    """
    n, k, r = design
    rng = np.random.default_rng(seed)
    difficulty = rng.normal(0.0, 0.12, size=(n, 1, 1))
    quality = difficulty + np.array(TREATMENT_EFFECTS[:k]).reshape(1, k, 1)
    missing = rng.random((n, k, r)) < REP_MISSING_SHARE
    missing[missing.all(axis=2), 0] = False
    blocks = rng.choice(n, size=fully_missing, replace=False)
    missing[blocks, rng.integers(0, k, size=fully_missing), :] = True
    grids = {}
    for metric in METRICS:
        sign = -1.0 if metric == "ter" else 1.0
        values = (METRIC_BASE[metric] + sign * quality
                  + rng.normal(0.0, 0.05, size=(n, k, 1))
                  + rng.normal(0.0, 0.04, size=(n, k, r)))
        values = np.clip(values, 0.0, None if metric == "ter" else 1.0)
        values[missing] = np.nan
        grids[metric] = values
    return grids


def write_matrices(out_dir: Path, seed: int, design=STATS_DESIGN,
                   fully_missing: int = FULLY_MISSING_CELLS) -> list[Path]:
    """matrix_<metric>.json files in the format `bteval run` writes."""
    n, k, r = design
    grids = synthetic_values(seed, design, fully_missing)
    block_ids = [f"B{b:04d}" for b in range(1, n + 1)]
    treatment_ids = [f"sys-{chr(ord('a') + t)}" for t in range(k)]
    paths = []
    for metric, values in grids.items():
        grid = [[[None if v != v else v for v in cell] for cell in block]
                for block in values.tolist()]
        payload = {"metric": metric, "design": {"n": n, "k": k, "r": r},
                   "block_ids": block_ids, "treatment_ids": treatment_ids, "values": grid}
        path = out_dir / f"matrix_{metric}.json"
        path.write_text(json.dumps(payload, ensure_ascii=False) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
