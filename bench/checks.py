"""Correctness checks made apart from the program.

Every check recomputes an artifact of a pass from its inputs with code of
its own (or with scipy and numpy) and compares. Only word segmentation is
taken from the program, because the metrics are defined over it, and the
segmentation has checks of its own: tokens must rejoin to the text, and the
chosen route must score as high as a separate forward Viterbi pass over the
same lexicon file. Each check raises CheckFailure naming what differs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np
from scipy import stats as sps

from stub_server import reply_text

SCORE_TOL = 1e-12
ROUTE_TOL = 1e-9
STAT_TOL = 1e-9  # relative, for statistics and p-values
P_FLOOR = 1e-300  # p-values below this compare as equal
CSV_TOL = 5e-5 + 1e-9  # 4-decimal rounding plus float slack

ALPHA = 0.05  # the CLI's default significance level and BH correction are used
VERBATIM_THRESHOLD = 0.70
TRADITIONAL_THRESHOLD = 0.05
TECHNICAL = (0.5, 0.5, 0.0, 0.0)
UNIFORM = (0.25, 0.25, 0.25, 0.25)
CHRF_MAX_N = 6
CHRF_BETA = 2.0
DEFAULT_SCORING = {
    "bleu_weights": list(TECHNICAL), "bleu_unif_weights": list(UNIFORM),
    "smoothing_epsilon": None, "chrf_max_n": CHRF_MAX_N, "chrf_beta": CHRF_BETA,
    "level": "word",
}
METRICS = ("bleu", "bleu_unif", "chrf", "ter", "semantic_similarity")

HAN_RANGES = ((0x3400, 0x4DBF), (0x4E00, 0x9FFF), (0xF900, 0xFAFF), (0x20000, 0x2FA1F))


class CheckFailure(AssertionError):
    """An artifact disagrees with the independent computation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _close(a: float, b: float, tol: float, floor: float) -> bool:
    """|a - b| within ``tol`` of |b|, or of ``floor`` where |b| is smaller. p-values use a
    floor near the smallest double, so a p of 1e-40 must agree to its leading digits."""
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol * max(abs(b), floor)


# ---------------------------------------------------------------- inputs


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip()]


def read_matrix(path: Path) -> dict:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    data["array"] = np.array(
        [[[np.nan if v is None else v for v in cell] for cell in block] for block in data["values"]],
        dtype=float,
    )
    return data


def read_matrices(directory: Path) -> dict[str, dict]:
    return {m["metric"]: m for m in map(read_matrix, sorted(Path(directory).glob("matrix_*.json")))}


def read_lexicon(path: Path) -> dict[str, int]:
    entries: dict[str, int] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        parts = line.strip().split(" ")
        if len(parts) >= 2:
            entries[parts[0]] = entries.get(parts[0], 0) + int(parts[1])
    return entries


def read_variant_table(path: Path) -> set[str]:
    return {line.split()[0] for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip()}


def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ------------------------------------------------- reference computations


def ref_bleu(cand, ref, weights) -> float:
    """Unsmoothed weighted-geometric-mean BLEU; orders empty on both sides are skipped."""
    c, r = len(cand), len(ref)
    if c == 0:
        return 0.0
    log_sum = 0.0
    for n, weight in enumerate(weights, start=1):
        if weight == 0.0:
            continue
        cand_grams = Counter(tuple(cand[i:i + n]) for i in range(c - n + 1))
        ref_grams = Counter(tuple(ref[i:i + n]) for i in range(r - n + 1))
        total = sum(cand_grams.values())
        if total == 0 and r < n:
            continue
        matched = sum((cand_grams & ref_grams).values())
        if matched == 0:
            return 0.0
        log_sum += weight * math.log(matched / total)
    penalty = 1.0 if c >= r else math.exp(1.0 - r / c)
    return penalty * math.exp(log_sum)


def ref_chrf(cand: str, ref: str) -> float:
    cand = "".join(cand.split())
    ref = "".join(ref.split())
    beta_sq = CHRF_BETA ** 2
    scores = []
    for n in range(1, CHRF_MAX_N + 1):
        if len(cand) < n and len(ref) < n:
            continue
        cand_grams = Counter(cand[i:i + n] for i in range(len(cand) - n + 1))
        ref_grams = Counter(ref[i:i + n] for i in range(len(ref) - n + 1))
        matched = sum((cand_grams & ref_grams).values())
        precision = matched / sum(cand_grams.values()) if cand_grams else 0.0
        recall = matched / sum(ref_grams.values()) if ref_grams else 0.0
        if precision + recall == 0.0:
            scores.append(0.0)
        else:
            scores.append((1 + beta_sq) * precision * recall / (beta_sq * precision + recall))
    return sum(scores) / len(scores) if scores else 0.0


def ref_edit_distance(cand, ref) -> int:
    """Levenshtein distance, one row at a time: the in-row insertion chain is a
    running minimum of (row - column index), then shifted back."""
    ids = {tok: i for i, tok in enumerate(set(cand) | set(ref))}
    r = np.array([ids[t] for t in ref], dtype=np.int64)
    cols = np.arange(len(ref) + 1)
    previous = cols.copy()
    for i, tok in enumerate(cand, start=1):
        best = np.empty(len(ref) + 1, dtype=np.int64)
        best[0] = i
        best[1:] = np.minimum(previous[1:] + 1, previous[:-1] + (r != ids[tok]))
        previous = np.minimum.accumulate(best - cols) + cols
    return int(previous[-1])


def ref_idf(documents) -> dict[str, float]:
    df = Counter(tok for doc in documents for tok in set(doc))
    count = len(documents)
    return {tok: math.log((1 + count) / (1 + d)) + 1.0 for tok, d in df.items()}


def ref_cosine(cand, ref, idf: dict[str, float]) -> float:
    a = {t: c * idf[t] for t, c in Counter(cand).items()}
    b = {t: c * idf[t] for t, c in Counter(ref).items()}
    dot = sum(w * b.get(t, 0.0) for t, w in a.items())
    norm = math.sqrt(sum(w * w for w in a.values())) * math.sqrt(sum(w * w for w in b.values()))
    return min(1.0, max(0.0, dot / norm)) if norm else 0.0


class RouteOracle:
    """Forward Viterbi over the lexicon's word graph: lexicon words, plus a
    single-character edge where no lexicon word starts."""

    def __init__(self, lexicon: dict[str, int]) -> None:
        self.lexicon = lexicon
        total = sum(lexicon.values())
        self.floor = -math.log(total)
        self.log_prob = {w: math.log(f) - math.log(total) for w, f in lexicon.items()}
        self.max_len = max(map(len, lexicon))

    def _edges(self, chunk: str, i: int) -> list[str]:
        words = [chunk[i:i + n] for n in range(1, min(self.max_len, len(chunk) - i) + 1)
                 if chunk[i:i + n] in self.lexicon]
        return words or [chunk[i]]

    def _weight(self, word: str) -> float:
        return self.log_prob.get(word, self.floor)

    def best(self, text: str) -> float:
        total = 0.0
        for chunk in text.split():
            best = [-math.inf] * (len(chunk) + 1)
            best[0] = 0.0
            for i in range(len(chunk)):
                for word in self._edges(chunk, i):
                    j = i + len(word)
                    best[j] = max(best[j], best[i] + self._weight(word))
            total += best[-1]
        return total

    def score(self, text: str, tokens) -> float:
        """Score of a token route; fails when a token is not an edge of the graph."""
        tokens = list(tokens)
        total, k = 0.0, 0
        for chunk in text.split():
            i = 0
            while i < len(chunk):
                _require(k < len(tokens), "tokens end before the text")
                tok = tokens[k]
                _require(chunk.startswith(tok, i) and tok in self._edges(chunk, i),
                         f"token {tok!r} at {i} is not an edge of the word graph")
                total += self._weight(tok)
                i += len(tok)
                k += 1
        _require(k == len(tokens), "tokens left over after the text")
        return total


def ref_bh(p_values) -> list[float]:
    """Benjamini-Hochberg step-up adjustment, in input order."""
    m = len(p_values)
    order = sorted(range(m), key=lambda i: p_values[i])
    adjusted = [0.0] * m
    running = 1.0
    for rank in range(m, 0, -1):
        i = order[rank - 1]
        running = min(running, m * p_values[i] / rank)
        adjusted[i] = min(1.0, running)
    return adjusted


def imputed_grid(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Cell means with empty cells filled by their block's mean of cell means."""
    present = ~np.isnan(values)
    counts = present.sum(axis=2)
    sums = np.where(present, values, 0.0).sum(axis=2)
    grid = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    empty = np.isnan(grid)
    for b in np.flatnonzero(empty.any(axis=1)):
        grid[b, empty[b]] = grid[b, ~empty[b]].mean()
    return grid, int(empty.sum())


# ---------------------------------------------------------------- checks


def check_records(records, samples, backend_ids, repetitions, master_seed) -> None:
    expected = sorted((s["id"], b, rep) for s in samples for b in backend_ids
                      for rep in range(1, repetitions + 1))
    got = [(r["sample_id"], r["backend_id"], r["repetition"]) for r in records]
    _require(got == expected, "records are not one per (sample, backend, repetition) in sorted order")
    texts = {s["id"]: s["text"] for s in samples}
    for rec in records:
        key = f"{master_seed}:{rec['sample_id']}:{rec['backend_id']}:{rec['repetition']}"
        seed = int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big") >> 1
        _require(rec["seed"] == seed, f"derived seed differs for {key}")
        _require(rec["zhx"] == texts[rec["sample_id"]], f"zhx differs from the corpus for {key}")
        _require(rec["prompt_variant"] == (rec["repetition"] - 1) % 3, f"prompt variant for {key}")


def check_manifest(manifest: dict, samples, backend_ids, repetitions, master_seed) -> None:
    _require(manifest["scoring"] == DEFAULT_SCORING, "manifest scoring is not the default")
    _require(manifest["design"] == {"n": len(samples), "k": len(backend_ids), "r": repetitions},
             "manifest design differs")
    _require(manifest["master_seed"] == master_seed, "manifest master seed differs")
    _require(manifest["backend_ids"] == list(backend_ids), "manifest backends differ")


def check_segmentation(texts, segment, oracle: RouteOracle) -> None:
    for text in texts:
        tokens = segment(text)
        _require("".join(tokens) == "".join(text.split()),
                 f"tokens do not rejoin to the text: {text[:20]!r}")
        route, best = oracle.score(text, tokens), oracle.best(text)
        _require(abs(route - best) <= ROUTE_TOL * max(1.0, abs(best)),
                 f"route score {route} below the best {best} for {text[:20]!r}")


def reference_scores(records, samples, segment) -> dict:
    """(sample, backend, rep) -> the five metrics, recomputed."""
    ok = [r for r in records if r["error"] is None]
    docs = [segment(s["text"]) for s in samples] + [segment(r["zhy"]) for r in ok]
    idf = ref_idf(docs)
    scores = {}
    for rec in ok:
        ref, cand = segment(rec["zhx"]), segment(rec["zhy"])
        scores[(rec["sample_id"], rec["backend_id"], rec["repetition"])] = {
            "bleu": ref_bleu(cand, ref, TECHNICAL),
            "bleu_unif": ref_bleu(cand, ref, UNIFORM),
            "chrf": ref_chrf(rec["zhy"], rec["zhx"]),
            "ter": ref_edit_distance(cand, ref) / len(ref),
            "semantic_similarity": ref_cosine(cand, ref, idf),
        }
    return scores


def check_scores(matrices, scores, samples, backend_ids) -> None:
    blocks = {s["id"]: b for b, s in enumerate(samples)}
    treatments = {bid: t for t, bid in enumerate(backend_ids)}
    for metric in METRICS:
        values = matrices[metric]["array"]
        expected = np.full(values.shape, np.nan)
        for (sid, bid, rep), vector in scores.items():
            expected[blocks[sid], treatments[bid], rep - 1] = vector[metric]
        _require(np.array_equal(np.isnan(values), np.isnan(expected)),
                 f"{metric}: missing cells differ from the error records")
        diff = np.nanmax(np.abs(values - expected)) if (~np.isnan(values)).any() else 0.0
        tol = 0.0 if metric == "ter" else SCORE_TOL
        _require(diff <= tol, f"{metric}: largest difference from the reference {diff:.3g}")


def check_flags(records, scores, variant_chars: set[str]) -> None:
    for rec in records:
        if rec["error"] is not None:
            continue
        key = (rec["sample_id"], rec["backend_id"], rec["repetition"])
        _require(rec["verbatim_flag"] == (scores[key]["bleu"] >= VERBATIM_THRESHOLD),
                 f"verbatim flag of {key}")
        han = [ch for ch in rec["zhy"] if any(lo <= ord(ch) <= hi for lo, hi in HAN_RANGES)]
        traditional = sum(ch in variant_chars for ch in han)
        ratio = traditional / len(han) if han else 0.0
        _require(rec["traditional_flag"] == (ratio > TRADITIONAL_THRESHOLD),
                 f"traditional flag of {key}")


def check_transport(records, backends) -> None:
    """Each leg's text is what the stub returns for that path, text and seed."""
    paths = {b["id"]: urlsplit(b["endpoint"]).path for b in backends}
    for rec in records:
        path = paths[rec["backend_id"]]
        en = reply_text(path, rec["zhx"], rec["seed"])
        _require(rec["en"] == en, f"forward leg of {rec['sample_id']}/{rec['backend_id']}")
        _require(rec["zhy"] == reply_text(path, en, rec["seed"]),
                 f"backward leg of {rec['sample_id']}/{rec['backend_id']}")


def check_battery(report: dict, matrices) -> dict[str, int]:
    """Friedman against scipy, Dunn from the rank definition, audit counts;
    returns the count of wholly missing cells per metric."""
    empties = {}
    for metric, matrix in sorted(matrices.items()):
        _require(metric in report, f"{metric}: no battery in stats_report.json")
        entry = report[metric]
        grid, empties[metric] = imputed_grid(matrix["array"])
        n, k = grid.shape
        imputed = [a for a in entry["audit"] if a.startswith("imputed")]
        _require(len(imputed) == empties[metric] == len(entry["audit"]),
                 f"{metric}: audit lists {len(entry['audit'])} entries for {empties[metric]} empty cells")
        statistic, p_value = sps.friedmanchisquare(*grid.T)
        got = entry["friedman"]
        _require(_close(got["statistic"], statistic, STAT_TOL, 1.0),
                 f"{metric}: Friedman statistic {got['statistic']} != {statistic}")
        _require(_close(got["p_value"], p_value, STAT_TOL, P_FLOOR),
                 f"{metric}: Friedman p {got['p_value']} != {p_value}")
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        if got["p_value"] >= ALPHA:
            _require(got["pairwise"] == [], f"{metric}: post-hoc ran without a significant omnibus")
            continue
        mean_ranks = sps.rankdata(grid, axis=1).mean(axis=0)
        scale = math.sqrt(k * (k + 1) / (6.0 * n))
        zs = [(mean_ranks[i] - mean_ranks[j]) / scale for i, j in pairs]
        raw = [float(2.0 * sps.norm.sf(abs(z))) for z in zs]
        adjusted = ref_bh(raw)
        col_means = grid.mean(axis=0)
        ids = matrix["treatment_ids"]
        _require(len(got["pairwise"]) == len(pairs), f"{metric}: {len(got['pairwise'])} Dunn pairs")
        for pair, (i, j), z, p, adj in zip(got["pairwise"], pairs, zs, raw, adjusted):
            label = f"{metric}: Dunn {ids[i]}-{ids[j]}"
            _require((pair["treatment_a"], pair["treatment_b"]) == (ids[i], ids[j]), label)
            _require(_close(pair["z"], z, STAT_TOL, 1.0), f"{label} z {pair['z']} != {z}")
            _require(_close(pair["raw_p"], p, STAT_TOL, P_FLOOR), f"{label} raw p")
            _require(_close(pair["adjusted_p"], adj, STAT_TOL, P_FLOOR), f"{label} adjusted p")
            _require(_close(pair["mean_difference"], col_means[i] - col_means[j], 1e-12, 1.0),
                     f"{label} mean difference")
    return empties


def check_pairwise_csv(rows, report: dict) -> None:
    expected = [
        (metric, p["treatment_a"], p["treatment_b"], p["mean_difference"], p["adjusted_p"])
        for metric in sorted(report) for p in report[metric]["friedman"]["pairwise"]
        if p["adjusted_p"] < ALPHA
    ]
    _require(len(rows) == len(expected), f"pairwise_tests.csv has {len(rows)} rows, not {len(expected)}")
    for row, (metric, a, b, diff, adj) in zip(rows, expected):
        _require((row["metric"], row["model_a"], row["model_b"], row["significant"])
                 == (metric, a, b, "true"), f"pairwise row {row}")
        _require(abs(float(row["mean_difference"]) - diff) <= CSV_TOL, f"pairwise row {row}")
        _require(abs(float(row["adjusted_p"]) - adj) <= CSV_TOL, f"pairwise row {row}")


def reference_correlations(matrices) -> list[tuple[str, str, float, float, float]]:
    names = sorted(matrices)
    flat = {m: matrices[m]["array"].reshape(-1) for m in names}
    valid = ~np.any([np.isnan(flat[m]) for m in names], axis=0)
    series = {m: flat[m][valid] for m in names
              if valid.sum() >= 3 and np.unique(flat[m][valid]).size > 1}
    keys = list(series)
    pairs = [(a, b) for i, a in enumerate(keys) for b in keys[i + 1:]]
    results = [sps.spearmanr(series[a], series[b]) for a, b in pairs]
    raw = [float(r.pvalue) for r in results]
    adjusted = ref_bh(raw)
    return [(a, b, float(r.statistic), p, adj)
            for (a, b), r, p, adj in zip(pairs, results, raw, adjusted)]


def check_correlations(rows, bundle: dict, expected) -> None:
    _require(len(rows) == len(expected), f"correlations.csv has {len(rows)} rows, not {len(expected)}")
    for row, (a, b, rho, p, adj) in zip(rows, expected):
        _require((row["metric_a"], row["metric_b"]) == (a, b), f"correlation row {row}")
        for name, value in (("rho", rho), ("raw_p", p), ("adjusted_p", adj)):
            _require(abs(float(row[name]) - value) <= CSV_TOL,
                     f"correlation {a}-{b} {name} {row[name]} != {value:.6f}")
    annotated = {(s["metric_a"], s["metric_b"]): s for s in bundle["scatter"]}
    for a, b, rho, _, adj in expected:
        entry = annotated[(a, b)]
        _require(_close(entry["rho"], rho, STAT_TOL, 1.0), f"plot bundle rho {a}-{b}")
        _require(_close(entry["adjusted_p"], adj, STAT_TOL, P_FLOOR),
                 f"plot bundle adjusted p {a}-{b}")


def _observations(matrix: dict, column: int | None = None) -> np.ndarray:
    values = matrix["array"] if column is None else matrix["array"][:, column, :]
    flat = values.reshape(-1)
    return flat[~np.isnan(flat)]


def check_summaries(rows, matrices) -> None:
    expected = []
    for metric in sorted(matrices):
        matrix = matrices[metric]
        expected.append((metric, "global", _observations(matrix)))
        for t, treatment in enumerate(matrix["treatment_ids"]):
            column = _observations(matrix, t)
            if column.size:
                expected.append((metric, treatment, column))
    _require(len(rows) == len(expected), f"summaries.csv has {len(rows)} rows, not {len(expected)}")
    for row, (metric, scope, values) in zip(rows, expected):
        label = f"summary {metric}/{scope}"
        _require((row["metric"], row["scope"], int(row["count"])) == (metric, scope, values.size),
                 f"{label}: identity or count")
        q25, median, q75 = np.percentile(values, [25, 50, 75])
        reference = {
            "mean": values.mean(), "std": values.std(ddof=1) if values.size > 1 else 0.0,
            "min": values.min(), "q25": q25, "median": median, "q75": q75, "max": values.max(),
        }
        for name, value in reference.items():
            _require(abs(float(row[name]) - value) <= CSV_TOL,
                     f"{label}: {name} {row[name]} != {value:.6f}")


def check_plot_bundle(bundle: dict, matrices) -> None:
    names = sorted(matrices)
    _require(sorted(bundle["boxplots"]) == names, "plot bundle box plot metrics")
    for metric in names:
        matrix = matrices[metric]
        for t, treatment in enumerate(matrix["treatment_ids"]):
            values = _observations(matrix, t)
            box = bundle["boxplots"][metric][treatment]
            reference = dict(zip(("min", "q25", "median", "q75", "max"),
                                 np.percentile(values, [0, 25, 50, 75, 100])))
            for name, value in reference.items():
                _require(abs(box[name] - value) <= SCORE_TOL,
                         f"box {metric}/{treatment} {name} {box[name]} != {value}")
            iqr = box["q75"] - box["q25"]
            low, high = box["q25"] - 1.5 * iqr, box["q75"] + 1.5 * iqr
            outliers = np.sort(values[(values < low) | (values > high)])
            _require(np.array_equal(np.array(box["outliers"], dtype=float), outliers),
                     f"box {metric}/{treatment} outliers")
    flat = {m: matrices[m]["array"].reshape(-1) for m in names}
    expected_pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    _require([(s["metric_a"], s["metric_b"]) for s in bundle["scatter"]] == expected_pairs,
             "plot bundle scatter pairs")
    for entry in bundle["scatter"]:
        a, b = flat[entry["metric_a"]], flat[entry["metric_b"]]
        mask = ~(np.isnan(a) | np.isnan(b))
        points = np.array(entry["points"], dtype=float).reshape(-1, 2)
        _require(np.array_equal(points, np.column_stack([a[mask], b[mask]])),
                 f"scatter points {entry['metric_a']}-{entry['metric_b']}")


def check_reports(out_dir: Path, matrices) -> dict[str, int]:
    """Every check on stats and report output; returns wholly missing cells per metric."""
    out_dir = Path(out_dir)
    report = json.loads((out_dir / "stats_report.json").read_text(encoding="utf-8"))
    bundle = json.loads((out_dir / "plot_bundle.json").read_text(encoding="utf-8"))
    empties = check_battery(report, matrices)
    check_pairwise_csv(read_csv(out_dir / "pairwise_tests.csv"), report)
    check_correlations(read_csv(out_dir / "correlations.csv"), bundle,
                       reference_correlations(matrices))
    check_summaries(read_csv(out_dir / "summaries.csv"), matrices)
    check_plot_bundle(bundle, matrices)
    return empties
