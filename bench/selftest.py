"""The benchmark's own tests: every check passes on real artifacts and fails
on a deliberately corrupted copy of one.

    python3 bench/selftest.py

Artifacts come from small runs of the checkout's bteval: a 20-sample
mock run, a 4-sample run against the stub server, and stats/report over
small synthetic matrices. The corruptions are made on in-memory copies.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import sys
import threading
import unittest
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import bteval.cli as cli  # noqa: E402
from bteval.segmentation import default_lexicon, segment_words  # noqa: E402

import checks  # noqa: E402
import stub_server  # noqa: E402
import workloads as wl  # noqa: E402

DATA = ROOT / "src" / "bteval" / "data"
SEED = 5
STATS_DESIGN = (60, 4, 3)
STATS_FULLY_MISSING = 3


def bteval(*argv: str) -> None:
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"bteval {argv[0]} exited with {code}")


def segment(text: str) -> tuple[str, ...]:
    return segment_words(text, default_lexicon()).tokens


class Run:
    """One `bteval run` and its parsed artifacts."""

    def __init__(self, work: Path, name: str, samples: int, config: dict) -> None:
        lines = (ROOT / wl.CORPUS).read_text(encoding="utf-8").splitlines()[:samples]
        corpus = work / f"{name}.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = {**config, "corpus": str(corpus), "repetitions": 2, "master_seed": SEED}
        config_path = work / f"{name}.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        self.out = work / name
        bteval("run", "--config", str(config_path), "--out", str(self.out))
        self.config = config
        self.backend_ids = [b["id"] for b in config["backends"]]
        self.samples = checks.read_jsonl(corpus)
        self.records = checks.read_jsonl(self.out / "records.jsonl")
        self.manifest = json.loads((self.out / "manifest.json").read_text(encoding="utf-8"))
        self.matrices = checks.read_matrices(self.out)
        self.scores = checks.reference_scores(self.records, self.samples, segment)


class CheckTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.work = ROOT / ".bench_work" / "selftest"
        shutil.rmtree(cls.work, ignore_errors=True)
        cls.work.mkdir(parents=True)
        cls.mock = Run(cls.work, "mock", 20, {"backends": [
            {"id": bid, "kind": "mock", "model_name": "noise", "drop_prob": drop, "swap_prob": swap}
            for bid, (drop, swap) in zip(wl.BACKEND_IDS, ((0.02, 0.02), (0.15, 0.08), (0.4, 0.2)))
        ]})

        server = stub_server.make_server(0.0, stub_server.Counters())
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            config = wl.http_config(ROOT, SEED, port, backends=3)
            cls.http = Run(cls.work, "http", 4, {"backends": config["backends"]})
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

        cls.stats_dir = cls.work / "matrices"
        cls.stats_dir.mkdir()
        paths = wl.write_matrices(cls.stats_dir, SEED, STATS_DESIGN, STATS_FULLY_MISSING)
        cls.stats_out = cls.work / "stats"
        bteval("stats", *map(str, paths), "--out", str(cls.stats_out))
        bteval("report", str(cls.stats_dir), "--out", str(cls.stats_out))
        cls.stats_matrices = checks.read_matrices(cls.stats_dir)
        cls.report = json.loads((cls.stats_out / "stats_report.json").read_text(encoding="utf-8"))
        cls.bundle = json.loads((cls.stats_out / "plot_bundle.json").read_text(encoding="utf-8"))
        cls.pairwise = checks.read_csv(cls.stats_out / "pairwise_tests.csv")
        cls.correlations = checks.read_csv(cls.stats_out / "correlations.csv")
        cls.summaries = checks.read_csv(cls.stats_out / "summaries.csv")
        cls.oracle = checks.RouteOracle(checks.read_lexicon(DATA / "lexicon.txt"))
        cls.variants = checks.read_variant_table(DATA / "variant_table.txt")

    @classmethod
    def tearDownClass(cls) -> None:
        shutil.rmtree(cls.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # leave no empty scratch directory behind
            cls.work.parent.rmdir()

    def fails(self, fn, *args) -> None:
        with self.assertRaises(checks.CheckFailure):
            fn(*args)

    # -- every check passes on the real artifacts

    def test_clean_artifacts_pass(self) -> None:
        for run in (self.mock, self.http):
            checks.check_records(run.records, run.samples, run.backend_ids, 2, SEED)
            checks.check_manifest(run.manifest, run.samples, run.backend_ids, 2, SEED)
            texts = {s["text"] for s in run.samples} | {r["zhy"] for r in run.records}
            checks.check_segmentation(sorted(texts), segment, self.oracle)
            checks.check_scores(run.matrices, run.scores, run.samples, run.backend_ids)
            checks.check_flags(run.records, run.scores, self.variants)
            checks.check_reports(run.out, run.matrices)
        checks.check_transport(self.http.records, self.http.config["backends"])
        empties = checks.check_reports(self.stats_out, self.stats_matrices)
        self.assertEqual(set(empties.values()), {STATS_FULLY_MISSING})
        self.assertTrue(self.report["bleu"]["friedman"]["pairwise"], "Dunn never ran")
        self.assertTrue(self.pairwise, "no significant pair to corrupt")

    # -- records, manifest, transport

    def test_records_wrong_seed(self) -> None:
        records = copy.deepcopy(self.mock.records)
        records[3]["seed"] += 1
        self.fails(checks.check_records, records, self.mock.samples, self.mock.backend_ids, 2, SEED)

    def test_records_missing_one(self) -> None:
        records = self.mock.records[:-1]
        self.fails(checks.check_records, records, self.mock.samples, self.mock.backend_ids, 2, SEED)

    def test_manifest_wrong_scoring(self) -> None:
        manifest = copy.deepcopy(self.mock.manifest)
        manifest["scoring"]["chrf_beta"] = 3.0
        self.fails(checks.check_manifest, manifest, self.mock.samples, self.mock.backend_ids, 2, SEED)

    def test_transport_altered_backtranslation(self) -> None:
        records = copy.deepcopy(self.http.records)
        records[0]["zhy"] = records[0]["zhy"][1:]
        self.fails(checks.check_transport, records, self.http.config["backends"])

    # -- segmentation

    def test_segmentation_lossy(self) -> None:
        text = self.mock.samples[0]["text"]
        self.fails(checks.check_segmentation, [text], lambda t: segment(t)[1:], self.oracle)

    def test_segmentation_suboptimal_route(self) -> None:
        text = self.mock.samples[0]["text"]

        def split_first_word(t):
            tokens = list(segment(t))
            i = next(i for i, tok in enumerate(tokens) if len(tok) > 1)
            return tuple(tokens[:i] + list(tokens[i]) + tokens[i + 1:])

        self.fails(checks.check_segmentation, [text], split_first_word, self.oracle)

    # -- scores and flags

    def test_scores_bleu_off_by_1e9(self) -> None:
        matrices = copy.deepcopy(self.mock.matrices)
        matrices["bleu"]["array"][0, 0, 0] += 1e-9
        self.fails(checks.check_scores, matrices, self.mock.scores, self.mock.samples,
                   self.mock.backend_ids)

    def test_scores_ter_not_exact(self) -> None:
        matrices = copy.deepcopy(self.mock.matrices)
        cell = matrices["ter"]["array"]
        cell[1, 1, 1] = np.nextafter(cell[1, 1, 1], np.inf)
        self.fails(checks.check_scores, matrices, self.mock.scores, self.mock.samples,
                   self.mock.backend_ids)

    def test_scores_semantic_similarity(self) -> None:
        matrices = copy.deepcopy(self.mock.matrices)
        matrices["semantic_similarity"]["array"][2, 0, 1] *= 0.999
        self.fails(checks.check_scores, matrices, self.mock.scores, self.mock.samples,
                   self.mock.backend_ids)

    def test_verbatim_flag_flipped(self) -> None:
        records = copy.deepcopy(self.mock.records)
        records[0]["verbatim_flag"] = not records[0]["verbatim_flag"]
        self.fails(checks.check_flags, records, self.mock.scores, self.variants)

    def test_traditional_flag_flipped(self) -> None:
        flags = {r["traditional_flag"] for r in self.http.records}
        self.assertEqual(flags, {True, False}, "the stub's traditional forms set no flag, or all")
        for value in (True, False):
            records = copy.deepcopy(self.http.records)
            record = next(r for r in records if r["traditional_flag"] is value)
            record["traditional_flag"] = not value
            self.fails(checks.check_flags, records, self.http.scores, self.variants)

    # -- stats battery, CSVs and plot bundle

    def test_friedman_statistic(self) -> None:
        report = copy.deepcopy(self.report)
        report["chrf"]["friedman"]["statistic"] *= 1.000001
        self.fails(checks.check_battery, report, self.stats_matrices)

    def test_friedman_p_value(self) -> None:
        report = copy.deepcopy(self.report)
        report["bleu"]["friedman"]["p_value"] += 1e-6
        self.fails(checks.check_battery, report, self.stats_matrices)

    def test_smallest_p_doubled(self) -> None:
        """p-values compare by relative error: doubling one far below 1e-9 must fail."""

        def p_slots(report):
            for metric in sorted(report):
                friedman = report[metric]["friedman"]
                yield friedman, "p_value"
                for pair in friedman["pairwise"]:
                    yield pair, "raw_p"

        values = [holder[key] for holder, key in p_slots(self.report)]
        index = values.index(min(values))
        self.assertTrue(0.0 < values[index] < 1e-9, f"smallest p is {values[index]}")
        report = copy.deepcopy(self.report)
        holder, key = list(p_slots(report))[index]
        holder[key] *= 2.0
        self.fails(checks.check_battery, report, self.stats_matrices)

    def test_plot_bundle_small_p_doubled(self) -> None:
        bundle = copy.deepcopy(self.bundle)
        entry = min(bundle["scatter"], key=lambda e: e["adjusted_p"])
        self.assertTrue(0.0 < entry["adjusted_p"] < 1e-9, f"smallest p is {entry['adjusted_p']}")
        entry["adjusted_p"] *= 2.0
        self.fails(checks.check_correlations, self.correlations, bundle,
                   checks.reference_correlations(self.stats_matrices))

    def test_dunn_z(self) -> None:
        report = copy.deepcopy(self.report)
        report["bleu"]["friedman"]["pairwise"][0]["z"] += 1e-6
        self.fails(checks.check_battery, report, self.stats_matrices)

    def test_dunn_adjusted_p(self) -> None:
        report = copy.deepcopy(self.report)
        pair = report["bleu"]["friedman"]["pairwise"][-1]
        pair["adjusted_p"] = pair["raw_p"]
        self.fails(checks.check_battery, report, self.stats_matrices)

    def test_audit_line_dropped(self) -> None:
        report = copy.deepcopy(self.report)
        report["ter"]["audit"].pop()
        self.fails(checks.check_battery, report, self.stats_matrices)

    def test_pairwise_csv_value(self) -> None:
        rows = copy.deepcopy(self.pairwise)
        rows[0]["adjusted_p"] = f"{float(rows[0]['adjusted_p']) + 0.001:.4f}"
        self.fails(checks.check_pairwise_csv, rows, self.report)

    def test_correlations_csv_rho(self) -> None:
        rows = copy.deepcopy(self.correlations)
        rows[0]["rho"] = f"{float(rows[0]['rho']) - 0.001:.4f}"
        self.fails(checks.check_correlations, rows, self.bundle,
                   checks.reference_correlations(self.stats_matrices))

    def test_plot_bundle_rho(self) -> None:
        bundle = copy.deepcopy(self.bundle)
        bundle["scatter"][0]["rho"] += 1e-7
        self.fails(checks.check_correlations, self.correlations, bundle,
                   checks.reference_correlations(self.stats_matrices))

    def test_summary_quantile(self) -> None:
        rows = copy.deepcopy(self.summaries)
        rows[2]["q25"] = f"{float(rows[2]['q25']) + 0.0002:.4f}"
        self.fails(checks.check_summaries, rows, self.stats_matrices)

    def test_box_median(self) -> None:
        bundle = copy.deepcopy(self.bundle)
        box = bundle["boxplots"]["chrf"]["sys-b"]
        box["median"] += 1e-9
        self.fails(checks.check_plot_bundle, bundle, self.stats_matrices)

    def test_box_outlier_dropped(self) -> None:
        bundle = copy.deepcopy(self.bundle)
        boxes = [b for m in bundle["boxplots"].values() for b in m.values() if b["outliers"]]
        self.assertTrue(boxes, "no outliers to drop")
        boxes[0]["outliers"].pop()
        self.fails(checks.check_plot_bundle, bundle, self.stats_matrices)

    def test_scatter_point(self) -> None:
        bundle = copy.deepcopy(self.bundle)
        bundle["scatter"][3]["points"][7][1] += 1e-9
        self.fails(checks.check_plot_bundle, bundle, self.stats_matrices)


if __name__ == "__main__":
    unittest.main()
