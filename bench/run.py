"""bteval benchmark: end-to-end passes of the bteval CLI on three seeded
workloads, independent correctness checks, and a traced run for per-layer
figures.

    python3 bench/run.py --workload mock_89x5x3 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload http_k5_latency --seed 1 --seconds 0   # fingerprints

Run from the root of a bteval checkout; bteval is imported from its src/.
Each pass runs in a fresh interpreter (bench/worker.py), so set-up time and
peak memory are the pass's own. Passes repeat until the next one would end
after --seconds; the end-to-end figures are medians over the passes. With
--trace 1 the passes alternate untraced and traced, and the result carries
the per-layer figures instead. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402

# set-up-only interpreters before each pass, so the set-ups sample the whole run
SETUP_PROBES_PER_PASS = 4
MIN_PASSES = 2  # fingerprints are compared across passes
CHILD_TIMEOUT_S = 150.0
RUN_ARTIFACTS = ("records.jsonl", "summaries.csv", "pairwise_tests.csv", "correlations.csv",
                 "plot_bundle.json", "stats_report.json")
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s"))


class BenchError(RuntimeError):
    """The benchmark could not run a pass; no result is printed."""


# ------------------------------------------------------------ child processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_worker(spec: dict, work: Path, tag: str) -> tuple[float, dict | None]:
    """Start a worker; return (seconds until it was ready, its result or None)."""
    spec_path = work / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(work / f"{tag}.stderr", "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                                stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
            proc.wait()
            proc.stdout.close()
        if ready.strip() != b"ready" or proc.returncode != 0:
            err.seek(0)
            raise BenchError(f"worker {tag} exited with {proc.returncode}: {err.read()[-2000:]}")
    if spec["setup_only"]:
        return setup_s, None
    return setup_s, json.loads(rest.decode("utf-8").splitlines()[-1])


class Stub:
    """The stub translation server, as a child process."""

    def __init__(self, work: Path) -> None:
        self._err = open(work / "stub.stderr", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub_server.py"), "--latency-ms", str(wl.STUB_LATENCY_MS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._err, text=True, cwd=ROOT,
        )
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise BenchError("stub server did not start")
        self.port = int(line)

    def counters(self) -> dict:
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=15)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self._err.close()


# ------------------------------------------------------------------ workloads


class Workload:
    """Inputs, commands and operation counts of one workload in one run."""

    def __init__(self, name: str, seed: int, work: Path, backends: int) -> None:
        self.name, self.seed, self.work = name, seed, work
        self.stub = None
        self.spec = {}
        if name == wl.STATS:
            self.matrix_dir = work / "matrices"
            self.matrix_dir.mkdir()
            self.matrices = wl.write_matrices(self.matrix_dir, seed)
            self.spec["matrices"] = [str(p) for p in self.matrices]
            return
        if name == wl.HTTP:
            self.stub = Stub(work)
            config = wl.http_config(ROOT, seed, self.stub.port, backends)
        else:
            config = wl.mock_config(ROOT, seed)
        self.config = config
        self.config_path = work / "run.json"
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        self.spec["corpus"] = config["corpus"]
        samples = len(checks.read_jsonl(config["corpus"]))
        self.records_expected = samples * len(config["backends"]) * wl.REPETITIONS

    def commands(self, out: Path) -> list[list[str]]:
        if self.name == wl.STATS:
            return [["stats", *self.spec["matrices"], "--out", str(out)],
                    ["report", str(self.matrix_dir), "--out", str(out)]]
        return [["run", "--config", str(self.config_path), "--out", str(out),
                 "--seed", str(self.seed)]]

    def artifacts(self, out: Path) -> dict[str, Path]:
        matrix_dir = self.matrix_dir if self.name == wl.STATS else out
        found = {p.name: p for p in sorted(matrix_dir.glob("matrix_*.json"))}
        for name in RUN_ARTIFACTS:
            if name != "records.jsonl" or self.name != wl.STATS:
                found[name] = out / name
        return found

    def operations(self, out: Path, stub_delta: dict | None) -> tuple[int, int]:
        """(attempted, failed) for one pass: records, metric batteries, stub requests."""
        report_path = out / "stats_report.json"
        batteries = json.loads(report_path.read_text(encoding="utf-8")) if report_path.is_file() else {}
        attempted = len(wl.METRICS)
        failed = len(wl.METRICS) - sum(metric in batteries for metric in wl.METRICS)
        if self.name == wl.STATS:
            return attempted, failed
        expected = self.records_expected
        records_path = out / "records.jsonl"
        lines = records_path.read_text(encoding="utf-8").splitlines() if records_path.is_file() else []
        errors = sum(json.loads(line)["error"] is not None for line in lines if line.strip())
        attempted += expected
        failed += errors + max(0, expected - len(lines))
        if stub_delta is not None:
            legs = 2 * expected
            attempted += max(legs, stub_delta["requests"])
            failed += stub_delta["non_2xx"] + max(0, stub_delta["requests"] - legs)
        return attempted, failed

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()


# ---------------------------------------------------------------- measurement


def fingerprints(paths: dict[str, Path]) -> dict[str, str]:
    return {name: checks.sha256(path) if path.is_file() else "missing"
            for name, path in paths.items()}


def measure(load: Workload, seconds: float, trace: bool) -> dict:
    setups = []
    passes = []
    start = time.perf_counter()
    while True:
        index = len(passes)
        traced = trace and index % 2 == 1
        cycle_start = time.perf_counter()
        for i in range(SETUP_PROBES_PER_PASS):
            setup_s, _ = run_worker({**load.spec, "setup_only": True, "trace": False},
                                    load.work, f"probe{index}.{i}")
            setups.append(setup_s)
        out = load.work / f"pass{index}"
        before = load.stub.counters() if load.stub else None
        setup_s, result = run_worker(
            {**load.spec, "setup_only": False, "trace": traced, "commands": load.commands(out)},
            load.work, f"pass{index}")
        stub_delta = None
        if load.stub:
            after = load.stub.counters()
            stub_delta = {k: after[k] - before[k] for k in after}
        attempted, failed = load.operations(out, stub_delta)
        plot_bundle = out / "plot_bundle.json"
        passes.append({
            **result, "setup_s": setup_s, "traced": traced, "out": out,
            "stub": stub_delta, "attempted": attempted, "failed": failed,
            "fingerprints": fingerprints(load.artifacts(out)),
            "plot_bundle_bytes": plot_bundle.stat().st_size if plot_bundle.is_file() else 0,
        })
        if not traced:
            setups.append(setup_s)
        if index > 0:
            shutil.rmtree(out)  # the first pass's artifacts are kept for the checks
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and (now - start) + (now - cycle_start) > seconds:
            return {"setups": setups, "passes": passes}


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(measured: dict) -> dict:
    plain = [p for p in measured["passes"] if not p["traced"]]
    values = {name: median(p[name] for p in plain) for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    values["setup_s"] = median(measured["setups"])
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


# ------------------------------------------------------------------- checking


def check(load: Workload, measured: dict) -> list[str]:
    """Run every independent check on the first pass; return the failures."""
    passes = measured["passes"]
    out = passes[0]["out"]
    failures = []
    for p in passes:
        if any(code != 0 for code in p["exit_codes"]):
            failures.append(f"pass exit codes {p['exit_codes']}: {p['stderr'][-500:]}")
        if p["fingerprints"] != passes[0]["fingerprints"]:
            failures.append("artifact fingerprints differ between passes of one seed")
        if "missing" in p["fingerprints"].values():
            failures.append("an artifact is missing")
    if failures:
        return failures

    def attempt(name, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # a malformed artifact fails its check, not the benchmark
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    if load.name == wl.STATS:
        matrices = checks.read_matrices(load.matrix_dir)
        empties = attempt("reports", checks.check_reports, out, matrices)
        if empties is not None and set(empties.values()) != {wl.FULLY_MISSING_CELLS}:
            failures.append(f"audit: wholly missing cells {empties} != {wl.FULLY_MISSING_CELLS}")
        return failures

    from bteval.segmentation import default_lexicon, segment_words

    lexicon = default_lexicon()
    cache: dict[str, tuple[str, ...]] = {}

    def segment(text: str) -> tuple[str, ...]:
        if text not in cache:
            cache[text] = segment_words(text, lexicon).tokens
        return cache[text]

    data = SRC / "bteval" / "data"
    samples = checks.read_jsonl(load.config["corpus"])
    records = checks.read_jsonl(out / "records.jsonl")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    matrices = checks.read_matrices(out)
    backend_ids = [b["id"] for b in load.config["backends"]]
    attempt("records", checks.check_records, records, samples, backend_ids, wl.REPETITIONS, load.seed)
    attempt("manifest", checks.check_manifest, manifest, samples, backend_ids, wl.REPETITIONS,
            load.seed)
    texts = sorted({s["text"] for s in samples} | {r["zhy"] for r in records if r["error"] is None})
    oracle = checks.RouteOracle(checks.read_lexicon(data / "lexicon.txt"))
    attempt("segmentation", checks.check_segmentation, texts, segment, oracle)
    scores = attempt("scores", checks.reference_scores, records, samples, segment)
    if scores is not None:
        attempt("scores", checks.check_scores, matrices, scores, samples, backend_ids)
        attempt("flags", checks.check_flags, records, scores,
                checks.read_variant_table(data / "variant_table.txt"))
    if load.stub:
        attempt("transport", checks.check_transport, records, load.config["backends"])
    if len(backend_ids) >= 3:  # scipy's Friedman test, the reference, needs three treatments
        attempt("reports", checks.check_reports, out, matrices)
    return failures


# -------------------------------------------------------------------- tracing


def percentile(samples_s, q: float) -> float:
    return float(np.percentile(np.array(samples_s) * 1000.0, q)) if samples_s else 0.0


def standalone_throughput(load: Workload, out: Path) -> dict:
    """Segmentation and per-metric throughput on the first pass's pairs, one call at a time
    (0 where the workload scores nothing)."""
    if load.name == wl.STATS:
        return {"segmentation.chars_per_s": 0.0,
                **{f"metrics.{name}.pairs_per_s": 0.0 for name in wl.METRICS}}
    from bteval import metrics, segmentation

    lexicon = segmentation.default_lexicon()
    records = [r for r in checks.read_jsonl(out / "records.jsonl") if r["error"] is None]
    texts = sorted({r["zhx"] for r in records} | {r["zhy"] for r in records})
    chars = sum(len("".join(t.split())) for t in texts)
    sweeps = []
    for _ in range(3):
        start = time.perf_counter()
        for text in texts:
            segmentation.segment_words(text, lexicon)
        sweeps.append(time.perf_counter() - start)
    tokens = {t: segmentation.segment_words(t, lexicon) for t in texts}
    pairs = [(tokens[r["zhy"]], tokens[r["zhx"]], r["zhy"], r["zhx"]) for r in records]
    idf = metrics.fit_idf([tokens[r["zhx"]] for r in records] + [c for c, _, _, _ in pairs])
    technical = metrics.BleuConfig(metrics.TECHNICAL_WEIGHTS)
    uniform = metrics.BleuConfig(metrics.UNIFORM_WEIGHTS)
    jobs = {
        "bleu": lambda c, r, cs, rs: metrics.bleu(c, r, technical),
        "bleu_unif": lambda c, r, cs, rs: metrics.bleu(c, r, uniform),
        "chrf": lambda c, r, cs, rs: metrics.chrf(cs, rs),
        "ter": lambda c, r, cs, rs: metrics.ter(c, r),
        "semantic_similarity": lambda c, r, cs, rs: metrics.semantic_similarity(c, r, idf),
    }
    figures = {"segmentation.chars_per_s": chars / median(sweeps)}
    for name, job in jobs.items():
        start = time.perf_counter()
        for pair in pairs:
            job(*pair)
        figures[f"metrics.{name}.pairs_per_s"] = len(pairs) / (time.perf_counter() - start)
    return figures


def per_layer(load: Workload, measured: dict) -> dict:
    traced = [p for p in measured["passes"] if p["traced"]]
    plain = [p for p in measured["passes"] if not p["traced"]]

    def from_trace(p: dict) -> dict:
        setup, run = p["trace"]["setup"], p["trace"]["pass"]
        busy, calls, samples = run["busy_s"], run["calls"], run["samples_s"]
        seg_calls = calls.get("segmentation.segment_words", 0)
        seg_unique = run["unique"].get("segmentation.segment_words", 0)
        stub = p["stub"] or {"requests": 0, "connections": 0}
        emitters = ("pipeline.write_records", "report.emit_summaries_csv",
                    "report.emit_pairwise_csv", "report.emit_correlations_csv",
                    "report.emit_plot_data", "report.emit_stats_report")
        return {
            "corpus.parse_s": setup["busy_s"].get("corpus.parse_corpus", 0.0),
            "segmentation.calls": seg_calls,
            "segmentation.calls_per_unique_text": seg_calls / seg_unique if seg_unique else 0.0,
            "segmentation.busy_s": busy.get("segmentation.segment_words", 0.0),
            "segmentation.lexicon_load_s": setup["busy_s"].get("segmentation.load_lexicon", 0.0),
            "metrics.score_pair.busy_s": busy.get("metrics.score_pair", 0.0),
            "metrics.fit_idf_s": busy.get("metrics.fit_idf", 0.0),
            "pipeline.translate.busy_s": busy.get("pipeline.translate", 0.0),
            "pipeline.detect_verbatim.busy_s": busy.get("pipeline.detect_verbatim", 0.0),
            "pipeline.detect_traditional.busy_s": busy.get("segmentation.detect_traditional", 0.0),
            "pipeline.roundtrip_ms.p50": percentile(samples.get("pipeline._roundtrip"), 50),
            "pipeline.roundtrip_ms.p99": percentile(samples.get("pipeline._roundtrip"), 99),
            "pipeline.http.requests": stub["requests"],
            "pipeline.http.connections": stub["connections"],
            "pipeline.http.connections_per_request":
                stub["connections"] / stub["requests"] if stub["requests"] else 0.0,
            "pipeline.http.request_ms.p50": percentile(samples.get("requests.post"), 50),
            "pipeline.http.request_ms.p99": percentile(samples.get("requests.post"), 99),
            "pipeline.token_bucket.wait_s": busy.get("pipeline.token_bucket.acquire", 0.0),
            "stats.battery_s": busy.get("stats.run_metric_battery", 0.0),
            "stats.spearman_s": busy.get("stats.spearman_battery", 0.0),
            "stats.rank_calls": calls.get("stats.rank_with_ties", 0),
            "tails.busy_s": busy.get("tails", 0.0),
            "report.summaries_s": busy.get("report.summarize_all", 0.0),
            "report.plot_bundle_build_s": busy.get("report.build_plot_bundle", 0.0),
            "report.plot_bundle_write_s": busy.get("report.emit_plot_data", 0.0)
                - busy.get("report.build_plot_bundle", 0.0),
            "report.plot_bundle_bytes": p["plot_bundle_bytes"],
            "report.stats_report_s": busy.get("report.emit_stats_report", 0.0),
            "cli.load_matrices_s": busy.get("cli._load_matrices", 0.0),
            "cli.write_artifacts_s": sum(busy.get(name, 0.0) for name in emitters),
        }

    rows = [from_trace(p) for p in traced]
    figures = {name: statistics.median_low(row[name] for row in rows)
               if isinstance(rows[0][name], int) else median(row[name] for row in rows)
               for name in rows[0]}
    figures.update(standalone_throughput(load, measured["passes"][0]["out"]))
    figures["trace.overhead_pct"] = 100.0 * (
        median(p["wall_s"] for p in traced) / median(p["wall_s"] for p in plain) - 1.0)
    return figures


# ---------------------------------------------------------------------- main


def load_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "bteval").glob("*.py")))


def run(name: str, seed: int, seconds: float, trace: bool, backends: int) -> dict:
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load = None
    try:
        stamps = [time.perf_counter()]
        load = Workload(name, seed, work, backends)
        measured = measure(load, seconds, trace)
        stamps.append(time.perf_counter())
        failures = check(load, measured)
        stamps.append(time.perf_counter())
        passes = measured["passes"]
        result = {
            "correct": not failures,
            "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
        }
        if trace:
            units = load_units()
            figures = per_layer(load, measured)
            if set(figures) != set(units):
                raise BenchError(f"per-layer figures differ from BENCHMARK.json: "
                                 f"{sorted(set(figures) ^ set(units))}")
            result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in figures.items()}
        else:
            result["metrics"] = end_to_end(measured)
        stamps.append(time.perf_counter())
        report(name, seed, measured, failures, result)
        print(f"   time: inputs and passes {stamps[1] - stamps[0]:.1f} s, "
              f"checks {stamps[2] - stamps[1]:.1f} s, per-layer figures {stamps[3] - stamps[2]:.1f} s")
        return result
    finally:
        if load is not None:
            load.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # leave no empty scratch directory behind
            work.parent.rmdir()


def report(name: str, seed: int, measured: dict, failures: list[str], result: dict) -> None:
    passes = measured["passes"]
    print(f"== {name} seed={seed}: {len(passes)} passes "
          f"({sum(p['traced'] for p in passes)} traced), {len(measured['setups'])} set-ups")
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        print(f"   {key} per pass: " + " ".join(f"{p[key]:.3f}{'*' if p['traced'] else ''}"
                                                  for p in passes))
    plain = [p for p in passes if not p["traced"]]
    waiting = median((p["wall_s"] - p["cpu_s"]) / p["wall_s"] for p in plain)
    print(f"   waiting share of wall_s, (wall_s - cpu_s) / wall_s: {waiting:.2f}")
    for metric, entry in result["metrics"].items():
        print(f"   {metric:40s} {entry['value']:>14.6g} {entry['unit']}")
    print(f"   operations attempted {result['attempted']}, failed {result['failed']}")
    for artifact, digest in passes[0]["fingerprints"].items():
        print(f"   sha256 {digest} {artifact}")
    print(f"   machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__}; src lines {src_lines()}")
    for failure in failures:
        print(f"   CHECK FAILED {failure}")
    print(f"   checks: {'all passed' if not failures else f'{len(failures)} failed'}")


def main() -> int:
    parser = argparse.ArgumentParser(description="bteval benchmark")
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time; 0 runs the two passes that fingerprints need")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--http-backends", type=int, default=len(wl.NOISE), choices=range(1, 6),
                        help="backends of the HTTP workload (5 by default; 1 gives the k=1 figure)")
    args = parser.parse_args()
    # a terminated run still stops its children and removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "bteval" / "cli.py").is_file() or not (ROOT / wl.CORPUS).is_file():
        print(f"error: no bteval checkout at {ROOT} (src/bteval and {wl.CORPUS} are needed)",
              file=sys.stderr)
        return 2
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run(name, args.seed, args.seconds, bool(args.trace), args.http_backends)
                   for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    last = results[names[0]] if len(names) == 1 else results
    print(json.dumps(last))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
