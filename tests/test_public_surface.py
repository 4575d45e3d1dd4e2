"""The names ``import bteval`` exports, the README's "Library use" section, and the
names the benchmark's tracer looks up."""

import importlib.util
import re
import types
from pathlib import Path

import bteval

REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"

PUBLIC = {
    "Corpus", "TextSample", "CorpusError", "parse_corpus", "serialize_corpus",
    "validate_corpus",
    "Lexicon", "TokenList", "load_lexicon", "segment_words", "segment_chars",
    "detect_traditional",
    "ScoringConfig", "BleuConfig", "IdfModel", "MetricVector", "fit_idf", "score_pair",
    "bleu", "chrf", "ter", "semantic_similarity",
    "BackendConfig", "RunConfig", "TranslationRecord", "RunManifest", "run_experiment",
    "translate", "detect_verbatim",
    "ExperimentDesign", "ScoreMatrix", "StatTestResult", "cell_means", "friedman",
    "dunn_posthoc", "benjamini_hochberg", "spearman", "rank_with_ties",
    "descriptive_stats", "shapiro_wilk", "levene",
}


def library_use() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def test_import_bteval_exports_exactly_the_pinned_names():
    exported = {name for name, value in vars(bteval).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC


def test_readme_lists_the_exported_names():
    section = library_use()
    listing = section.split("`import bteval` exports these names and no others:", 1)[1]
    listing = listing.split("\n\n", 2)[1]  # the bullet list after the sentence
    assert set(re.findall(r"`(\w+)`", listing)) == PUBLIC


def test_readme_library_example_runs(monkeypatch):
    code = re.search(r"```python\n(.*?)```", library_use(), re.S).group(1)
    monkeypatch.chdir(README.parent)  # the example reads a fixture by relative path
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert set(namespace["matrices"]) == {"bleu", "bleu_unif", "chrf", "ter",
                                          "semantic_similarity"}
    assert len(namespace["records"]) == 89 * 3
    assert 0.0 <= namespace["vector"].bleu <= 1.0


def test_bench_tracer_finds_every_name_it_wraps():
    # bench/tracing.py reads these by name, so a name moved to another module would break
    # every traced benchmark pass; the file is loaded by path, as nothing imports bench/
    spec = importlib.util.spec_from_file_location("bench_tracing", REPO / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {name: importlib.import_module(f"bteval.{name}") for name in tracing.MODULES}
    pipeline = modules["pipeline"]
    for cls_name in tracing.TRANSLATE_CLASSES:
        assert callable(getattr(pipeline, cls_name).translate), cls_name
    assert callable(pipeline.TokenBucket.acquire)
    for short, names in tracing.PRIVATE.items():
        for name in names:
            assert callable(getattr(modules[short], name)), f"{short}.{name}"
    assert "_load_matrices" in tracing.PRIVATE["cli"]
