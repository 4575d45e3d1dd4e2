"""The names ``import bteval`` exports, the README's "Library use" section, and the
names the benchmark's tracer looks up."""

import ast
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
    "detect_verbatim",
    "ExperimentDesign", "ScoreMatrix", "StatTestResult", "cell_means", "friedman",
    "dunn_posthoc", "benjamini_hochberg", "spearman_battery",
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


def test_bench_finds_every_bteval_name_it_imports_or_reads():
    # only bench/run.py's traced pass reads names such as metrics.ter, so a deleted name
    # would pass every untraced pass; each `from bteval... import X`, and each attribute
    # read through a bteval module that an import binds, must exist
    def resolve(node, aliases, where):
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            base = resolve(node.value, aliases, where)
            if base is not None:
                assert hasattr(base, node.attr), f"{where}: {ast.unparse(node)}"
                seen.add(ast.unparse(node))
                return getattr(base, node.attr)
        return None

    seen: set = set()
    for path in sorted((REPO / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases: dict = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.partition(".")[0] == "bteval":
                        module = importlib.import_module(alias.name)
                        # `import bteval.x as y` binds y; `import bteval.x` binds bteval
                        aliases[alias.asname or "bteval"] = module if alias.asname else bteval
            elif isinstance(node, ast.ImportFrom) and node.module.partition(".")[0] == "bteval":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    try:
                        value = getattr(module, alias.name)
                    except AttributeError:  # a submodule not imported yet, or no such name
                        value = importlib.import_module(f"{node.module}.{alias.name}")
                    seen.add(f"{node.module}.{alias.name}")
                    if isinstance(value, types.ModuleType):
                        aliases[alias.asname or alias.name] = value
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                resolve(node, aliases, path.name)
    # the walk reaches the traced pass's reads
    assert {"metrics.fit_idf", "metrics.semantic_similarity", "metrics.bleu", "metrics.chrf",
            "metrics.ter", "metrics.BleuConfig", "metrics.TECHNICAL_WEIGHTS",
            "metrics.UNIFORM_WEIGHTS", "segmentation.segment_words",
            "bteval.segmentation.default_lexicon"} <= seen
