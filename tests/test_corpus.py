"""JSONL corpus parsing, validation, and round-trip serialization."""

import json

import pytest

from bteval import corpus as corpus_module, jsonio
from bteval.cli import EXIT_USAGE, main
from bteval.corpus import (
    MIN_CHARS,
    Corpus,
    CorpusError,
    TextSample,
    parse_corpus,
    serialize_corpus,
    validate_corpus,
)
from bteval.segmentation import detect_traditional

from conftest import FIXTURES


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def test_parse_shipped_cnki_corpus():
    corpus = parse_corpus(FIXTURES / "corpora" / "cnki_che_89.jsonl")
    assert len(corpus) == 89
    assert corpus[0].id == "CNKI-CHE-89-01"
    assert corpus[17].id == "CNKI-CHE-89-18"  # file order preserved
    assert corpus.sha256 is not None


def test_parse_corpus_checks_each_string_field_once(monkeypatch):
    # TextSample's constructor is the one type check of a record
    path = FIXTURES / "corpora" / "cnki_che_89.jsonl"
    checked = []
    monkeypatch.setattr(jsonio, "has_surrogate", lambda text: checked.append(text) or False)
    assert len(parse_corpus(path)) == 89
    records = map(json.loads, path.read_text(encoding="utf-8").splitlines())
    strings = [value for record in records for value in record.values() if isinstance(value, str)]
    assert len(strings) == 89 * 5
    assert sorted(checked) == sorted(strings)


def test_parse_populates_unknown_variant(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"id": "a", "domain": "x", "text": "正文"}])
    corpus = parse_corpus(path)
    assert corpus[0].variant == "unknown"
    assert corpus[0].title is None


def test_parse_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(CorpusError, match="empty corpus"):
        parse_corpus(path)


def test_parse_duplicate_id_names_second_line(tmp_path):
    path = tmp_path / "dup.jsonl"
    records = [{"id": f"S{i}", "domain": "d", "text": "文字"} for i in range(1, 7)]
    records[2]["id"] = "CHE-18"
    records.append({"id": "CHE-18", "domain": "d", "text": "文字"})  # line 7
    write_jsonl(path, records)
    with pytest.raises(CorpusError, match="line 7"):
        parse_corpus(path)


def test_parse_malformed_line_reports_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "domain": "d", "text": "x"}\n{bad json\n', encoding="utf-8")
    with pytest.raises(CorpusError, match="line 2"):
        parse_corpus(path)


def test_parse_missing_field(tmp_path):
    path = tmp_path / "missing.jsonl"
    write_jsonl(path, [{"id": "a", "domain": "d"}])
    with pytest.raises(CorpusError, match="text"):
        parse_corpus(path)


@pytest.mark.parametrize("field,value,message", [
    ("text", None, "record 'text' must be a string, got None"),
    ("text", ["元素", "观点"], "record 'text' must be a string, got \\['元素', '观点'\\]"),
    ("id", 5, "record 'id' must be a string, got 5"),
    ("domain", {"name": "d"}, "record 'domain' must be a string, got \\{'name': 'd'\\}"),
    ("title", 3, "record 'title' must be a string or null, got 3"),
], ids=["null-text", "list-text", "int-id", "object-domain", "int-title"])
def test_parse_rejects_a_field_of_the_wrong_json_type(tmp_path, field, value, message):
    path = tmp_path / "typed.jsonl"
    write_jsonl(path, [{"id": "a", "domain": "d", "text": "正文"},
                       {"id": "b", "domain": "d", "text": "文字", field: value}])
    with pytest.raises(CorpusError, match=f"line 2: {message}"):
        parse_corpus(path)


def test_round_trip_preserves_unknown_fields(tmp_path):
    path = tmp_path / "extra.jsonl"
    write_jsonl(path, [
        {"id": "a", "domain": "d", "text": "文字", "variant": "simplified",
         "source_url": "https://example.org", "year": 2024},
        {"id": "b", "domain": "d", "title": "题", "text": "更多文字"},
    ])
    corpus = parse_corpus(path)
    assert corpus[0].extra == {"source_url": "https://example.org", "year": 2024}
    out_dir = tmp_path / "copy"
    out_dir.mkdir()
    out = out_dir / "extra.jsonl"  # same stem so the derived name matches
    serialize_corpus(corpus, out)
    again = parse_corpus(out)
    assert again == corpus  # field-by-field, including extras


@pytest.mark.parametrize("unknown", ['"note": "\\ud800"', '"\\ud800": 1', '"note": 1e400',
                                     '"note": [{"n": -1e400}]'],
                         ids=["lone-surrogate-value", "lone-surrogate-key", "overflow",
                              "nested-overflow"])
def test_parse_rejects_unknown_fields_that_cannot_be_written_back(tmp_path, capsys, unknown):
    # serialize_corpus raised UnicodeEncodeError on a lone surrogate and wrote inf as Infinity
    path = tmp_path / "extra.jsonl"
    path.write_text('{"id": "a", "domain": "d", "text": "文字"}\n'
                    f'{{"id": "b", "domain": "d", "text": "化学", {unknown}}}\n', encoding="utf-8")
    with pytest.raises(CorpusError, match="line 2: unknown fields cannot be written back as JSON"):
        parse_corpus(path)
    assert main(["validate", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("value, message", [
    ("NaN", "NaN is not JSON"), ("Infinity", "Infinity is not JSON"),
    ("-Infinity", "-Infinity is not JSON"), ("1" * 5000, "Exceeds the limit"),
], ids=["nan", "infinity", "minus-infinity", "5000-digit-integer"])
def test_parse_rejects_what_is_not_json_or_too_long_to_read(tmp_path, capsys, value, message):
    # Python's json reads NaN and Infinity; a 5000-digit integer escaped as a ValueError
    path = tmp_path / "strict.jsonl"
    path.write_text(f'{{"id": "a", "domain": "d", "text": "文字", "n": {value}}}\n',
                    encoding="utf-8")
    with pytest.raises(CorpusError, match=f"line 1: invalid JSON \\({message}"):
        parse_corpus(path)
    assert main(["validate", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


def test_parse_is_deterministic(tmp_path):
    path = FIXTURES / "corpora" / "hua_yao.jsonl"
    assert parse_corpus(path) == parse_corpus(path)


def test_validate_clean_corpus_has_no_warnings():
    corpus = parse_corpus(FIXTURES / "corpora" / "cnki_che_89.jsonl")
    assert validate_corpus(corpus) == []


def test_validate_flags_traditional_in_declared_simplified():
    sample = TextSample(id="t1", domain="chemistry",
                        text="元素觀點：物質由元素組成", variant="simplified")
    corpus = Corpus(name="test", samples=[sample])
    warnings = validate_corpus(corpus)
    assert len(warnings) == 1
    assert "traditional characters detected" in warnings[0]


def test_validate_threshold_is_a_plain_argument():
    sample = TextSample(id="t1", domain="chemistry",
                        text="元素觀點：物質由元素組成", variant="simplified")
    corpus = Corpus(name="test", samples=[sample])
    assert validate_corpus(corpus, traditional_threshold=0.99) == []
    assert "exceeds 0.2" in validate_corpus(corpus, 0.2)[0]


def per_sample_warnings(corpus, threshold):
    """validate_corpus's warnings with one detect_traditional call per simplified sample."""
    warnings = []
    for sample in corpus:
        if len("".join(sample.text.split())) < MIN_CHARS:
            warnings.append(f"{sample.id}: sample too short for 2-gram BLEU")
        ratio, flagged = detect_traditional(sample.text, None, threshold)
        if sample.variant == "simplified" and flagged:
            warnings.append(f"{sample.id}: traditional characters detected "
                            f"(ratio {ratio:.3f} exceeds {threshold})")
    return warnings


def test_validate_makes_one_kernel_call_per_corpus(monkeypatch):
    calls = []
    kernel = corpus_module.traditional_ratios
    monkeypatch.setattr(corpus_module, "traditional_ratios",
                        lambda texts, table=None: calls.append(len(texts)) or kernel(texts, table))
    mixed = Corpus(name="mixed", samples=[
        TextSample(id="clean", domain="d", text="元素观点：物质由元素组成", variant="simplified"),
        TextSample(id="declared", domain="d", text="元素觀點：物質由元素組成", variant="traditional"),
        TextSample(id="drifted", domain="d", text="元素觀點：物质由元素组成", variant="simplified"),
        TextSample(id="short", domain="d", text="藥", variant="simplified"),
        TextSample(id="unknown", domain="d", text="元素觀點"),
    ])
    shipped = [parse_corpus(path) for path in sorted((FIXTURES / "corpora").glob("*.jsonl"))]
    assert len(shipped) == 3
    for corpus in [*shipped, mixed]:
        for threshold in (0.05, 0.0):
            calls.clear()
            assert validate_corpus(corpus, threshold) == per_sample_warnings(corpus, threshold)
            assert calls == [sum(sample.variant == "simplified" for sample in corpus)]
    assert [w.split(":")[0] for w in validate_corpus(mixed)] == ["drifted", "short", "short"]


def test_parse_rejects_a_corpus_that_is_not_utf8(tmp_path):
    path = tmp_path / "gbk.jsonl"
    path.write_bytes(json.dumps({"id": "a", "domain": "d", "text": "元素"},
                                ensure_ascii=False).encode("gbk") + b"\n")
    with pytest.raises(CorpusError, match=r"gbk\.jsonl: not UTF-8"):
        parse_corpus(path)


def test_validate_flags_too_short_sample():
    corpus = Corpus(name="test", samples=[
        TextSample(id="one", domain="d", text="药"),
    ])
    warnings = validate_corpus(corpus)
    assert any("too short for 2-gram BLEU" in w for w in warnings)
    # the degeneracy behind the warning: a one-character original gives the
    # 2-gram order nothing to match, so any non-identical pair bottoms out
    from bteval.metrics import score_pair

    assert score_pair("药", "药丸").bleu == 0.0


def test_validate_never_mutates():
    sample = TextSample(id="t1", domain="d", text="元素觀點", variant="simplified")
    corpus = Corpus(name="test", samples=[sample])
    validate_corpus(corpus)
    assert corpus[0].text == "元素觀點"


def test_sample_invariants():
    with pytest.raises(CorpusError):
        TextSample(id="", domain="d", text="x")
    with pytest.raises(CorpusError):
        TextSample(id="a", domain="d", text="   ")
    with pytest.raises(CorpusError):
        TextSample(id="a", domain="d", text="x", variant="kanji")
    with pytest.raises(CorpusError, match="duplicate"):
        Corpus(name="c", samples=[
            TextSample(id="a", domain="d", text="x"),
            TextSample(id="a", domain="d", text="y"),
        ])
