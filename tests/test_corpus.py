"""JSONL corpus parsing, validation, and round-trip serialization."""

import json

import pytest

from bteval.cli import EXIT_USAGE, main
from bteval.corpus import (
    Corpus,
    CorpusError,
    TextSample,
    parse_corpus,
    serialize_corpus,
    validate_corpus,
)

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
    ("text", None, "field 'text' must be a string"),
    ("text", ["元素", "观点"], "field 'text' must be a string"),
    ("id", 5, "field 'id' must be a string"),
    ("domain", {"name": "d"}, "field 'domain' must be a string"),
    ("title", 3, "field 'title' must be a string or null"),
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
