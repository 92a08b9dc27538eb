import json
import re

import pytest

from subhop.benchmark import load_dataset
from subhop.config import load_config
from subhop.errors import ConfigError, ParseError
from subhop.indexer import ingest_corpus
from subhop.kg import KnowledgeGraph
from subhop.records import read_json, read_json_lines
from subhop.stores import load_manifest
from subhop.stub import load_stub_script

from helpers import file_sha256


def test_read_json_lines_skips_blank_lines_and_numbers_every_line(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text('{"a": 1}\n   \n\n{"b": 2}\n[3]\n', encoding="utf-8")
    records = read_json_lines(path)
    assert next(records) == (1, {"a": 1})
    assert next(records) == (4, {"b": 2})
    with pytest.raises(ParseError, match="not an object") as exc:
        next(records)
    assert exc.value.line == 5


def test_read_json_lines_parses_each_line_on_its_own(tmp_path):
    # neither line is JSON, though joined with a comma inside [] they
    # would parse as two objects
    path = tmp_path / "r.jsonl"
    path.write_text('{"a":1},{"b":"x}\n{","c":1}\n', encoding="utf-8")
    joined = "[" + ",".join(path.read_text(encoding="utf-8").splitlines()) + "]"
    assert json.loads(joined) == [{"a": 1}, {"b": "x},{", "c": 1}]
    with pytest.raises(ParseError, match="invalid JSON") as exc:
        list(read_json_lines(path))
    assert exc.value.line == 1


@pytest.mark.parametrize("line", [
    '{"a": [1, {"b": null}], "c": "\\u00e9\\n"}', '  {"a": 1}', '{"a": 1}  ', '\t{"a": 1}\t',
    '{"a": 1}\r', '{"a": 1} {"b": 2}', '{"a": 1}x', '{"a": }', '{"a": 1', '"text"', '[1]', '12',
    'nan', 'NaN', '\ufeff{"a": 1}', '{"a": 1}\u3000', '{"a": "\u2028"}', '{"a": 1, "a": 2}',
])
def test_every_line_parses_as_json_loads_parses_it(tmp_path, line):
    path = tmp_path / "r.jsonl"
    path.write_text(f"{line}\n", encoding="utf-8")
    try:
        want = json.loads(line)
    except json.JSONDecodeError as exc:
        with pytest.raises(ParseError, match=re.escape(exc.msg)) as error:
            list(read_json_lines(path))
        assert error.value.line == 1
        return
    if isinstance(want, dict):
        assert list(read_json_lines(path)) == [(1, want)]
    else:
        with pytest.raises(ParseError, match="not an object"):
            list(read_json_lines(path))


def test_read_json_checks_the_document_type_and_names_the_line(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"a": 1}', encoding="utf-8")
    assert read_json(path, dict) == {"a": 1}
    with pytest.raises(ParseError, match="must hold a JSON array"):
        read_json(path, list)
    path.write_text('[\n1,\n2,,\n]', encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        read_json(path, list)
    assert exc.value.line == 3


def test_not_utf8_names_its_line_past_the_first_decoded_block(tmp_path):
    path = tmp_path / "big.jsonl"
    lines = b"".join(json.dumps({"n": i, "pad": "x" * 40}).encode() + b"\n" for i in range(2000))
    path.write_bytes(lines + b'{"n": "caf\xe9"}\n')
    with pytest.raises(ParseError, match="not UTF-8") as exc:
        list(read_json_lines(path))
    assert exc.value.line == 2001


# Latin-1 "é" on line 3, after two blank lines that every reader skips.
NOT_UTF8 = b'\n  \n{"text": "caf\xe9"}\n'


@pytest.mark.parametrize("read, error", [
    (ingest_corpus, ParseError),
    (lambda path: load_dataset(path, "generic"), ParseError),
    (lambda path: load_dataset(path, "hotpotqa"), ParseError),
    (lambda path: KnowledgeGraph.load(path, file_sha256(path)), ParseError),
    (lambda path: load_manifest(path.parent), ParseError),
    (load_stub_script, ParseError),
    (load_config, ConfigError),
], ids=["corpus", "dataset-lines", "dataset-array", "graph", "manifest", "stub-script",
        "config"])
def test_every_reader_rejects_text_that_is_not_utf8(tmp_path, read, error):
    path = tmp_path / "manifest.json"
    path.write_bytes(NOT_UTF8)
    with pytest.raises(error, match=r"not UTF-8 text \(line 3\)"):
        read(path)
