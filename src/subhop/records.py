"""The one way subhop reads JSON from a file.

Corpus, dataset, graph snapshot, manifest, stub script and config file
all come through ``read_json_lines`` (one object per line, blank lines
skipped) or ``read_json`` (one document). Malformed JSON, a line that is
not an object, a document of the wrong type and text that is not UTF-8
each raise ``ParseError``, with the line number wherever there is one.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import BinaryIO, Iterator

from .errors import ParseError

_scan_value = json.JSONDecoder().scan_once


def _decode_line(line: str) -> object:
    """``json.loads(line)``, faster for the usual line: one JSON value that
    starts the line, then at most a newline. That line skips the
    whitespace matching around the value; any other goes through
    ``json.loads``, which parses it or raises its error."""
    try:
        value, end = _scan_value(line, 0)
    except StopIteration:  # no value starts the line
        return json.loads(line)
    if end == len(line) or line[end:] == "\n":
        return value
    return json.loads(line)


def read_json_lines(path: str | Path, data: bytes | None = None) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, object)`` for each non-blank line of the file
    at ``path``, or of ``data``, the file's bytes already read, if given."""
    with open(path, "rb") if data is None else io.BytesIO(data) as raw:
        text = io.TextIOWrapper(raw, encoding="utf-8")  # as ``open(path, "r")`` reads
        try:
            for lineno, line in enumerate(text, start=1):
                if line.isspace():
                    continue
                try:
                    record = _decode_line(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"invalid JSON in {Path(path).name}: {exc.msg}",
                                     line=lineno) from None
                if not isinstance(record, dict):
                    raise ParseError(f"a record in {Path(path).name} is not an object",
                                     line=lineno)
                yield lineno, record
        except UnicodeDecodeError:
            raw.seek(0)
            raise _not_utf8(raw, path) from None


def read_json(path: str | Path, expect: type[dict] | type[list]) -> dict | list:
    """The file's one JSON document, which must be an ``expect``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        with open(path, "rb") as raw:
            raise _not_utf8(raw, path) from None
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {Path(path).name}: {exc.msg}",
                         line=exc.lineno) from None
    if not isinstance(value, expect):
        kind = "object" if expect is dict else "array"
        raise ParseError(f"{Path(path).name} must hold a JSON {kind}")
    return value


def _not_utf8(raw: BinaryIO, path: str | Path) -> ParseError:
    # a text-mode read decodes whole blocks, so find the line again in bytes
    for lineno, line in enumerate(raw, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return ParseError(f"{Path(path).name} is not UTF-8 text", line=lineno)
    return ParseError(f"{Path(path).name} is not UTF-8 text")
