"""The one way subhop reads JSON from a file.

Corpus, dataset, graph snapshot, manifest, stub script and config file
all come through ``read_json_lines`` (one object per line, blank lines
skipped) or ``read_json`` (one document). Malformed JSON, a line that is
not an object, a document of the wrong type and text that is not UTF-8
each raise ``ParseError``, with the line number wherever there is one.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

from .errors import ParseError


def read_json_lines(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, object)`` for each non-blank line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.isspace():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"invalid JSON in {Path(path).name}: {exc.msg}",
                                     line=lineno) from None
                if not isinstance(record, dict):
                    raise ParseError(f"a record in {Path(path).name} is not an object",
                                     line=lineno)
                yield lineno, record
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def read_json(path: str | Path, expect: type[dict] | type[list]) -> dict | list:
    """The file's one JSON document, which must be an ``expect``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {Path(path).name}: {exc.msg}",
                         line=exc.lineno) from None
    if not isinstance(value, expect):
        kind = "object" if expect is dict else "array"
        raise ParseError(f"{Path(path).name} must hold a JSON {kind}")
    return value


def _not_utf8(path: str | Path) -> ParseError:
    # a text-mode read decodes whole blocks, so find the line again in bytes
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return ParseError(f"{Path(path).name} is not UTF-8 text", line=lineno)
    return ParseError(f"{Path(path).name} is not UTF-8 text")
