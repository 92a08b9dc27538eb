"""Prompt template registry.

Templates live in external text files (one per pipeline stage) so prompt
iteration does not require code changes. Placeholders are ``{name}``
tokens; rendering substitutes all of them in a single pass and refuses
requests with unbound placeholders before any backend call.
"""

from __future__ import annotations

import re
from importlib import resources
from pathlib import Path
from typing import Mapping

from .errors import SubhopError

TEMPLATE_NAMES = (
    "extract_triples",
    "decompose",
    "rewrite",
    "answer_from_triples",
    "answer_from_docs",
    "final_answer",
)

_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


class TemplateRegistry:
    def __init__(self, templates: Mapping[str, str]):
        self._templates = dict(templates)
        self._placeholders = {
            name: frozenset(_PLACEHOLDER_RE.findall(body))
            for name, body in self._templates.items()
        }

    @classmethod
    def load(cls, directory: str | Path | None = None) -> "TemplateRegistry":
        """Load all templates; a missing file, or one that is not UTF-8,
        fails here, not at call time."""
        root = Path(directory) if directory else resources.files("subhop") / "templates"
        templates: dict[str, str] = {}
        for name in TEMPLATE_NAMES:
            candidate = root / f"{name}.txt"
            if not candidate.is_file():
                raise SubhopError(f"missing template {name!r}")
            try:
                templates[name] = candidate.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                raise SubhopError(f"template file {candidate} is not UTF-8 text") from None
        return cls(templates)

    def render(self, name: str, variables: Mapping[str, object]) -> str:
        needed = self._placeholders.get(name)
        if needed is None:
            raise SubhopError(f"unknown template {name!r}")
        missing = sorted(needed - set(variables))
        if missing:
            raise SubhopError(f"template {name!r} missing bindings for {missing}")

        # every token the regex finds is in ``needed``, found by the same regex
        return _PLACEHOLDER_RE.sub(
            lambda match: str(variables[match.group(1)]), self._templates[name]
        )
