"""Deterministic scripted LLM backend for tests and offline runs.

A script is an ordered list of rules. A request matches a rule when the
template name equals the rule's template and, if the rule carries a
``contains`` string, some request variable contains it. Each rule plays
once (unless marked ``repeat``); matching always picks the first unused
rule in script order, so playback is deterministic for a fixed request
sequence.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .errors import ParseError, StubExhausted
from .gateway import BackendResult
from .records import read_json


@dataclass
class StubRule:
    template: str
    response: str
    contains: str | None = None
    repeat: bool = False
    used: bool = field(default=False, init=False)

    def matches(self, template: str, variables: Mapping[str, object]) -> bool:
        if self.template != template:
            return False
        if self.used and not self.repeat:
            return False
        if self.contains is None:
            return True
        return any(self.contains in str(v) for v in variables.values())


class StubBackend:
    """Plays back a StubScript; serialized so concurrent callers see a
    deterministic consumption order."""

    name = "stub"

    def __init__(self, rules: list[StubRule]):
        self._rules = rules
        self._lock = threading.Lock()

    def send(
        self,
        template: str,
        prompt: str,
        variables: Mapping[str, object],
        temperature: float,
        max_tokens: int,
    ) -> BackendResult:
        with self._lock:
            for rule in self._rules:
                if rule.matches(template, variables):
                    rule.used = True
                    return BackendResult(
                        text=rule.response,
                        prompt_tokens=len(prompt.split()),
                        completion_tokens=len(rule.response.split()),
                        attempts=1,
                    )
        raise StubExhausted(
            f"no scripted response for template {template!r} "
            f"(variables: {sorted(variables)})"
        )


def rule(template: str, response: object, contains: str | None = None,
         repeat: bool = False) -> StubRule:
    """Build a rule; non-string responses are serialized to JSON, which is
    what the structured templates expect anyway."""
    text = response if isinstance(response, str) else json.dumps(response, ensure_ascii=False)
    return StubRule(template=template, response=text, contains=contains, repeat=repeat)


def load_stub_script(path: str | Path) -> list[StubRule]:
    """Read a script file: a JSON array of rule objects with keys
    ``template``, ``response`` and optional ``contains``/``repeat``."""
    rules = []
    for i, entry in enumerate(read_json(path, list)):
        if not isinstance(entry, dict) or "template" not in entry or "response" not in entry:
            raise ParseError(f"stub rule {i} needs 'template' and 'response'")
        for key, kind in (("template", str), ("contains", str), ("repeat", bool)):
            if key in entry and not isinstance(entry[key], kind):
                raise ParseError(f"stub rule {i}: {key!r} must be a {kind.__name__}")
        rules.append(
            rule(
                template=entry["template"],
                response=entry["response"],
                contains=entry.get("contains"),
                repeat=entry.get("repeat", False),
            )
        )
    return rules
