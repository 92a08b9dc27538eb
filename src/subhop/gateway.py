"""Uniform client over LLM backends.

A Gateway owns the template registry and one backend (remote HTTP or
scripted stub), funnels every call through ``complete`` so budgets and
the wire log see everything, and layers JSON-shape parsing with a single
bounded retry on top.
"""

from __future__ import annotations

import copy
import json
import logging
import re
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Protocol

from .errors import BudgetExceeded, StructuredParseError
from .templates import TemplateRegistry

logger = logging.getLogger(__name__)

JSON_RETRY_SUFFIX = "\n\nRespond with valid JSON only."

_FENCE_RE = re.compile(r"^```[a-zA-Z]*\n(.*)\n```$", re.DOTALL)


@dataclass(frozen=True)
class BackendResult:
    """One backend reply: its text, its token counts and the attempts it took."""

    text: str
    prompt_tokens: int
    completion_tokens: int
    attempts: int


class Backend(Protocol):
    name: str

    def send(
        self,
        template: str,
        prompt: str,
        variables: Mapping[str, object],
        temperature: float,
        max_tokens: int,
    ) -> BackendResult: ...


@dataclass(frozen=True)
class ChatRequest:
    template_name: str
    variables: Mapping[str, object]
    suffix: str = ""


@dataclass
class Budget:
    """Per-question gateway call accounting; thread-safe, since a
    fallback can send its two calls at once."""

    limit: int
    calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def spend(self) -> None:
        with self._lock:
            if self.calls + 1 > self.limit:
                raise BudgetExceeded(self.limit)
            self.calls += 1

    def record(self, result: BackendResult) -> None:
        with self._lock:
            self.prompt_tokens += result.prompt_tokens
            self.completion_tokens += result.completion_tokens


@dataclass
class _WireLog:
    """Every prompt and response, appended to the file at ``path``."""

    path: Path
    lock: threading.Lock = field(default_factory=threading.Lock)

    def append(self, entry: dict) -> None:
        with self.lock:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(entry, ensure_ascii=False))
                fh.write("\n")


class Gateway:
    def __init__(
        self,
        registry: TemplateRegistry,
        backend: Backend,
        wire_log_path: str | Path | None = None,
        max_tokens: int = 512,
    ):
        self.registry = registry
        self.backend = backend
        self.budget: Budget | None = None
        self.max_tokens = max_tokens
        self._wire_log = _WireLog(Path(wire_log_path)) if wire_log_path else None

    def with_budget(self, limit: int) -> "Gateway":
        """A view sharing backend, templates and wire log, but with its own
        call budget. Used to enforce the per-question limit."""
        view = copy.copy(self)
        view.budget = Budget(limit)
        return view

    def complete(self, request: ChatRequest) -> BackendResult:
        """Render the template and call the backend.

        Template problems (unknown name, unbound placeholder) raise before
        any backend traffic; the budget is charged only for actual calls.
        """
        prompt = self.registry.render(request.template_name, request.variables)
        if request.suffix:
            prompt += request.suffix
        if self.budget is not None:
            self.budget.spend()
        result = self.backend.send(
            request.template_name, prompt, request.variables, 0.0, self.max_tokens
        )
        if self.budget is not None:
            self.budget.record(result)
        if self._wire_log is not None:
            self._wire_log.append(
                {
                    "template": request.template_name,
                    "backend": self.backend.name,
                    "attempts": result.attempts,
                    "prompt": prompt,
                    "response": result.text,
                }
            )
        return result

    def complete_structured(
        self,
        request: ChatRequest,
        expect: type[dict] | type[list] = dict,
        required: Mapping[str, type] | None = None,
    ):
        """Complete and parse the result as JSON of type ``expect``: ``dict`` or ``list``.

        On a parse or shape failure, retries exactly once with an explicit
        "valid JSON only" suffix, then raises StructuredParseError carrying
        the raw text.
        """
        response = self.complete(request)
        parsed = _parse_shape(response.text, expect, required)
        if parsed is not None:
            return parsed
        kind = "object" if expect is dict else "array"
        logger.warning(
            "unparseable %s output for template %s, retrying once",
            kind, request.template_name,
        )
        retry = replace(request, suffix=request.suffix + JSON_RETRY_SUFFIX)
        response = self.complete(retry)
        parsed = _parse_shape(response.text, expect, required)
        if parsed is not None:
            return parsed
        raise StructuredParseError(
            f"template {request.template_name!r} did not yield a JSON {kind}",
            raw=response.text,
        )


def _parse_shape(text: str, expect: type[dict] | type[list], required: Mapping[str, type] | None):
    value = _extract_json(text, expect)
    if not isinstance(value, expect):
        return None
    if required:
        for name, kind in required.items():
            if name not in value or not isinstance(value[name], kind):
                return None
    return value


def _extract_json(text: str, expect: type[dict] | type[list]):
    candidate = text.strip()
    fenced = _FENCE_RE.match(candidate)
    if fenced:
        candidate = fenced.group(1).strip()
    try:
        return json.loads(candidate)
    except json.JSONDecodeError:
        pass
    open_ch, close_ch = ("{", "}") if expect is dict else ("[", "]")
    start = candidate.find(open_ch)
    end = candidate.rfind(close_ch)
    if start == -1 or end <= start:
        return None
    try:
        return json.loads(candidate[start : end + 1])
    except json.JSONDecodeError:
        return None
