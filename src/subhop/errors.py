"""Exception types shared across the pipeline: every error the package
raises about its input, its files or an LLM call is a ``SubhopError``,
and a subclass exists only where a handler tells it apart from the rest."""

from __future__ import annotations


class SubhopError(Exception):
    """Base class of every error the package raises about its input, its
    files or an LLM call."""


class ParseError(SubhopError):
    """A persisted record, corpus or dataset entry failed to parse or check."""

    def __init__(self, message: str, line: int | None = None):
        suffix = f" (line {line})" if line is not None else ""
        super().__init__(message + suffix)
        self.line = line


class BackendError(SubhopError):
    """The remote LLM backend failed after retries were exhausted."""

    def __init__(self, status: int, body: str):
        super().__init__(f"backend error (status {status}): {body[:200]}")
        self.status = status
        self.body = body


class StubExhausted(SubhopError):
    """The scripted stub backend has no matching response left."""


class StructuredParseError(SubhopError):
    """A completion could not be parsed as the expected JSON shape."""

    def __init__(self, message: str, raw: str):
        super().__init__(message)
        self.raw = raw


# LLM failures that degrade a step (UNKNOWN answer, single-step plan)
# instead of aborting the question.
LLM_FAILURES = (StructuredParseError, BackendError, StubExhausted)


class BudgetExceeded(SubhopError):
    """The per-question LLM call budget was exhausted."""

    def __init__(self, limit: int):
        super().__init__(f"LLM call budget of {limit} exhausted")
        self.limit = limit


class ConfigError(SubhopError):
    """Configuration values are missing or invalid."""
