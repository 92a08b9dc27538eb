"""Exception types shared across the pipeline."""

from __future__ import annotations


class SubhopError(Exception):
    """Base class for every error raised by this package."""


class EmptyField(SubhopError):
    """A triple field is empty after trimming."""


class UnknownId(SubhopError):
    """A triple id does not resolve in the graph."""

    def __init__(self, triple_id: int):
        super().__init__(f"unknown triple id {triple_id}")
        self.triple_id = triple_id


class ParseError(SubhopError):
    """A persisted record or dataset entry failed to parse."""

    def __init__(self, message: str, line: int | None = None):
        suffix = f" (line {line})" if line is not None else ""
        super().__init__(message + suffix)
        self.line = line


class DuplicateDocId(SubhopError):
    """A corpus file contains two documents with the same id."""

    def __init__(self, doc_id: str):
        super().__init__(f"duplicate document id {doc_id!r}")
        self.doc_id = doc_id


class DimensionMismatch(SubhopError):
    """Embedder dimension does not match the index dimension."""


class EmbedderMismatch(SubhopError):
    """A persisted index was built with a different embedder."""


class CorpusMismatch(SubhopError):
    """The corpus file differs from the one a snapshot was indexed from."""


class TemplateError(SubhopError):
    """A prompt template is unknown or has an unbound placeholder."""


class MissingTemplate(SubhopError):
    """A template file is missing from the templates directory."""

    def __init__(self, name: str):
        super().__init__(f"missing template {name!r}")
        self.name = name


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


class EmptyDataset(SubhopError):
    """A benchmark run was asked to evaluate zero examples."""


class UnsupportedFormat(SubhopError):
    """An unknown dataset format name was requested."""


class ConfigError(SubhopError):
    """Configuration values are missing or invalid."""
