"""Runtime configuration.

Precedence, highest first: CLI flags > environment variables (SUBHOP_*)
> config file (JSON) > built-in defaults. The API key is only ever read
from the environment or the config file, never from a CLI flag.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .decompose import DEFAULT_MAX_SUBQUESTIONS
from .errors import ConfigError, ParseError
from .indexer import DEFAULT_CHAR_BUDGET
from .records import read_json

ENV_PREFIX = "SUBHOP_"


@dataclass
class Config:
    backend: str = "stub"              # stub | remote
    endpoint: str = ""
    model: str = "gpt-4o-mini"
    api_key: str = ""
    embedding_dim: int = 256
    k_triples: int = 5                 # triples retrieved per sub-question
    k_docs: int = 5                    # passages retrieved in the fallback
    max_subquestions: int = DEFAULT_MAX_SUBQUESTIONS
    llm_budget: int = 25               # gateway calls per question
    parallelism: int = 4
    max_tokens: int = 512
    retry_limit: int = 3
    backoff_base: float = 0.5
    request_timeout: float = 30.0
    extract_char_budget: int = DEFAULT_CHAR_BUDGET
    decomposition: bool = True         # ablation: False = single-element plans
    rewriting: bool = True             # ablation: False = literal substitution only
    graph_update: bool = True          # ablation: False = no fallback write-back
    templates_dir: str = ""            # empty = packaged defaults
    snapshot_dir: str = "snapshot"
    run_dir: str = "runs"
    stub_script: str = ""
    corpus: str = ""                   # index reads it; ask/eval: overrides the manifest's
    wire_log: str = ""

    def validate(self) -> None:
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if type(value) not in _ACCEPTED_TYPES[kind]:
                raise ConfigError(f"{name} must be of type {kind}, got {type(value).__name__}")
        if self.backend not in ("stub", "remote"):
            raise ConfigError(f"backend must be 'stub' or 'remote', got {self.backend!r}")
        for name in ("k_triples", "k_docs", "max_subquestions", "llm_budget",
                     "parallelism", "embedding_dim", "max_tokens", "extract_char_budget"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("retry_limit", "backoff_base"):
            if not getattr(self, name) >= 0:  # NaN fails too
                raise ConfigError(f"{name} must be >= 0")
        if not self.request_timeout > 0:
            raise ConfigError("request_timeout must be > 0")
        if self.backend == "remote" and not self.endpoint:
            raise ConfigError("remote backend requires an endpoint")

    def public_dict(self) -> dict:
        """Config snapshot for reports and traces; never includes the key."""
        data = dataclasses.asdict(self)
        data.pop("api_key", None)
        return data


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(Config)}
# exact types, so JSON true is not the integer 1; a float field also takes an int
_ACCEPTED_TYPES = {"bool": (bool,), "int": (int,), "float": (int, float), "str": (str,)}


def _coerce(name: str, raw: str) -> object:
    kind = _FIELD_TYPES[name]
    if kind == "bool":
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean {name}={raw!r}")
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError:
        raise ConfigError(f"cannot parse {name}={raw!r}") from None
    return raw


def load_config(
    path: str | Path | None = None,
    env: Mapping[str, str] | None = None,
    overrides: Mapping[str, object] | None = None,
) -> Config:
    """Merge defaults, config file, environment and explicit overrides."""
    values: dict[str, object] = {}

    if path is not None:
        try:
            raw = read_json(path, dict)
        except (ParseError, OSError) as exc:
            raise ConfigError(f"invalid config file: {exc}") from None
        for name, value in raw.items():
            if name not in _FIELD_TYPES:
                raise ConfigError(f"unknown config field {name!r}")
            values[name] = value

    env = os.environ if env is None else env
    for name in _FIELD_TYPES:
        env_name = ENV_PREFIX + name.upper()
        if env_name in env:
            values[name] = _coerce(name, env[env_name])

    if overrides:
        for name, value in overrides.items():
            if name not in _FIELD_TYPES:
                raise ConfigError(f"unknown config field {name!r}")
            if value is not None:
                values[name] = value

    config = Config(**values)
    config.validate()
    return config
