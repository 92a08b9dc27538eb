"""Benchmark harness: dataset loading, batch runs, EM/F1 reports.

A run solves every example (optionally in parallel), scores each
prediction, and aggregates means x100. Individual failures score zero and
are flagged; a run never aborts on one bad question.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from .errors import ParseError, SubhopError
from .metrics import exact_match, token_f1
from .records import read_json, read_json_lines
from .solver import QuestionTrace, write_trace

logger = logging.getLogger(__name__)

# Published reference values for this pipeline configuration (1,000
# questions per benchmark, gpt-4o-mini generator, all-MiniLM-L6-v2
# retriever). Not reproducible at desk scale; recorded for the report.
REFERENCE_SCORES = {
    "musique": {"em": 29.70, "f1": 38.14},
    "2wiki": {"em": 61.90, "f1": 64.30},
    "hotpotqa": {"em": 56.00, "f1": 64.30},
}


@dataclass(frozen=True)
class QAExample:
    id: str
    question: str
    gold_answers: list[str]


@dataclass
class ExampleResult:
    id: str
    prediction: str
    em: int
    f1: float
    failed: bool = False


@dataclass
class RunReport:
    dataset_name: str
    n: int
    em: float
    f1: float
    per_example: list[ExampleResult]
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset_name,
            "n": self.n,
            "em": self.em,
            "f1": self.f1,
            "config": self.config,
            "reference_scores": REFERENCE_SCORES,
            "per_example": [
                {
                    "id": r.id,
                    "prediction": r.prediction,
                    "em": r.em,
                    "f1": r.f1,
                    "failed": r.failed,
                }
                for r in self.per_example
            ],
        }


def _require_str(record: dict, key: str, where: str) -> str:
    value = record.get(key)
    if not isinstance(value, str) or not value.strip():
        raise ParseError(f"missing, invalid or blank {key!r} in {where}")
    return value


def _require_id(record: dict, key: str, where: str, seen: set[str]) -> str:
    """The example id, which names its trace file ``<id>.json``: it must be
    unique in the dataset and contain no path separator or NUL byte."""
    value = _require_str(record, key, where)
    if any(sep in value for sep in ("/", "\\", "\0")):
        raise ParseError(f"id {value!r} in {where} is not a file name")
    if value in seen:
        raise ParseError(f"duplicate id {value!r} in {where}")
    seen.add(value)
    return value


def _gold_list(value: object, where: str) -> list[str]:
    if isinstance(value, str):
        golds = [value]
    elif isinstance(value, list) and value and all(isinstance(v, str) for v in value):
        golds = list(value)
    else:
        raise ParseError(f"missing or invalid answers in {where}")
    return golds


def _lines(path: str | Path) -> Iterator[tuple[str, dict]]:
    for lineno, record in read_json_lines(path):
        yield f"line {lineno}", record


def _entries(path: str | Path) -> Iterator[tuple[str, dict]]:
    for i, record in enumerate(read_json(path, list)):
        if not isinstance(record, dict):
            raise ParseError(f"entry {i} is not an object")
        yield f"entry {i}", record


# format -> (reader, id key, answers key, aliases key). hotpotqa and 2wiki
# ship a JSON array of {"_id", "question", "answer"}; musique is line-JSON
# with {"id", "question", "answer", "answer_aliases"}.
_FORMATS = {
    "generic": (_lines, "id", "answers", None),
    "hotpotqa": (_entries, "_id", "answer", None),
    "musique": (_lines, "id", "answer", "answer_aliases"),
    "2wiki": (_entries, "_id", "answer", None),
}
DATASET_FORMATS = tuple(_FORMATS)


def load_dataset(path: str | Path, format: str = "generic") -> list[QAExample]:
    """Load a QA dataset in one of the supported formats.

    generic: line-JSON {"id", "question", "answers": [...]}. The three
    benchmark adapters map each native layout onto the same shape.
    """
    if format not in _FORMATS:
        raise SubhopError(f"unknown dataset format {format!r}")
    read, id_key, answers_key, aliases_key = _FORMATS[format]
    seen: set[str] = set()
    examples = []
    for where, record in read(path):
        example_id = _require_id(record, id_key, where, seen)
        question = _require_str(record, "question", where)
        golds = _gold_list(record.get(answers_key), where)
        aliases = record.get(aliases_key)  # None for a format without aliases
        if isinstance(aliases, list):
            golds.extend(a for a in aliases if isinstance(a, str) and a)
        examples.append(QAExample(id=example_id, question=question, gold_answers=golds))
    return examples


def run_benchmark(
    dataset: list[QAExample],
    solve_fn: Callable[[QAExample], QuestionTrace],
    parallelism: int = 1,
    trace_dir: str | Path | None = None,
    dataset_name: str = "dataset",
    config: dict | None = None,
) -> RunReport:
    """Solve every example and aggregate EM/F1 (x100).

    Results keep dataset order regardless of completion order; traces are
    persisted per example when a trace directory is given.
    """
    if not dataset:
        raise SubhopError("dataset has no examples")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")

    def _one(example: QAExample) -> tuple[ExampleResult, QuestionTrace | None]:
        try:
            trace = solve_fn(example)
        except Exception:
            logger.exception("solve failed for example %s", example.id)
            return ExampleResult(example.id, "", em=0, f1=0.0, failed=True), None
        prediction = trace.final_answer
        return (
            ExampleResult(
                example.id,
                prediction,
                em=exact_match(prediction, example.gold_answers),
                f1=token_f1(prediction, example.gold_answers),
            ),
            trace,
        )

    if parallelism == 1:
        outcomes = [_one(example) for example in dataset]
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            outcomes = list(pool.map(_one, dataset))

    results = [result for result, _ in outcomes]
    if trace_dir is not None:
        for _, trace in outcomes:
            if trace is not None:
                write_trace(trace, trace_dir)

    n = len(results)
    report = RunReport(
        dataset_name=dataset_name,
        n=n,
        em=100.0 * sum(r.em for r in results) / n,
        f1=100.0 * sum(r.f1 for r in results) / n,
        per_example=results,
        config=config or {},
    )
    return report


def format_report_table(report: RunReport) -> str:
    """Fixed-width table: this run plus the published reference rows."""
    rows = [("this run ({}, n={})".format(report.dataset_name, report.n), report.em, report.f1)]
    for name, scores in REFERENCE_SCORES.items():
        rows.append((f"reference ({name}, n=1000)", scores["em"], scores["f1"]))
    width = max(len(label) for label, _, _ in rows)
    header = f"{'Method'.ljust(width)}  {'EM':>7}  {'F1':>7}"
    lines = [header, "-" * len(header)]
    for label, em, f1 in rows:
        lines.append(f"{label.ljust(width)}  {em:7.2f}  {f1:7.2f}")
    return "\n".join(lines) + "\n"


def write_report_files(report: RunReport, run_dir: str | Path) -> tuple[Path, Path]:
    root = Path(run_dir)
    root.mkdir(parents=True, exist_ok=True)
    json_path = root / "report.json"
    json_path.write_text(
        json.dumps(report.to_dict(), ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
    )
    table_path = root / "report.txt"
    table_path.write_text(format_report_table(report), encoding="utf-8")
    return json_path, table_path
