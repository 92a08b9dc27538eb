"""Deterministic LLM stand-in, owned by the benchmark.

It implements subhop's ``gateway.Backend`` protocol and computes every
reply from the request variables alone, so answers are right for any call
order and any worker count. The scripted ``StubBackend`` is not used: its
``send`` scans the rule list linearly, so a benchmark on it would mostly
measure the stub.

Replies understand the workload's sentence and question forms (see
workloads.py). Token counts are whitespace counts, as in ``StubBackend``.
"""

from __future__ import annotations

import json
import re
import threading
import time
from typing import Mapping

from subhop.solver import UNKNOWN_ANSWER
from subhop.stub import BackendResult

from .workloads import Fact

_NAME = r"[A-Z][a-z]+ [A-Z][a-z]+"
_FACT_RE = re.compile(rf"The (\w+) of ({_NAME}) is ({_NAME})\.")
_HOP_RE = re.compile(rf"^What is the (\w+) of ({_NAME})\?$")
_CANDIDATE_RE = re.compile(r"^(\d+)\. (.+) \| (.+) \| (.+)$")
_MEMORY_RE = re.compile(r"^step \d+: (.+) \| (.+) \| (.+)$")


def parse_chain(question: str) -> tuple[str, list[str]]:
    """``What is the r2 of the r1 of E?`` -> (E, [r1, r2])."""
    body = question.strip()
    if not (body.startswith("What is ") and body.endswith("?")):
        raise ValueError(f"not a chain question: {question!r}")
    parts = body[len("What is "):-1].split(" of ")
    relations = [part.removeprefix("the ") for part in parts[:-1]]
    return parts[-1], list(reversed(relations))


class StandInBackend:
    """Replies per template; ``withheld`` facts are left out of
    extraction (set only for the index phase). ``latency_s`` is slept on
    every call to stand in for model time."""

    name = "standin"

    def __init__(self, withheld: frozenset[Fact] = frozenset(), latency_s: float = 0.0):
        self._withheld = {(h.casefold(), r, t.casefold()) for h, r, t in withheld}
        self._latency_s = latency_s
        self._local = threading.local()
        self._replies = {
            "decompose": self._decompose,
            "rewrite": self._rewrite,
            "answer_from_triples": self._answer_from_triples,
            "answer_from_docs": self._answer_from_docs,
            "extract_triples": self._extract_triples,
            "final_answer": self._final_answer,
        }

    def take_seconds(self) -> float:
        """Seconds this thread spent inside ``send`` since the last call."""
        spent = getattr(self._local, "seconds", 0.0)
        self._local.seconds = 0.0
        return spent

    def send(
        self,
        template: str,
        prompt: str,
        variables: Mapping[str, object],
        temperature: float,
        max_tokens: int,
    ) -> BackendResult:
        started = time.perf_counter()
        text = self._replies[template](variables)
        if self._latency_s > 0:
            time.sleep(self._latency_s)
        self._local.seconds = getattr(self._local, "seconds", 0.0) + (
            time.perf_counter() - started
        )
        return BackendResult(
            text=text,
            prompt_tokens=len(prompt.split()),
            completion_tokens=len(text.split()),
            attempts=1,
        )

    # -- one reply per template -------------------------------------------

    @staticmethod
    def _decompose(variables: Mapping[str, object]) -> str:
        entity, relations = parse_chain(str(variables["question"]))
        plan = [f"What is the {relations[0]} of {entity}?"]
        plan += [f"What is the {rel} of #{i}?" for i, rel in enumerate(relations[1:], start=1)]
        return json.dumps(plan)

    @staticmethod
    def _rewrite(variables: Mapping[str, object]) -> str:
        # placeholders are already substituted literally by subhop
        return str(variables["question"])

    @staticmethod
    def _answer_from_triples(variables: Mapping[str, object]) -> str:
        match = _HOP_RE.match(str(variables["question"]))
        if match:
            relation, entity = match.group(1), match.group(2).casefold()
            for line in str(variables["triples"]).splitlines():
                cand = _CANDIDATE_RE.match(line)
                if cand and cand.group(3) == relation and cand.group(2).casefold() == entity:
                    return json.dumps({"answerable": True, "answer": cand.group(4),
                                       "used_triple_ids": [int(cand.group(1))]})
        return json.dumps({"answerable": False, "answer": "", "used_triple_ids": []})

    @staticmethod
    def _answer_from_docs(variables: Mapping[str, object]) -> str:
        answer = ""
        match = _HOP_RE.match(str(variables["question"]))
        if match:
            relation, entity = match.group(1), match.group(2).casefold()
            for rel, head, tail in _FACT_RE.findall(str(variables["documents"])):
                if rel == relation and head.casefold() == entity:
                    answer = tail
                    break
        return json.dumps({"answer": answer})

    def _extract_triples(self, variables: Mapping[str, object]) -> str:
        rows = [
            [head, relation, tail]
            for relation, head, tail in _FACT_RE.findall(str(variables["document"]))
            if (head.casefold(), relation, tail.casefold()) not in self._withheld
        ]
        return json.dumps(rows)

    @staticmethod
    def _final_answer(variables: Mapping[str, object]) -> str:
        entity, relations = parse_chain(str(variables["question"]))
        edges: dict[tuple[str, str], str] = {}
        for line in str(variables["memory"]).splitlines():
            row = _MEMORY_RE.match(line)
            if row:
                edges.setdefault((row.group(1).casefold(), row.group(2)), row.group(3))
        current = entity
        for relation in relations:
            nxt = edges.get((current.casefold(), relation))
            if nxt is None:
                return UNKNOWN_ANSWER
            current = nxt
        return current
