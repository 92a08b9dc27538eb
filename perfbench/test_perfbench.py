"""Tests of the benchmark itself: inputs, the LLM stand-in, the result
contract of run.py (in smoke mode) and its correctness gates."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.standin import StandInBackend, parse_chain
from perfbench.tracer import cold_top_k, self_times
from perfbench.workloads import WORKLOADS, chain_question, fact_sentence, generate

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _reply(backend: StandInBackend, template: str, **variables) -> str:
    return backend.send(template, "a b c", variables, 0.0, 512).text


def test_generate_is_a_function_of_the_seed():
    small = WORKLOADS["reads-50k"].smoke()
    first, again, other = generate(small, 3), generate(small, 3), generate(small, 4)
    assert first.documents == again.documents and first.questions == again.questions
    assert first.documents != other.documents


def test_withheld_share_and_distinct_facts():
    workload = WORKLOADS["writes-50k"].smoke()
    inputs = generate(workload, 1)
    assert sum(q.withheld for q in inputs.questions) == (
        len(inputs.questions) // workload.withheld_every)
    facts = [fact for q in inputs.questions for fact in q.chain]
    assert len(facts) == len(set(facts))
    assert {q.chain[-1] for q in inputs.questions if q.withheld} == inputs.withheld


def test_standin_replies_follow_the_request():
    question = chain_question("Alba Corvin", ["employer", "spouse"])
    assert parse_chain(question) == ("Alba Corvin", ["employer", "spouse"])
    backend = StandInBackend(withheld=frozenset({("Dora Vell", "spouse", "Ema Lund")}))
    plan = json.loads(_reply(backend, "decompose", question=question, max_subquestions=6))
    assert plan == ["What is the employer of Alba Corvin?", "What is the spouse of #1?"]

    triples = "4. Alba Corvin | mentor | Bo Tann\n7. Alba Corvin | employer | Dora Vell"
    cited = json.loads(_reply(backend, "answer_from_triples",
                              question="What is the employer of Alba Corvin?", triples=triples))
    assert cited == {"answerable": True, "answer": "Dora Vell", "used_triple_ids": [7]}
    missing = json.loads(_reply(backend, "answer_from_triples",
                                question="What is the spouse of Alba Corvin?", triples=triples))
    assert missing["answerable"] is False and missing["used_triple_ids"] == []

    text = fact_sentence("Dora Vell", "spouse", "Ema Lund") + " " + fact_sentence(
        "Dora Vell", "rival", "Bo Tann")
    assert json.loads(_reply(backend, "extract_triples", document=text)) == [
        ["Dora Vell", "rival", "Bo Tann"]]
    assert len(json.loads(_reply(StandInBackend(), "extract_triples", document=text))) == 2
    docs = json.loads(_reply(backend, "answer_from_docs",
                             question="What is the spouse of Dora Vell?",
                             documents=f"[d1] Dora Vell\n{text}"))
    assert docs == {"answer": "Ema Lund"}
    memory = "step 1: Alba Corvin | employer | Dora Vell\nstep 2: Dora Vell | spouse | Ema Lund"
    assert _reply(backend, "final_answer", question=question, memory=memory) == "Ema Lund"
    assert _reply(backend, "final_answer", question=question, memory="(none)") == "UNKNOWN"


def test_cold_top_k_and_self_time():
    # (id, parent, name, start, end, question id, phase, detail)
    spans = [
        (0, None, "vector.top_k", 0.0, 1.0, None, "eval", [7, 10]),
        (1, None, "vector.upsert", 1.5, 2.0, None, "eval", 7),
        (2, None, "vector.top_k", 2.5, 4.0, None, "eval", [7, 11]),  # first after the upsert
        (3, None, "vector.top_k", 3.0, 5.0, None, "eval", [7, 11]),  # before 2 finished
        (4, None, "vector.top_k", 6.0, 7.0, None, "eval", [7, 11]),  # warm again
        (5, None, "vector.top_k", 2.5, 3.0, None, "eval", [8, 10]),  # another index
        (6, 4, "kernels.scan", 6.2, 6.6, None, "eval", [11, 4]),
    ]
    assert [s[0] for s in cold_top_k(spans)] == [2, 3]
    assert self_times(spans)[4] == pytest.approx(0.6)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("workload,trace", [
    ("chain-small", 0), ("reads-50k", 0), ("writes-50k", 0), ("writes-50k", 1),
])
def test_smoke_run_meets_the_result_contract(workload, trace):
    proc = _run(*SPEC["command"][1:], "--workload", workload, "--seed", "5",
                "--seconds", "0.3", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= harness.MIN_QUESTIONS // (2 if trace else 1)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(*SPEC["command"][1:], "--workload", "chain-small", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_gate_failure_is_reported(tmp_path, monkeypatch):
    import subhop.solver

    def reject(data):
        raise ValueError("rejected by the test")

    monkeypatch.setattr(subhop.solver, "validate_trace_dict", reject)
    record = harness.run_workload(WORKLOADS["chain-small"].smoke(), 1, 0.1, False, tmp_path)
    assert record["failed"] == record["attempted"]
    assert any("invalid trace" in gate for gate in record["gates"])
