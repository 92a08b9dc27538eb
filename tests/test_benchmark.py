import json
import time

import pytest

from subhop.benchmark import (
    QAExample,
    REFERENCE_SCORES,
    format_report_table,
    load_dataset,
    run_benchmark,
    write_report_files,
)
from subhop.errors import ParseError, SubhopError
from subhop.solver import QuestionTrace, validate_trace_dict


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_generic_two_lines(tmp_path):
    path = _write(tmp_path / "d.jsonl",
                  json.dumps({"id": "1", "question": "q1?", "answers": ["a"]}) + "\n"
                  + json.dumps({"id": "2", "question": "q2?", "answers": ["b", "c"]}) + "\n")
    examples = load_dataset(path, "generic")
    assert [e.id for e in examples] == ["1", "2"]
    assert examples[1].gold_answers == ["b", "c"]


def test_load_generic_missing_question(tmp_path):
    path = _write(tmp_path / "d.jsonl", json.dumps({"id": "1", "answers": ["a"]}) + "\n")
    with pytest.raises(ParseError):
        load_dataset(path, "generic")


def test_load_hotpotqa_and_2wiki_adapters(tmp_path):
    records = [{"_id": "h1", "question": "who?", "answer": "Paris"}]
    path = _write(tmp_path / "native.json", json.dumps(records))
    for fmt in ("hotpotqa", "2wiki"):
        examples = load_dataset(path, fmt)
        assert examples[0].id == "h1"
        assert examples[0].gold_answers == ["Paris"]


def test_load_musique_aliases(tmp_path):
    record = {"id": "m1", "question": "who?", "answer": "Paris",
              "answer_aliases": ["City of Paris"]}
    path = _write(tmp_path / "m.jsonl", json.dumps(record) + "\n")
    examples = load_dataset(path, "musique")
    assert examples[0].gold_answers == ["Paris", "City of Paris"]


def test_load_unknown_format(tmp_path):
    path = _write(tmp_path / "d.jsonl", "")
    with pytest.raises(SubhopError, match="unknown dataset format 'nonsense'"):
        load_dataset(path, "nonsense")


def test_load_bad_json_array_reports_offset(tmp_path):
    path = _write(tmp_path / "native.json", '[{"_id": "x"')
    with pytest.raises(ParseError):
        load_dataset(path, "hotpotqa")


@pytest.mark.parametrize("second_id", ["1", "../../x", "a/b", "a\\b", "a\0"])
def test_load_rejects_duplicate_and_path_ids(tmp_path, second_id):
    # "answers" serves the generic format, "answer" the native ones
    records = [{"id": "1", "_id": "1", "question": "q1?", "answers": ["a"], "answer": "a"},
               {"id": second_id, "_id": second_id, "question": "q2?", "answers": ["b"],
                "answer": "b"}]
    jsonl = _write(tmp_path / "d.jsonl", "".join(json.dumps(r) + "\n" for r in records))
    for fmt in ("generic", "musique"):
        with pytest.raises(ParseError, match=r"id .* in line 2"):
            load_dataset(jsonl, fmt)
    array = _write(tmp_path / "native.json", json.dumps(records))
    with pytest.raises(ParseError, match=r"id .* in entry 1"):
        load_dataset(array, "hotpotqa")


def _trace(answer):
    return QuestionTrace(question_id="t", question="q", final_answer=answer, status="ok")


def _dataset():
    return [
        QAExample("1", "q1", ["alpha"]),
        QAExample("2", "q2", ["beta"]),
        QAExample("3", "q3", ["gamma"]),
        QAExample("4", "q4", ["delta"]),
    ]


def test_run_benchmark_three_hits_one_total_miss():
    answers = {"q1": "alpha", "q2": "beta", "q3": "gamma", "q4": "zzz"}

    def solve_fn(example):
        return _trace(answers[example.question])

    report = run_benchmark(_dataset(), solve_fn)
    assert report.em == pytest.approx(75.0, abs=1e-9)
    assert report.f1 == pytest.approx(75.0, abs=1e-9)
    assert [r.id for r in report.per_example] == ["1", "2", "3", "4"]


def test_run_benchmark_empty_dataset():
    with pytest.raises(SubhopError, match="dataset has no examples"):
        run_benchmark([], lambda e: _trace("x"))


def test_run_benchmark_failure_scores_zero_and_is_flagged():
    def solve_fn(example):
        if example.id == "2":
            raise RuntimeError("boom")
        return _trace(example.gold_answers[0])

    report = run_benchmark(_dataset(), solve_fn)
    flagged = {r.id: r for r in report.per_example}
    assert flagged["2"].failed is True
    assert flagged["2"].em == 0 and flagged["2"].f1 == 0.0
    assert report.n == 4
    assert report.em == pytest.approx(75.0, abs=1e-9)


def test_aggregates_equal_means():
    def solve_fn(example):
        return _trace(example.gold_answers[0] if example.id != "4" else "half delta")

    report = run_benchmark(_dataset(), solve_fn)
    em_mean = sum(r.em for r in report.per_example) / report.n
    f1_mean = sum(r.f1 for r in report.per_example) / report.n
    assert report.em == pytest.approx(100 * em_mean, abs=1e-9)
    assert report.f1 == pytest.approx(100 * f1_mean, abs=1e-9)


def test_parallel_run_matches_sequential(tmp_path):
    def solve_fn(example):
        return _trace(example.gold_answers[0])

    sequential = run_benchmark(_dataset(), solve_fn, parallelism=1)
    parallel = run_benchmark(_dataset(), solve_fn, parallelism=4)
    assert sequential.per_example == parallel.per_example
    assert (sequential.em, sequential.f1) == (parallel.em, parallel.f1)


def test_traces_persisted_next_to_report(tmp_path):
    def solve_fn(example):
        trace = _trace(example.gold_answers[0])
        return QuestionTrace(question_id=example.id, question=example.question,
                             final_answer=trace.final_answer, status="ok")

    report = run_benchmark(_dataset(), solve_fn, trace_dir=tmp_path / "traces")
    assert sorted(p.name for p in (tmp_path / "traces").iterdir()) == [
        "1.json", "2.json", "3.json", "4.json",
    ]
    json_path, table_path = write_report_files(report, tmp_path)
    data = json.loads(json_path.read_text())
    assert data["em"] == pytest.approx(100.0)
    assert data["reference_scores"] == REFERENCE_SCORES
    table = table_path.read_text()
    assert "reference (hotpotqa, n=1000)" in table
    assert "56.00" in table and "64.30" in table


def _own_trace(example):
    return QuestionTrace(question_id=example.id, question=example.question,
                         final_answer=example.gold_answers[0], status="ok")


def test_each_trace_is_written_before_the_next_question_is_solved(tmp_path):
    traces = tmp_path / "traces"
    dataset = _dataset()

    def solve_fn(example):
        k = dataset.index(example)
        if k > 0:  # a missing or invalid trace raises here and flags the example failed
            previous = traces / f"{dataset[k - 1].id}.json"
            validate_trace_dict(json.loads(previous.read_text(encoding="utf-8")))
        return _own_trace(example)

    report = run_benchmark(dataset, solve_fn, parallelism=1, trace_dir=traces)
    assert [r.failed for r in report.per_example] == [False] * 4


def test_a_failing_trace_write_stops_a_serial_run(tmp_path, monkeypatch):
    solved = []

    def solve_fn(example):
        solved.append(example.id)
        return _own_trace(example)

    def no_space(self, text, encoding=None):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("pathlib.Path.write_text", no_space)
    with pytest.raises(OSError, match="No space left"):
        run_benchmark(_dataset(), solve_fn, parallelism=1, trace_dir=tmp_path / "traces")
    assert solved == ["1"]
    assert list((tmp_path / "traces").iterdir()) == []


def test_a_failing_question_leaves_the_others_traces_streaming(tmp_path):
    traces = tmp_path / "traces"
    dataset = [QAExample(str(i), f"q{i}", [f"answer {i}"]) for i in range(8)]
    others = {f"{e.id}.json" for e in dataset if e.id != "2"}
    waited = {}

    def solve_fn(example):
        if example.id != "2":
            return _own_trace(example)
        # fails only once every other question's trace is on disk, which
        # happens only if traces are written while the run goes on
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and not others <= {p.name for p in traces.glob("*")}:
            time.sleep(0.005)
        waited["saw_all"] = others <= {p.name for p in traces.glob("*")}
        raise RuntimeError("boom")

    report = run_benchmark(dataset, solve_fn, parallelism=4, trace_dir=traces)
    assert waited == {"saw_all": True}
    assert [r.id for r in report.per_example if r.failed] == ["2"]
    assert sorted(p.name for p in traces.iterdir()) == sorted(others)


def test_reference_scores_documented_values():
    assert REFERENCE_SCORES["hotpotqa"] == {"em": 56.00, "f1": 64.30}
    assert REFERENCE_SCORES["musique"] == {"em": 29.70, "f1": 38.14}
    assert REFERENCE_SCORES["2wiki"] == {"em": 61.90, "f1": 64.30}


@pytest.mark.parametrize("fmt, where", [("generic", "line 1"), ("hotpotqa", "entry 0")])
def test_load_rejects_a_blank_question(tmp_path, fmt, where):
    record = {"id": "1", "_id": "1", "question": " \t ", "answers": ["a"], "answer": "a"}
    text = json.dumps(record) + "\n" if fmt == "generic" else json.dumps([record])
    path = _write(tmp_path / "d.json", text)
    with pytest.raises(ParseError, match=f"'question' in {where}"):
        load_dataset(path, fmt)
