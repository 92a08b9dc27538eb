import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
from importlib import resources
from pathlib import Path

import pytest

import subhop
from subhop import cli
from subhop.cli import _config_from_args, build_parser, run
from subhop.config import load_config
from subhop.errors import ConfigError
from subhop.indexer import build_graph_index
from subhop.kg import KnowledgeGraph
from subhop.solver import validate_trace_dict
from subhop.stub import rule

from helpers import (
    REGISTRY,
    TWO_HOP_CORPUS,
    TWO_HOP_QUESTION,
    MockChatServer,
    raw_reply,
    two_hop_ask_rules,
    two_hop_index_rules,
    write_corpus,
    write_script,
)


@pytest.fixture()
def env(tmp_path):
    corpus = write_corpus(tmp_path / "corpus.jsonl", TWO_HOP_CORPUS)
    index_script = write_script(tmp_path / "index_script.json", two_hop_index_rules())
    ask_script = write_script(tmp_path / "ask_script.json", two_hop_ask_rules())
    snapshot = tmp_path / "snapshot"
    runs = tmp_path / "runs"
    return {
        "tmp": tmp_path,
        "corpus": corpus,
        "index_script": index_script,
        "ask_script": ask_script,
        "snapshot": snapshot,
        "runs": runs,
    }


def base_args(env, script_key):
    return [
        "--snapshot-dir", str(env["snapshot"]),
        "--run-dir", str(env["runs"]),
        "--stub-script", str(env[script_key]),
    ]


def do_index(env, extra=()):
    return run(base_args(env, "index_script") + ["index", "--corpus", str(env["corpus"])]
               + list(extra))


def test_index_builds_snapshot(env, capsys):
    assert do_index(env) == 0
    out = capsys.readouterr().out
    assert "documents=3" in out and "stored=3" in out
    assert (env["snapshot"] / "graph.jsonl").exists()
    assert (env["snapshot"] / "manifest.json").exists()
    manifest = json.loads((env["snapshot"] / "manifest.json").read_text())
    assert manifest["embedder"] == "hash" and manifest["triples"] == 3


def test_index_missing_corpus_exits_3(env):
    code = run(base_args(env, "index_script")
               + ["index", "--corpus", str(env["tmp"] / "nope.jsonl")])
    assert code == 3


def test_index_refuses_overwrite_without_force(env):
    assert do_index(env) == 0
    env["index_script"] = write_script(env["tmp"] / "index2.json", two_hop_index_rules())
    assert do_index(env) == 3
    env["index_script"] = write_script(env["tmp"] / "index3.json", two_hop_index_rules())
    assert do_index(env, extra=["--force"]) == 0


def test_index_into_the_corpus_directory_keeps_the_corpus(env, capsys):
    env["snapshot"] = env["tmp"]
    corpus = env["corpus"].read_bytes()
    assert do_index(env) == 0
    env["index_script"] = write_script(env["tmp"] / "index2.json", two_hop_index_rules())
    assert do_index(env, extra=["--force"]) == 0
    assert env["corpus"].read_bytes() == corpus
    assert env["ask_script"].exists()
    assert run(base_args(env, "ask_script") + ["ask", TWO_HOP_QUESTION]) == 0
    assert "Emma Thomas" in capsys.readouterr().out


def _manifest(env) -> dict:
    return json.loads((env["snapshot"] / "manifest.json").read_text(encoding="utf-8"))


def test_index_usage_error_without_corpus_flag(env, capsys, monkeypatch):
    monkeypatch.delenv("SUBHOP_CORPUS", raising=False)
    assert run(base_args(env, "index_script") + ["index"]) == 2
    err = capsys.readouterr().err
    assert "--corpus" in err and "SUBHOP_CORPUS" in err


@pytest.mark.parametrize("source", ["environment", "global-flag"])
def test_index_reads_the_corpus_field(env, monkeypatch, source):
    args = base_args(env, "index_script") + ["index"]
    if source == "environment":
        monkeypatch.setenv("SUBHOP_CORPUS", str(env["corpus"]))
    else:
        monkeypatch.delenv("SUBHOP_CORPUS", raising=False)
        args = ["--corpus-path", str(env["corpus"])] + args
    assert run(args) == 0
    assert _manifest(env)["corpus_path"] == str(env["corpus"])


def test_index_corpus_flag_wins_over_the_environment(env, monkeypatch):
    monkeypatch.setenv("SUBHOP_CORPUS", str(write_corpus(env["tmp"] / "other.jsonl",
                                                         TWO_HOP_CORPUS)))
    assert do_index(env) == 0
    assert _manifest(env)["corpus_path"] == str(env["corpus"])


def test_ask_two_hop(env, capsys):
    do_index(env)
    capsys.readouterr()
    code = run(base_args(env, "ask_script") + ["ask", TWO_HOP_QUESTION])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "Emma Thomas"


def test_ask_trace_and_memory(env, capsys, monkeypatch):
    do_index(env)
    capsys.readouterr()
    wire_log = env["tmp"] / "wire.jsonl"
    monkeypatch.setenv("SUBHOP_WIRE_LOG", str(wire_log))
    code = run(base_args(env, "ask_script")
               + ["ask", TWO_HOP_QUESTION, "--trace", "--show-memory"])
    out = capsys.readouterr().out
    assert code == 0
    # the memory lines are the block that the final-answer prompt carried
    entries = map(json.loads, wire_log.read_text(encoding="utf-8").splitlines())
    prompt = [e["prompt"] for e in entries if e["template"] == "final_answer"][0]
    before, after = REGISTRY.render(
        "final_answer", {"question": TWO_HOP_QUESTION, "memory": "\0"}).split("\0")
    assert prompt.startswith(before) and prompt.endswith(after)
    memory = prompt[len(before): len(prompt) - len(after)]
    assert memory == ("step 1: Inception | directed by | Christopher Nolan\n"
                      "step 2: Christopher Nolan | spouse | Emma Thomas")
    trace_path = env["runs"] / "traces" / f"{cli.question_id_for(TWO_HOP_QUESTION)}.json"
    assert out == f"Emma Thomas\n{memory}\ntrace: {trace_path}\n"
    data = json.loads(trace_path.read_text(encoding="utf-8"))
    validate_trace_dict(data)
    assert data["final_answer"] == "Emma Thomas"
    dynamic = [t for t in data["memory"] if t["relation"] == "spouse"]
    assert dynamic


def _wire_log_entries(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_templates_dir_supplies_the_prompts(env, monkeypatch):
    templates = env["tmp"] / "templates"
    shutil.copytree(resources.files("subhop") / "templates", templates)
    (templates / "final_answer.txt").write_text(
        "A custom final prompt for {question}\n{memory}\n", encoding="utf-8")
    wire_log = env["tmp"] / "wire.jsonl"
    monkeypatch.setenv("SUBHOP_WIRE_LOG", str(wire_log))
    assert do_index(env) == 0
    assert run(["--templates-dir", str(templates)] + base_args(env, "ask_script")
               + ["ask", TWO_HOP_QUESTION]) == 0
    prompts = [e["prompt"] for e in _wire_log_entries(wire_log) if e["template"] == "final_answer"]
    assert prompts == [f"A custom final prompt for {TWO_HOP_QUESTION}\n"
                       "step 1: Inception | directed by | Christopher Nolan\n"
                       "step 2: Christopher Nolan | spouse | Emma Thomas\n"]


def test_extract_char_budget_splits_a_long_document(env, monkeypatch):
    paragraphs = [f"Film{i} was directed by Director{i} in the year 200{i}." for i in range(4)]
    write_corpus(env["corpus"], [{"id": "d1", "title": "Films", "text": "\n\n".join(paragraphs)}])
    write_script(env["index_script"], [rule("extract_triples", [], repeat=True)])
    wire_log = env["tmp"] / "wire.jsonl"
    monkeypatch.setenv("SUBHOP_WIRE_LOG", str(wire_log))
    calls = {}
    for budget in ("8000", "60"):
        monkeypatch.setenv("SUBHOP_EXTRACT_CHAR_BUDGET", budget)
        wire_log.unlink(missing_ok=True)
        assert do_index(env, extra=["--force"]) == 0
        calls[budget] = len(_wire_log_entries(wire_log))
    assert calls == {"8000": 1, "60": 4}


def test_parallelism_sets_the_eval_threads(env, monkeypatch):
    dataset = _eval_fixture(env)
    assert do_index(env) == 0
    real_solve, threads, barrier = cli.solve, [], None

    def solve_in_pairs(*args):
        threads.append(threading.get_ident())
        if barrier is not None:
            barrier.wait()  # passes only while two questions are solved at once
        return real_solve(*args)

    monkeypatch.setattr(cli, "solve", solve_in_pairs)
    seen = {}
    for parallelism in (1, 2):
        threads.clear()
        barrier = threading.Barrier(2, timeout=30) if parallelism == 2 else None
        assert run(base_args(env, "ask_script") + ["--parallelism", str(parallelism),
                                                   "eval", "--dataset", str(dataset)]) == 0
        seen[parallelism] = set(threads)
    assert seen[1] == {threading.get_ident()}
    assert len(seen[2]) == 2 and threading.get_ident() not in seen[2]


def test_ask_missing_snapshot_exits_3(env, capsys):
    code = run(base_args(env, "ask_script") + ["ask", "anything?"])
    assert code == 3
    assert "index" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--no-decomposition"]])
def test_ask_question_citing_a_number(env, capsys, extra):
    assert do_index(env) == 0
    write_script(env["ask_script"], [
        rule("decompose", ["Who sang the #1 hit of 1999?"]),
        rule("answer_from_triples",
             {"answerable": True, "answer": "Prince", "used_triple_ids": [0]}),
        rule("final_answer", "Prince"),
    ])
    capsys.readouterr()
    code = run(base_args(env, "ask_script") + extra + ["ask", "Who sang the #1 hit of 1999?"])
    assert code == 0
    assert capsys.readouterr().out == "Prince\n"


def _eval_fixture(env):
    """4 single-hop questions; 3 answered exactly, 1 missed entirely."""
    films = [("FilmA", "DirectorA"), ("FilmB", "DirectorB"),
             ("FilmC", "DirectorC"), ("FilmD", "DirectorD")]
    corpus = [
        {"id": f"d{i}", "title": film, "text": f"{film} was directed by {director}."}
        for i, (film, director) in enumerate(films)
    ]
    write_corpus(env["corpus"], corpus)
    index_rules = [
        rule("extract_triples", [[film, "directed by", director]], contains=film)
        for film, director in films
    ]
    env["index_script"] = write_script(env["tmp"] / "eval_index.json", index_rules)
    ask_rules = []
    for i, (film, director) in enumerate(films):
        question = f"Who directed {film}?"
        final = director if film != "FilmD" else "Nobody Knows"
        ask_rules += [
            rule("decompose", [question], contains=question),
            rule("answer_from_triples",
                 {"answerable": True, "answer": final, "used_triple_ids": [i]},
                 contains=question),
            rule("final_answer", final, contains=question),
        ]
    env["ask_script"] = write_script(env["tmp"] / "eval_ask.json", ask_rules)
    dataset = env["tmp"] / "dataset.jsonl"
    dataset.write_text(
        "".join(
            json.dumps({"id": f"q{i}", "question": f"Who directed {film}?",
                        "answers": [director]}) + "\n"
            for i, (film, director) in enumerate(films)
        ),
        encoding="utf-8",
    )
    return dataset


def test_eval_prints_em_f1(env, capsys):
    dataset = _eval_fixture(env)
    assert do_index(env) == 0
    capsys.readouterr()
    code = run(base_args(env, "ask_script") + ["eval", "--dataset", str(dataset)])
    out = capsys.readouterr().out
    assert code == 0
    assert "EM 75.00 F1 75.00" in out
    report = json.loads((env["runs"] / "report.json").read_text())
    assert report["config"]["k_triples"] == 5
    assert "api_key" not in report["config"]
    assert (env["runs"] / "report.txt").exists()
    traces = sorted(p.name for p in (env["runs"] / "traces").iterdir())
    assert traces == ["q0.json", "q1.json", "q2.json", "q3.json"]


def test_eval_unknown_format_exits_2(env):
    dataset = _eval_fixture(env)
    do_index(env)
    code = run(base_args(env, "ask_script")
               + ["eval", "--dataset", str(dataset), "--format", "weird"])
    assert code == 2


def test_eval_missing_dataset_exits_3(env):
    do_index(env)
    code = run(base_args(env, "ask_script")
               + ["eval", "--dataset", str(env["tmp"] / "none.jsonl")])
    assert code == 3


@pytest.mark.parametrize("second_id", ["q0", "../../escape"])
def test_eval_with_duplicate_or_path_id_exits_4(env, capsys, second_id):
    dataset = _eval_fixture(env)
    lines = dataset.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = lines[1].replace('"q1"', json.dumps(second_id))
    dataset.write_text("".join(lines), encoding="utf-8")
    do_index(env)
    capsys.readouterr()
    code = run(base_args(env, "ask_script") + ["eval", "--dataset", str(dataset)])
    assert code == 4
    assert "in line 2" in capsys.readouterr().err
    assert not (env["runs"] / "traces").exists()
    assert not (env["tmp"] / "escape.json").exists()  # where runs/traces/../../ points


def test_graph_stats(env, capsys):
    do_index(env)
    capsys.readouterr()
    code = run(base_args(env, "ask_script") + ["graph", "stats"])
    out = capsys.readouterr().out
    assert code == 0
    # entities: inception, christopher nolan, london, interstellar
    assert "triples: 3" in out
    assert "entities: 4" in out
    assert "dynamic: 0" in out


def test_graph_export_json_round_trips(env, capsys, tmp_path):
    do_index(env)
    capsys.readouterr()
    code = run(base_args(env, "ask_script") + ["graph", "export", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    exported = tmp_path / "export.jsonl"
    exported.write_text(out, encoding="utf-8")
    # the export is the saved file, byte for byte, so it loads under its digest
    saved = env["snapshot"] / "graph.jsonl"
    assert exported.read_bytes() == saved.read_bytes()
    manifest = json.loads((env["snapshot"] / "manifest.json").read_text(encoding="utf-8"))
    reloaded = KnowledgeGraph.load(exported, manifest["graph_sha256"])
    assert reloaded == KnowledgeGraph.load(saved, manifest["graph_sha256"])
    assert len(reloaded) == 3


def test_graph_export_edgelist(env, capsys):
    do_index(env)
    capsys.readouterr()
    code = run(base_args(env, "ask_script") + ["graph", "export", "--format", "edgelist"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0] == "Inception\tdirected by\tChristopher Nolan"
    assert all(line.count("\t") == 2 for line in lines)


@pytest.mark.parametrize("unbuffered", [True, False])
def test_reader_closing_stdout_early_exits_0_quietly(env, unbuffered):
    # like ``subhop graph export | head -c 10``, but the reader is gone
    # before the child writes its first byte
    assert do_index(env) == 0
    child_env = dict(os.environ, PYTHONPATH=str(Path(subhop.__file__).parents[1]))
    child_env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        child_env["PYTHONUNBUFFERED"] = "1"
    child = subprocess.Popen(
        [sys.executable, "-m", "subhop.cli", "--snapshot-dir", str(env["snapshot"]),
         "graph", "export"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env,
    )
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait(timeout=60) == 0
    assert err == b""


def test_graph_missing_snapshot_exits_3(env):
    assert run(base_args(env, "ask_script") + ["graph", "stats"]) == 3


def test_corrupted_snapshot_exits_4(env, capsys):
    do_index(env)
    (env["snapshot"] / "graph.jsonl").write_text("garbage\n", encoding="utf-8")
    assert run(base_args(env, "ask_script") + ["graph", "stats"]) == 4


def test_truncated_snapshot_exits_4(env, capsys):
    do_index(env)
    path = env["snapshot"] / "graph.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")
    assert run(base_args(env, "ask_script") + ["ask", TWO_HOP_QUESTION]) == 4
    assert "changed since the snapshot was saved" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["stats"], ["export", "--format", "edgelist"]])
def test_graph_on_truncated_snapshot_exits_4(env, capsys, command):
    do_index(env)
    path = env["snapshot"] / "graph.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")
    capsys.readouterr()
    assert run(base_args(env, "ask_script") + ["graph", *command]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "graph.jsonl changed since the snapshot was saved" in captured.err


def test_ask_with_other_embedding_dimension_exits_4(env, capsys):
    do_index(env)
    args = base_args(env, "ask_script") + ["--embedding-dim", "128", "ask", TWO_HOP_QUESTION]
    assert run(args) == 4
    assert "snapshot built with hash/256, configured hash/128" in capsys.readouterr().err


def test_ask_after_corpus_changed_exits_4(env, capsys):
    do_index(env)
    write_corpus(env["corpus"], TWO_HOP_CORPUS[:1])
    assert run(base_args(env, "ask_script") + ["ask", TWO_HOP_QUESTION]) == 4
    assert "changed since the snapshot was indexed" in capsys.readouterr().err


def test_a_snapshot_indexed_with_a_relative_corpus_loads_from_another_directory(
        env, capsys, monkeypatch):
    monkeypatch.chdir(env["tmp"])
    assert run(base_args(env, "index_script") + ["index", "--corpus", "corpus.jsonl"]) == 0
    elsewhere = env["tmp"] / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    capsys.readouterr()
    assert run(base_args(env, "ask_script") + ["ask", TWO_HOP_QUESTION]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "Emma Thomas"
    manifest = json.loads((env["snapshot"] / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["corpus_path"] == str(env["corpus"])


def test_index_pins_the_corpus_bytes_it_parsed(env, capsys, monkeypatch):
    # d1 is rewritten after the corpus was read and before the snapshot is
    # saved: the manifest must pin the bytes the graph was extracted from
    def rewrite_then_build(*args, **kwargs):
        edited = [dict(TWO_HOP_CORPUS[0], text="Rewritten while indexing.")]
        write_corpus(env["corpus"], edited + TWO_HOP_CORPUS[1:])
        return build_graph_index(*args, **kwargs)

    monkeypatch.setattr(cli, "build_graph_index", rewrite_then_build)
    assert do_index(env) == 0
    capsys.readouterr()
    assert run(base_args(env, "ask_script") + ["ask", TWO_HOP_QUESTION]) == 4
    assert "changed since the snapshot was indexed" in capsys.readouterr().err


def test_no_arguments_is_usage_error():
    assert run([]) == 2


def test_config_precedence(tmp_path, monkeypatch):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"k_triples": 3, "k_docs": 2}), encoding="utf-8")
    config = load_config(config_file)
    assert (config.k_triples, config.k_docs) == (3, 2)
    monkeypatch.setenv("SUBHOP_K_TRIPLES", "7")
    config = load_config(config_file)
    assert config.k_triples == 7
    config = load_config(config_file, overrides={"k_triples": 9})
    assert config.k_triples == 9
    assert config.k_docs == 2


def test_config_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError):
        load_config(overrides={"k_triples": 0})
    with pytest.raises(ConfigError):
        load_config(overrides={"backend": "warp"})
    # a budget below 1 made extraction split forever; negative backoff made
    # the retry sleep raise
    for name, value in [("extract_char_budget", 0), ("backoff_base", -0.5),
                        ("backoff_base", float("nan")), ("request_timeout", 0.0)]:
        with pytest.raises(ConfigError, match=name):
            load_config(overrides={name: value})
    bad = tmp_path / "c.json"
    bad.write_text("{nope}", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_config_env_bool_parsing(monkeypatch):
    monkeypatch.setenv("SUBHOP_DECOMPOSITION", "off")
    assert load_config().decomposition is False
    monkeypatch.setenv("SUBHOP_DECOMPOSITION", "true")
    assert load_config().decomposition is True


def test_no_flags_turn_their_config_fields_off():
    args = build_parser().parse_args(
        ["--no-decomposition", "--no-rewriting", "--no-update", "graph", "stats"])
    config = _config_from_args(args)
    assert (config.decomposition, config.rewriting, config.graph_update) == (False,) * 3
    config = _config_from_args(build_parser().parse_args(["graph", "stats"]))
    assert (config.decomposition, config.rewriting, config.graph_update) == (True,) * 3


def test_ablation_flags_map_to_config(env, capsys, monkeypatch):
    do_index(env)
    capsys.readouterr()
    wire_log = env["tmp"] / "wire.jsonl"
    monkeypatch.setenv("SUBHOP_WIRE_LOG", str(wire_log))
    code = run(base_args(env, "ask_script") + [
        "--no-decomposition", "--no-rewriting", "--no-update",
        "ask", TWO_HOP_QUESTION, "--trace"])
    assert code == 0
    # the flags reach ``solve``: no plan is asked for, and the one step's
    # fallback writes nothing back
    assert "decompose" not in [e["template"] for e in _wire_log_entries(wire_log)]
    trace_path = Path(capsys.readouterr().out.splitlines()[-1].removeprefix("trace: "))
    steps = json.loads(trace_path.read_text(encoding="utf-8"))["sub_answers"]
    assert len(steps) == 1 and "update:disabled" in steps[0]["events"]


@pytest.mark.parametrize("values", [
    {"decomposition": "false"}, {"k_triples": "5"}, {"k_triples": True},
    {"backoff_base": "0.5"}, {"endpoint": 5},
], ids=["bool-as-string", "int-as-string", "int-as-bool", "float-as-string", "str-as-int"])
def test_config_rejects_a_value_of_the_wrong_type(tmp_path, capsys, values):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(values), encoding="utf-8")
    name = next(iter(values))
    with pytest.raises(ConfigError, match=f"{name} must be of type"):
        load_config(path)
    with pytest.raises(ConfigError, match=f"{name} must be of type"):
        load_config(overrides=values)
    assert run(["--config", str(path), "graph", "stats"]) == 2
    err = capsys.readouterr().err
    assert f"{name} must be of type" in err and "Traceback" not in err


def test_config_float_field_takes_an_int():
    assert load_config(overrides={"backoff_base": 1, "request_timeout": 2}).backoff_base == 1


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert run(["--config", str(tmp_path / "nope.json"), "graph", "stats"]) == 2
    assert "invalid config file" in capsys.readouterr().err


def test_ask_blank_question_exits_2(env, capsys):
    do_index(env)
    assert run(base_args(env, "ask_script") + ["ask", " \t "]) == 2
    assert "the question is blank" in capsys.readouterr().err


def test_index_corpus_that_is_not_utf8_exits_4(env, capsys):
    env["corpus"].write_bytes(b'{"id": "d1", "text": "caf\xe9"}\n')
    assert do_index(env) == 4
    assert "not UTF-8 text (line 1)" in capsys.readouterr().err


def test_index_against_a_reply_that_is_not_utf8_exits_4(env, capsys):
    with MockChatServer([raw_reply(b"\xff\xfe")] * len(TWO_HOP_CORPUS)) as server:
        code = run(["--snapshot-dir", str(env["snapshot"]), "--backend", "remote",
                    "--endpoint", server.endpoint, "index", "--corpus", str(env["corpus"])])
    assert code == 4
    assert "malformed completion payload" in capsys.readouterr().err
    assert not (env["snapshot"] / "manifest.json").exists()


def test_index_with_a_template_that_is_not_utf8_exits_4(env, capsys):
    templates = env["tmp"] / "templates"
    shutil.copytree(resources.files("subhop") / "templates", templates)
    (templates / "final_answer.txt").write_bytes("Réponse : {question}\n".encode("latin-1"))
    assert run(["--templates-dir", str(templates)] + base_args(env, "index_script")
               + ["index", "--corpus", str(env["corpus"])]) == 4
    assert "final_answer.txt is not UTF-8 text" in capsys.readouterr().err
    assert not (env["snapshot"] / "manifest.json").exists()


def test_ask_with_a_manifest_corpus_path_that_is_not_a_string_exits_4(env, capsys):
    do_index(env)
    path = env["snapshot"] / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["corpus_path"] = ["corpus.jsonl"]
    path.write_text(json.dumps(manifest), encoding="utf-8")
    assert run(base_args(env, "ask_script") + ["ask", TWO_HOP_QUESTION]) == 4
    assert "'corpus_path' must be a string" in capsys.readouterr().err


def test_ask_with_a_manifest_without_a_corpus_sha256_exits_4(env, capsys):
    do_index(env)
    path = env["snapshot"] / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    del manifest["corpus_sha256"]
    path.write_text(json.dumps(manifest), encoding="utf-8")
    assert run(base_args(env, "ask_script") + ["ask", TWO_HOP_QUESTION]) == 4
    assert "'corpus_sha256' must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["ask", TWO_HOP_QUESTION], ["graph", "stats"]])
def test_a_snapshot_without_a_graph_digest_exits_4(env, capsys, command):
    # a manifest written before snapshots recorded graph_sha256
    do_index(env)
    path = env["snapshot"] / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    del manifest["graph_sha256"]
    path.write_text(json.dumps(manifest), encoding="utf-8")
    capsys.readouterr()
    assert run(base_args(env, "ask_script") + command) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "records no 'graph_sha256'" in captured.err
    assert "subhop index --force" in captured.err


@pytest.mark.parametrize("line, message", [
    ("not json", "invalid JSON in graph.jsonl: Expecting value"),
    ('{"id":2,"head":"A","relation":"r","provenance":"doc:d1","step":0}',
     "missing field 'tail'"),
], ids=["not-json", "missing-field"])
def test_a_forged_graph_digest_over_a_malformed_line_exits_4(env, capsys, line, message):
    # the digest matches, so only a forged manifest gets this far: the
    # malformed line is still an error naming it, not a traceback
    do_index(env)
    graph = env["snapshot"] / "graph.jsonl"
    graph.write_text(graph.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
    path = env["snapshot"] / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["graph_sha256"] = hashlib.sha256(graph.read_bytes()).hexdigest()
    path.write_text(json.dumps(manifest), encoding="utf-8")
    capsys.readouterr()
    assert run(base_args(env, "ask_script") + ["graph", "stats"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{message} (line 4)" in captured.err
