"""Every ``Config`` field changes what a run does, and every global CLI
flag sets a field.

``EFFECTS`` names, for each field, a test that sets the field and sees
what it changes: a request the backend receives, the wire log, the
trace, an exit code, or where a file lands. Reading the field back does
not count. A field with no such test has no effect and is deleted, with
its flag and its environment variable.
"""

import ast
import dataclasses
from pathlib import Path

from subhop.cli import build_parser
from subhop.config import Config

TESTS = Path(__file__).parent

EFFECTS = {
    "backend": "test_gateway.py::test_backend_and_endpoint_pick_who_answers",
    "endpoint": "test_gateway.py::test_backend_and_endpoint_pick_who_answers",
    "model": "test_gateway.py::test_build_gateway_sends_configured_model_and_api_key",
    "api_key": "test_gateway.py::test_build_gateway_sends_configured_model_and_api_key",
    "embedding_dim": "test_cli.py::test_ask_with_other_embedding_dimension_exits_4",
    "k_triples": "test_solver.py::test_k_triples_sets_the_triples_a_step_retrieves",
    "k_docs": "test_solver.py::test_k_docs_sets_the_passages_a_fallback_retrieves",
    "max_subquestions": "test_solver.py::test_max_subquestions_caps_the_plan",
    "llm_budget": "test_solver.py::test_solve_budget_exceeded_partial_trace",
    "parallelism": "test_cli.py::test_parallelism_sets_the_eval_threads",
    "max_tokens": "test_gateway.py::test_build_gateway_sends_configured_max_tokens",
    "retry_limit": "test_gateway.py::test_retry_limit_caps_the_requests",
    "backoff_base": "test_gateway.py::test_backoff_base_spaces_the_retries",
    "request_timeout": "test_gateway.py::test_request_timeout_gives_up_on_a_stalled_reply",
    "extract_char_budget": "test_cli.py::test_extract_char_budget_splits_a_long_document",
    # the golden arms: the no_decomposition and no_update arms' traces
    # differ from the full arm's; the no_rewriting arm's do not (the
    # fixture's questions are single-hop), so rewriting has its own test
    "decomposition": "test_golden_traces.py::test_benchmark_outputs_match_golden",
    "rewriting": "test_solver.py::test_rewriting_off_makes_no_rewrite_call",
    "graph_update": "test_golden_traces.py::test_benchmark_outputs_match_golden",
    "templates_dir": "test_cli.py::test_templates_dir_supplies_the_prompts",
    "snapshot_dir": "test_cli.py::test_index_builds_snapshot",
    "run_dir": "test_cli.py::test_eval_prints_em_f1",
    "stub_script": "test_cli.py::test_ask_two_hop",
    "corpus": "test_cli.py::test_index_reads_the_corpus_field",
    "wire_log": "test_cli.py::test_ask_trace_and_memory",
}

# every global flag and the field it sets
FLAGS = {
    "--backend": "backend",
    "--model": "model",
    "--endpoint": "endpoint",
    "--embedding-dim": "embedding_dim",
    "--k-triples": "k_triples",
    "--k-docs": "k_docs",
    "--max-subquestions": "max_subquestions",
    "--llm-budget": "llm_budget",
    "--parallelism": "parallelism",
    "--templates-dir": "templates_dir",
    "--snapshot-dir": "snapshot_dir",
    "--run-dir": "run_dir",
    "--stub-script": "stub_script",
    "--corpus-path": "corpus",
    "--no-decomposition": "decomposition",
    "--no-rewriting": "rewriting",
    "--no-update": "graph_update",
}
# global flags that set no field
NOT_FIELDS = {"--help": "help", "--config": "config"}
# the fields set only by the environment or the config file, as the README lists them
FLAGLESS = {"max_tokens", "retry_limit", "backoff_base", "request_timeout",
            "extract_char_budget", "wire_log", "api_key"}

FIELDS = [field.name for field in dataclasses.fields(Config)]


def _test_functions(module: str) -> set[str]:
    tree = ast.parse((TESTS / module).read_text(encoding="utf-8"))
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}


def _actions(parser):
    """Every action of ``parser`` and of its subcommands' parsers."""
    for action in parser._actions:
        yield action
        if isinstance(action.choices, dict):  # a subcommand name -> its parser
            for subparser in action.choices.values():
                yield from _actions(subparser)


def test_every_field_names_a_test_of_its_effect():
    assert sorted(EFFECTS) == sorted(FIELDS)
    missing = [f"{field}: {test}" for field, test in EFFECTS.items()
               if test.partition("::")[2] not in _test_functions(test.partition("::")[0])]
    assert missing == []


def test_every_global_flag_sets_a_field():
    parser_flags = {action.option_strings[-1]: action.dest
                    for action in build_parser()._actions if action.option_strings}
    assert parser_flags == {**FLAGS, **NOT_FIELDS}
    assert set(FLAGS.values()) <= set(FIELDS)
    assert set(FIELDS) - set(FLAGS.values()) == FLAGLESS


def test_no_flag_sets_the_api_key():
    dests = [action.dest for action in _actions(build_parser())]
    assert "force" in dests  # a subcommand's flag: the walk reaches them
    assert "api_key" not in dests
