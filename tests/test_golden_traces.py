"""The byte-identity contract: the canonical outputs of the two-hop fixture
and of the 20-question fixture hash to recorded sha256 digests.

Each output is path-free: a trace in its canonical JSON form, the prompts
the stub answered in order, ``report.json`` and ``graph.jsonl`` after the
write-backs. A change that alters any of them by one byte fails here; a
deliberate change re-records the digests with ``golden_digests()``.
"""

from __future__ import annotations

import hashlib
import json
from itertools import groupby

import pytest

from subhop.benchmark import QAExample, run_benchmark, write_report_files
from subhop.solver import solve, trace_to_json

from helpers import (
    TWO_HOP_QID,
    TWO_HOP_QUESTION,
    build_benchmark_fixture,
    build_benchmark_world,
    build_two_hop_world,
    fresh_rules,
    stub_gateway,
    two_hop_ask_rules,
)

ARMS = {
    "full": {},
    "no_decomposition": {"decomposition": False},
    "no_rewriting": {"rewriting": False},
    "no_update": {"graph_update": False},
}

# sha256 of each output, recorded with golden_digests()
GOLDEN = {
    "two_hop/trace":
        "00c2603b7dd3fe70fe07dd4a909926e9f9ed96ca42c9e7434f2a6ae7b2791312",
    "two_hop/prompts":
        "14e06bdf781f975b263059ebe272f6773ac9af64a23d5f2ba47c0d9ce257bdc9",
    "two_hop/graph":
        "456b341c4408e54ee7e5d42971d15d17459ea0df0553e3b2085e4c52bb7c8a04",
    "two_hop_no_rewriting/trace":
        "ff5afcb931ba963119f1587a6c5379353c86f7c956bc33a92be6975ad8f2cf60",
    "two_hop_no_rewriting/prompts":
        "6e19cf5847bf866175ca71ba42b1dfc667f6f5e18778fa7a8c9ccaa60609ee50",
    "two_hop_no_rewriting/graph":
        "456b341c4408e54ee7e5d42971d15d17459ea0df0553e3b2085e4c52bb7c8a04",
    "full/traces":
        "b2ca097cba5f421ea741db73a6a3d2039ffe28805186dc94bf24edb0397abe56",
    "full/report":
        "54e4463e56ecb83739d88dad1fdef65cc292f74aebafdf71ffbb45659dbd8b14",
    "full/graph":
        "d542c68f90c2101a3fbd126634d21163b3b949634a0e4a133106b210e8d17688",
    "full/prompts":
        "6d7b299559f4a766eda1e20b8c644d66694ea196262228f44d1cb59dc5bfd344",
    "no_decomposition/traces":
        "31c50b194b42f4df152bd4ddf55463b0b10908c9707934b76bb605a95b94b376",
    "no_decomposition/report":
        "936697e888f46ed7626cf52d25c21b6bcda1a568cf87f09b0a396ee80a8e471b",
    "no_decomposition/graph":
        "d542c68f90c2101a3fbd126634d21163b3b949634a0e4a133106b210e8d17688",
    "no_decomposition/prompts":
        "d0e8114aaed3bfbabce87d7457e880bdebbd4753547a6cb71d09999f192fcbf0",
    "no_rewriting/traces":
        "b2ca097cba5f421ea741db73a6a3d2039ffe28805186dc94bf24edb0397abe56",
    "no_rewriting/report":
        "6a3434a37d0eb501e9ff728c57cafe17855836b72b2bb86436de6dacf80ec079",
    "no_rewriting/graph":
        "d542c68f90c2101a3fbd126634d21163b3b949634a0e4a133106b210e8d17688",
    "no_rewriting/prompts":
        "6d7b299559f4a766eda1e20b8c644d66694ea196262228f44d1cb59dc5bfd344",
    "no_update/traces":
        "ddf7532614a6fa3daa4ec4540fde03e24d36e37bb2a964f557150b077e5abc4b",
    "no_update/report":
        "0d7cab4c005c2bc2851e5de87f49e4cfb1e47ca7615205852cdd6128da1324d1",
    "no_update/graph":
        "864dd7e8950450be9e7f49d2afe5c1285be845081fd6938bf7fac8fd0fee3784",
    "no_update/prompts":
        "44a872ef6ad02475b2404a285f426b96b664791f2149cc4e5e731d117af135ce",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _prompts(gateway) -> bytes:
    """The prompts the stub answered, in send order, except within a
    fallback's document answer and extraction, which may go out together:
    each run of consecutive entries of those two templates is put in a
    stable order with ``answer_from_docs`` first."""
    log = []
    pair = ("answer_from_docs", "extract_triples")
    for overlapped, run in groupby(gateway.backend.log,
                                   key=lambda entry: entry["template"] in pair):
        if overlapped:
            run = sorted(run, key=lambda entry: entry["template"] != "answer_from_docs")
        log.extend(run)
    return json.dumps(log, ensure_ascii=False, indent=2).encode("utf-8")


def _graph_bytes(graph, directory) -> bytes:
    path = directory / "graph.jsonl"
    graph.save(path)
    return path.read_bytes()


def two_hop_outputs(tmp_path, name: str = "two_hop", **config_overrides) -> dict[str, str]:
    world = build_two_hop_world(tmp_path, **config_overrides)
    gateway = world.ask_gateway(two_hop_ask_rules())
    trace = solve(TWO_HOP_QID, TWO_HOP_QUESTION, world.config, world.stores,
                  gateway, world.embedder)
    return {
        f"{name}/trace": _sha(trace_to_json(trace).encode("utf-8")),
        f"{name}/prompts": _sha(_prompts(gateway)),
        f"{name}/graph": _sha(_graph_bytes(world.stores.graph, tmp_path)),
    }


def two_hop_no_rewriting_outputs(tmp_path) -> dict[str, str]:
    """The two-hop question with literal substitution: "#1" becomes the
    scripted "Christopher Nolan", so the same rules match, and the
    prompts lose only the one ``rewrite`` call."""
    return two_hop_outputs(tmp_path, "two_hop_no_rewriting", rewriting=False)


def benchmark_outputs(tmp_path, arm: str) -> dict[str, str]:
    fixture = build_benchmark_fixture(n=20, fallback_every=4)
    world = build_benchmark_world(tmp_path, fixture, **ARMS[arm])
    gateway = stub_gateway(fresh_rules(fixture.ask_rules))
    dataset = [QAExample(r["id"], r["question"], r["answers"])
               for r in fixture.dataset_records]
    traces = []

    def solve_fn(example):
        trace = solve(example.id, example.question, world.config, world.stores,
                      gateway, world.embedder)
        traces.append(trace_to_json(trace))
        return trace

    report = run_benchmark(dataset, solve_fn, parallelism=1, dataset_name="fixture",
                           config=world.config.public_dict())
    report_path, _ = write_report_files(report, tmp_path / "run")
    return {
        f"{arm}/traces": _sha("".join(traces).encode("utf-8")),
        f"{arm}/report": _sha(report_path.read_bytes()),
        f"{arm}/graph": _sha(_graph_bytes(world.stores.graph, tmp_path)),
        f"{arm}/prompts": _sha(_prompts(gateway)),
    }


def golden_digests(tmp_path) -> dict[str, str]:
    """Every recorded digest, computed afresh under ``tmp_path``."""
    digests = two_hop_outputs(tmp_path / "two_hop")
    digests.update(two_hop_no_rewriting_outputs(tmp_path / "two_hop_no_rewriting"))
    for arm in ARMS:
        digests.update(benchmark_outputs(tmp_path / arm, arm))
    return digests


def test_two_hop_outputs_match_golden(tmp_path):
    got = two_hop_outputs(tmp_path)
    assert got == {key: GOLDEN[key] for key in got}


def test_two_hop_without_rewriting_outputs_match_golden(tmp_path):
    got = two_hop_no_rewriting_outputs(tmp_path)
    assert got == {key: GOLDEN[key] for key in got}


@pytest.mark.parametrize("arm", list(ARMS))
def test_benchmark_outputs_match_golden(tmp_path, arm):
    got = benchmark_outputs(tmp_path, arm)
    assert got == {key: GOLDEN[key] for key in got}
