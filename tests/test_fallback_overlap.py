"""The fallback sends its document answer and its extraction together when
the question's remaining budget covers both calls' worst case, and one
after the other otherwise; either way the trace is the serial run's."""

from __future__ import annotations

import hashlib
import threading
import time

import pytest

from subhop.gateway import Gateway
from subhop.solver import solve, trace_to_json
from subhop.stub import rule

from helpers import (
    REGISTRY,
    TWO_HOP_QID,
    TWO_HOP_QUESTION,
    RecordingStub,
    build_two_hop_world,
    two_hop_ask_rules,
)
from test_golden_traces import GOLDEN, _prompts

# sha256 of the two-hop trace at every llm_budget from 1 to the run's call
# count + 1, recorded with the fallback's two calls sent one after the other.
# The fallback starts with 4 calls spent and its worst case is 4 more, so the
# calls overlap from llm_budget 8 on; "both_retry" spends all 4 there.
SWEEP = {
    "plain": [
        "5b3d2822049bf496a57666f41f91ea1460b7dbecebda6e81e994ec7e311f4469",
        "5119768756e40bd47d6a0a291246acf9f79d642f4e3a6b903621e386e049b972",
        "457ea069a2a1146697841a9957df655fee5cad3621880bfa8220b0dfe3a619f5",
        "b1f5e9380e8689045b0f14ca12e83b216f6c6b9bb82080eaf7337041723435c6",
        "e7f26147e2b63399a6ab9e2dbccae2fb428b905f0cb73d0cf9f7381952578d8a",
        "098be052710ad12c655446a91ad27911ab971c8a23c4b2072121904edb771d97",
        "44d54e8be75c99c4216b03adb75cbba5f662f9b05c13196cf9bd0e084f86c769",
        "00c2603b7dd3fe70fe07dd4a909926e9f9ed96ca42c9e7434f2a6ae7b2791312",
        "00c2603b7dd3fe70fe07dd4a909926e9f9ed96ca42c9e7434f2a6ae7b2791312",
    ],
    "answer_retry": [
        "5b3d2822049bf496a57666f41f91ea1460b7dbecebda6e81e994ec7e311f4469",
        "5119768756e40bd47d6a0a291246acf9f79d642f4e3a6b903621e386e049b972",
        "457ea069a2a1146697841a9957df655fee5cad3621880bfa8220b0dfe3a619f5",
        "b1f5e9380e8689045b0f14ca12e83b216f6c6b9bb82080eaf7337041723435c6",
        "e7f26147e2b63399a6ab9e2dbccae2fb428b905f0cb73d0cf9f7381952578d8a",
        "d05796513021c99a51f304aa51647e35a1b6049b43781669e49352030d865f7a",
        "e936fa17b019beec51a7fd207c76f538221a215768acc292e2277caf26c96359",
        "dcf5c75eb54778d7ee59d3387cc378ca187fcdd253e7e52c8de80e06cd79cde3",
        "4a5270832fb8e7d9d6f7da787c984ea8993fb026085727dbf62715bb74bc781c",
        "4a5270832fb8e7d9d6f7da787c984ea8993fb026085727dbf62715bb74bc781c",
    ],
    "both_retry": [
        "5b3d2822049bf496a57666f41f91ea1460b7dbecebda6e81e994ec7e311f4469",
        "5119768756e40bd47d6a0a291246acf9f79d642f4e3a6b903621e386e049b972",
        "457ea069a2a1146697841a9957df655fee5cad3621880bfa8220b0dfe3a619f5",
        "b1f5e9380e8689045b0f14ca12e83b216f6c6b9bb82080eaf7337041723435c6",
        "e7f26147e2b63399a6ab9e2dbccae2fb428b905f0cb73d0cf9f7381952578d8a",
        "d05796513021c99a51f304aa51647e35a1b6049b43781669e49352030d865f7a",
        "f69b32fa057631065b61cda9af4f39fcc7222222aeee232157d7d6c038f87bfd",
        "a9d64bfb614a59c002f1c4644040b96f4119c7527c9db8a7971d7f07e6b15d4d",
        "c17e688708f5396f74709d56c7519cf7da916a552d61162634d9bee0c4cd9cd6",
        "6c287f43de07a40348bcfb4b6f2022dea9822c1db5cee122af56cec9cdbb0fac",
        "6c287f43de07a40348bcfb4b6f2022dea9822c1db5cee122af56cec9cdbb0fac",
    ],
    "both_fail": [
        "5b3d2822049bf496a57666f41f91ea1460b7dbecebda6e81e994ec7e311f4469",
        "5119768756e40bd47d6a0a291246acf9f79d642f4e3a6b903621e386e049b972",
        "457ea069a2a1146697841a9957df655fee5cad3621880bfa8220b0dfe3a619f5",
        "b1f5e9380e8689045b0f14ca12e83b216f6c6b9bb82080eaf7337041723435c6",
        "e7f26147e2b63399a6ab9e2dbccae2fb428b905f0cb73d0cf9f7381952578d8a",
        "d05796513021c99a51f304aa51647e35a1b6049b43781669e49352030d865f7a",
        "f69b32fa057631065b61cda9af4f39fcc7222222aeee232157d7d6c038f87bfd",
        "32fced0d96d1bcb37e5ee93347950335fb9b462a6dd46488fd46df23c37fc4aa",
        "ba067eef1f6313bdd747ce56afc23eabbd2cebb8aa96a1e8d3f3955c575a415f",
        "ba067eef1f6313bdd747ce56afc23eabbd2cebb8aa96a1e8d3f3955c575a415f",
    ],
}


def _variant_rules(variant: str):
    """The two-hop script; ``answer_retry`` makes the first document
    answer unparseable, ``both_retry`` the first extraction too, so the
    fallback spends its whole worst case of 2 + 2 calls, and ``both_fail``
    makes both calls fail after their retries."""
    rules = two_hop_ask_rules()
    unparseable = {"answer_retry": 1, "both_retry": 1, "both_fail": 2}.get(variant, 0)
    for template in ("answer_from_docs", "extract_triples"):
        at = next(i for i, r in enumerate(rules) if r.template == template)
        rules[at:at] = [rule(template, "no JSON here") for _ in range(unparseable)]
        if variant == "answer_retry":
            break
    return rules


def _two_hop_trace(tmp_path, backend, **config_overrides):
    world = build_two_hop_world(tmp_path, **config_overrides)
    return solve(TWO_HOP_QID, TWO_HOP_QUESTION, world.config, world.stores,
                 Gateway(REGISTRY, backend), world.embedder)


def sweep_digests(tmp_path, variant: str) -> list[str]:
    full = _two_hop_trace(tmp_path / "full", RecordingStub(_variant_rules(variant)))
    digests = []
    for budget in range(1, full.llm_calls + 2):
        trace = _two_hop_trace(tmp_path / str(budget), RecordingStub(_variant_rules(variant)),
                               llm_budget=budget)
        digests.append(hashlib.sha256(trace_to_json(trace).encode("utf-8")).hexdigest())
    return digests


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("variant", list(SWEEP))
def test_budget_exceeded_falls_where_it_falls_serially(tmp_path, variant):
    assert sweep_digests(tmp_path, variant) == SWEEP[variant]


class MeetingStub(RecordingStub):
    """Holds the document answer until the extraction has been sent, so a
    fallback that sends them one after the other times out."""

    def __init__(self, rules):
        super().__init__(rules)
        self.extraction_sent = threading.Event()

    def send(self, template, prompt, variables, temperature, max_tokens):
        if template == "answer_from_docs":
            assert self.extraction_sent.wait(timeout=5), "the extraction was not sent meanwhile"
        elif template == "extract_triples":
            self.extraction_sent.set()
        return super().send(template, prompt, variables, temperature, max_tokens)


def test_document_answer_and_extraction_overlap_with_the_serial_trace(tmp_path):
    backend = MeetingStub(two_hop_ask_rules())
    trace = _two_hop_trace(tmp_path, backend)
    assert _sha(trace_to_json(trace)) == GOLDEN["two_hop/trace"]
    assert hashlib.sha256(_prompts(Gateway(REGISTRY, backend))).hexdigest() \
        == GOLDEN["two_hop/prompts"]


class BrokenDocumentAnswer(RecordingStub):
    """The document answer raises a non-LLM error once the extraction is
    under way; the extraction then fails too, a little later."""

    def __init__(self, rules):
        super().__init__(rules)
        self.extracting = threading.Event()

    def send(self, template, prompt, variables, temperature, max_tokens):
        if template == "extract_triples":
            self.extracting.set()
            time.sleep(0.2)
            raise ValueError("extraction broke")
        if template == "answer_from_docs":
            assert self.extracting.wait(timeout=5)
            raise RuntimeError("document answer broke")
        return super().send(template, prompt, variables, temperature, max_tokens)


def test_a_failing_document_answer_reaches_the_caller_and_leaks_no_thread(tmp_path):
    world = build_two_hop_world(tmp_path)
    gateway = Gateway(REGISTRY, BrokenDocumentAnswer(two_hop_ask_rules()))
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="document answer broke"):
        solve(TWO_HOP_QID, TWO_HOP_QUESTION, world.config, world.stores, gateway,
              world.embedder)
    assert threading.active_count() == before
