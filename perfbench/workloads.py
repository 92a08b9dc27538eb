"""Seeded workload generator: a corpus of fact sentences and a multi-hop
question set over the graph those sentences state.

Every document describes one entity and states its facts as sentences of
the form ``The <relation> of <Head Name> is <Tail Name>.``; relations are
functional, so each question has exactly one gold answer. Entity names
are two capitalised words, which is what the hashed embedder has to tell
apart. Question documents sit at seeded random corpus positions, because
score ties break by ascending key and low positions would otherwise show
up in every fallback block.

Name words never share a hash bucket (the hash of subhop's 256-d ``hash``
embedder) with a template word (what, is, the, of) or a relation. A name
word in such a bucket would lift every triple naming it for every
question, and the retrieval miss rate would swing with the seed from near
0 to ~30% of sub-questions. Name-to-name collisions stay; the misses they
cause are recorded as undesigned fallbacks.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace

# single-token relation names; 24 of them keep hashed-retrieval misses
# (2-word names, 256 dimensions) near 6% of sub-questions at 50k triples
RELATIONS = (
    "employer", "spouse", "mentor", "sponsor", "rival", "neighbor",
    "publisher", "advisor", "owner", "partner", "teacher", "student",
    "landlord", "tenant", "agent", "client", "editor", "author",
    "captain", "coach", "founder", "heir", "guardian", "ward",
)

TEMPLATE_WORDS = ("what", "is", "the", "of")
HASH_DIMENSION = 256

_ONSETS = "b c d f g h k l m n p r s t v z br dr gr kr pl st tr".split()
_VOWELS = "a e i o u ai ea ou".split()
_CODAS = ["", "", "n", "r", "s", "l", "th"]

Fact = tuple[str, str, str]


@dataclass(frozen=True)
class Workload:
    """Shape of one workload. ``withheld_every`` > 0 withholds the last-hop
    fact of every n-th question from index-time extraction."""

    name: str
    entities: int
    facts_per_entity: int
    hops: int
    questions: int
    distinct_facts: bool
    withheld_every: int
    workers: int
    latency_ms: float

    def smoke(self) -> "Workload":
        """The same shape at a size the benchmark's own tests run in seconds."""
        return replace(self, entities=min(self.entities, 300),
                       questions=min(self.questions, 60), latency_ms=min(self.latency_ms, 1.0))


WORKLOADS = {
    w.name: w
    for w in (
        # ~1k triples, overlapping 3-hop chains: per-call pipeline work dominates
        Workload("chain-small", entities=250, facts_per_entity=4, hops=3,
                 questions=8000, distinct_facts=False, withheld_every=0,
                 workers=1, latency_ms=0.0),
        # ~50k triples from 25k documents, 2-hop, read only: the scan dominates
        Workload("reads-50k", entities=25000, facts_per_entity=2, hops=2,
                 questions=3000, distinct_facts=True, withheld_every=0,
                 workers=1, latency_ms=0.0),
        # same graph shape; every 3rd question falls back and writes back, so
        # about two thirds of the questions meet a matrix still to be re-stacked
        # and p50 measures that write path (see README.md)
        Workload("writes-50k", entities=25000, facts_per_entity=2, hops=2,
                 questions=3000, distinct_facts=True, withheld_every=3,
                 workers=2, latency_ms=5.0),
    )
}


@dataclass(frozen=True)
class Question:
    question: str
    answer: str
    chain: tuple[Fact, ...]
    withheld: bool


@dataclass
class Inputs:
    documents: list[dict]
    questions: list[Question]
    withheld: frozenset[Fact]
    facts: int


def fact_sentence(head: str, relation: str, tail: str) -> str:
    return f"The {relation} of {head} is {tail}."


def chain_question(entity: str, relations: list[str]) -> str:
    """``What is the r2 of the r1 of E?`` for relations [r1, r2]."""
    inner = " of ".join(f"the {r}" for r in reversed(relations))
    return f"What is {inner} of {entity}?"


def _word(rng: random.Random) -> str:
    syllables = rng.randint(2, 3)
    word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables))
    return (word + rng.choice(_CODAS)).capitalize()


def _bucket(token: str) -> int:
    digest = hashlib.sha256(token.casefold().encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little") % HASH_DIMENSION


_RESERVED = frozenset(_bucket(token) for token in TEMPLATE_WORDS + RELATIONS)


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        word = _word(rng)
        if _bucket(word) not in _RESERVED:
            words.add(word)
    return sorted(words)


def _names(rng: random.Random, count: int) -> list[str]:
    vocab = max(40, int(count ** 0.5 * 2))  # ~4x more name pairs than names
    firsts = _vocabulary(rng, vocab)
    lasts = _vocabulary(rng, vocab)
    names: set[str] = set()
    while len(names) < count:
        names.add(f"{rng.choice(firsts)} {rng.choice(lasts)}")
    return sorted(names)


def generate(workload: Workload, seed: int) -> Inputs:
    """Build the corpus and the question pool for one seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    names = _names(rng, workload.entities)
    rng.shuffle(names)
    out: dict[str, dict[str, str]] = {}
    for name in names:
        rels = rng.sample(RELATIONS, workload.facts_per_entity)
        out[name] = {}
        for rel in rels:
            tail = rng.choice(names)
            while tail == name:
                tail = rng.choice(names)
            out[name][rel] = tail

    questions: list[Question] = []
    seen_questions: set[str] = set()
    used_facts: set[Fact] = set()
    withheld: set[Fact] = set()
    attempts = 0
    while len(questions) < workload.questions:
        attempts += 1
        if attempts > workload.questions * 50:
            raise RuntimeError(f"{workload.name}: cannot draw {workload.questions} questions")
        entity = rng.choice(names)
        chain: list[Fact] = []
        current = entity
        for _ in range(workload.hops):
            rel = rng.choice(sorted(out[current]))
            chain.append((current, rel, out[current][rel]))
            current = out[current][rel]
        if len({fact[0] for fact in chain} | {current}) != workload.hops + 1:
            continue  # a chain that revisits an entity
        text = chain_question(entity, [fact[1] for fact in chain])
        if text in seen_questions:
            continue
        if workload.distinct_facts and used_facts.intersection(chain):
            continue
        seen_questions.add(text)
        used_facts.update(chain)
        hide = workload.withheld_every > 0 and (len(questions) + 1) % workload.withheld_every == 0
        if hide:
            withheld.add(chain[-1])
        questions.append(Question(text, current, tuple(chain), hide))

    documents = []
    for position, name in enumerate(names):
        text = " ".join(fact_sentence(name, rel, tail) for rel, tail in out[name].items())
        documents.append({"id": f"d{position:06d}", "title": name, "text": text})
    facts = sum(len(rels) for rels in out.values())
    return Inputs(documents, questions, frozenset(withheld), facts)
