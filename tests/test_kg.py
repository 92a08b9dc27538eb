import json
import random

import pytest

from subhop.errors import ParseError, SubhopError
from subhop.kg import KnowledgeGraph, Triple, normalize_field

from helpers import file_sha256, oracle_dedup_key


def test_first_insert():
    g = KnowledgeGraph()
    assert g.insert("Barack Obama", "born in", "Honolulu", "doc:d1", 0) == (0, True)
    assert len(g) == 1


def test_identical_insert_is_idempotent():
    g = KnowledgeGraph()
    g.insert("Barack Obama", "born in", "Honolulu", "doc:d1", 0)
    assert g.insert("Barack Obama", "born in", "Honolulu", "doc:d1", 0) == (0, False)
    assert len(g) == 1


def test_case_and_whitespace_variants_dedup():
    # the dedup key casefolds and collapses whitespace, computed by hand:
    # ("barack obama", "born in", "honolulu") both times
    g = KnowledgeGraph()
    g.insert("Barack Obama", "born in", "Honolulu", "doc:d1", 0)
    assert g.insert("barack  OBAMA", "Born In", "honolulu", "doc:d2", 0) == (0, False)
    assert len(g) == 1


def test_empty_field_rejected():
    g = KnowledgeGraph()
    with pytest.raises(SubhopError, match="empty field in triple \\('A', '  ', 'B'\\)"):
        g.insert("A", "  ", "B", "doc:d1", 0)
    assert len(g) == 0


def test_lookup_and_insertion_order():
    g = KnowledgeGraph()
    g.insert("A", "r", "B", "doc:d1", 0)
    g.insert("C", "r", "D", "doc:d1", 0)
    g.insert("E", "r", "F", "doc:d1", 0)
    assert g.lookup(2).head == "E"
    assert g.lookup(0).tail == "B"


def test_lookup_unknown_id():
    g = KnowledgeGraph()
    with pytest.raises(SubhopError, match="unknown triple id 0"):
        g.lookup(0)
    g.insert("A", "r", "B", "doc:d1", 0)
    g.insert("C", "r", "D", "doc:d1", 0)
    for triple_id in (-1, -2, 2):  # a negative id is no index from the end
        with pytest.raises(SubhopError, match=f"unknown triple id {triple_id}$"):
            g.lookup(triple_id)


def test_stats():
    from subhop.kg import GraphStats

    g = KnowledgeGraph()
    assert g.stats() == GraphStats(0, 0, 0)
    g.insert("A", "r", "B", "doc:d1", 0)
    assert g.stats() == GraphStats(1, 2, 0)
    g.insert("B", "r2", "C", "dynamic:q1", 1)
    assert g.stats() == GraphStats(2, 3, 1)
    g.insert(" b\t", "r3", "a", "doc:d2", 0)  # "B" and "A" in other case and spacing
    assert g.stats() == GraphStats(3, 3, 1)


def test_fields_are_stored_normalized():
    g = KnowledgeGraph()
    g.insert("  A   b ", "r", "C", "doc:d1", 0)
    assert g.lookup(0).head == "A b"


def test_stored_triples_are_immutable():
    g = KnowledgeGraph()
    g.insert("A", "r", "B", "doc:d1", 0)
    with pytest.raises(AttributeError):
        g.lookup(0).head = "C"
    assert g.lookup(0) == Triple(0, "A", "r", "B", "doc:d1", 0)


def test_save_load_round_trip(tmp_path):
    g = KnowledgeGraph()
    g.insert("Inception", "directed by", "Christopher Nolan", "doc:d1", 0)
    g.insert("Christopher Nolan", "spouse", "Emma Thomas", "dynamic:q1", 2)
    path = tmp_path / "graph.jsonl"
    digest = g.save(path)
    assert digest == file_sha256(path)
    assert len(path.read_text().splitlines()) == 2
    loaded = KnowledgeGraph.load(path, digest)
    assert loaded == g
    assert loaded.lookup(1).provenance == "dynamic:q1"


def test_save_empty_graph(tmp_path):
    path = tmp_path / "graph.jsonl"
    digest = KnowledgeGraph().save(path)
    assert path.read_text() == ""
    assert len(KnowledgeGraph.load(path, digest)) == 0


def test_save_load_save_is_byte_identical(tmp_path):
    g = KnowledgeGraph()
    g.insert("A b", "likes", "Céline", "doc:d1", 0)
    g.insert("X", "r", "Y", "dynamic:q9", 3)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    digest = g.save(p1)
    assert KnowledgeGraph.load(p1, digest).save(p2) == digest
    assert p1.read_bytes() == p2.read_bytes()


def test_saved_lines_are_compact_json_dumps_output(tmp_path):
    # the shared encoder writes what json.dumps with the same options does
    g = KnowledgeGraph()
    g.insert('say "hi"', "back\\slash", "Céline \u2028 ☃ \x01", "doc:d1", 0)
    g.insert("tab\there", "r", "😀", "dynamic:q9", 3)
    path = tmp_path / "graph.jsonl"
    g.save(path)
    want = "".join(
        json.dumps({"id": t.id, "head": t.head, "relation": t.relation, "tail": t.tail,
                    "provenance": t.provenance, "step": t.created_at_step},
                   ensure_ascii=False, separators=(",", ":")) + "\n"
        for t in g
    )
    assert path.read_text(encoding="utf-8") == want


def saved_then_edited(tmp_path, edit) -> tuple:
    """A two-triple graph saved to a file, which is then overwritten with
    ``edit(saved text)``: the path and the digest ``save`` returned."""
    g = KnowledgeGraph()
    g.insert("A", "r", "B", "doc:d1", 0)
    g.insert("C", "r", "D", "doc:d1", 0)
    path = tmp_path / "graph.jsonl"
    digest = g.save(path)
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    return path, digest


def assert_rejected_by_digest(path, digest):
    with pytest.raises(ParseError, match="changed since the snapshot was saved"):
        KnowledgeGraph.load(path, digest)


def test_load_malformed_line_reports_line_number(tmp_path):
    path, digest = saved_then_edited(tmp_path, lambda text: text + "not json\n")
    assert_rejected_by_digest(path, digest)
    # a forged digest over the malformed file: a ParseError naming the
    # line, not a traceback
    with pytest.raises(ParseError) as exc:
        KnowledgeGraph.load(path, file_sha256(path))
    assert exc.value.line == 3


@pytest.mark.parametrize(
    "ids",
    [[0, 2], [1, 0], [0, 1, 1], [0, True]],
    ids=["gap", "out-of-order", "repeat", "boolean"],
)
def test_load_accepts_only_ids_in_file_order(tmp_path, ids):
    records = [
        {"id": tid, "head": f"H{pos}", "relation": "r", "tail": "T", "provenance": "doc:d1",
         "step": 0}
        for pos, tid in enumerate(ids)
    ]
    text = "".join(json.dumps(r) + "\n" for r in records)
    assert_rejected_by_digest(*saved_then_edited(tmp_path, lambda _: text))


def _records_text(fields):
    return "".join(
        json.dumps({"id": tid, "head": h, "relation": r, "tail": t, "provenance": "doc:d1",
                    "step": 0}) + "\n"
        for tid, (h, r, t) in enumerate(fields)
    )


def test_load_duplicate_dedup_key_rejected(tmp_path):
    # line 3 duplicates line 1 only once normalized and casefolded
    text = _records_text([("A b", "r", "B"), ("X", "r", "Y"), (" a  B", "R", "b\t")])
    assert_rejected_by_digest(*saved_then_edited(tmp_path, lambda _: text))


def test_load_stores_fields_as_insert_does(tmp_path):
    fields = [("  Inception ", "directed\tby", "Christopher   Nolan"), ("A\n b", " r", "c ")]
    inserted = KnowledgeGraph()
    for h, r, t in fields:
        inserted.insert(h, r, t, "doc:d1", 0)
    path = tmp_path / "graph.jsonl"
    digest = inserted.save(path)
    assert KnowledgeGraph.load(path, digest) == inserted
    assert [(t.head, t.relation, t.tail) for t in inserted] == [
        ("Inception", "directed by", "Christopher Nolan"), ("A b", "r", "c")]
    # the same records, not normalized, are not what save wrote
    path.write_text(_records_text(fields), encoding="utf-8")
    assert_rejected_by_digest(path, digest)


@pytest.mark.parametrize("position", [0, 1, 2], ids=["head", "relation", "tail"])
def test_load_field_empty_after_normalization_names_its_line(tmp_path, position):
    # the digest rejects the edited file before any line is read
    fields = ["X", "r", "Y"]
    fields[position] = " \t "
    text = _records_text([("A", "r", "B"), tuple(fields)])
    assert_rejected_by_digest(*saved_then_edited(tmp_path, lambda _: text))


def test_load_missing_field(tmp_path):
    path, digest = saved_then_edited(
        tmp_path, lambda _: '{"id":0,"head":"A","relation":"r","provenance":"doc:d1","step":0}\n')
    assert_rejected_by_digest(path, digest)
    # under a forged digest the missing field is a ParseError naming its line
    with pytest.raises(ParseError, match="missing field 'tail'") as exc:
        KnowledgeGraph.load(path, file_sha256(path))
    assert exc.value.line == 1


def _random_variant(rng, text):
    out = []
    for ch in text:
        if ch == " " and rng.random() < 0.5:
            out.append("  " if rng.random() < 0.5 else " \t")
        elif rng.random() < 0.3:
            out.append(ch.swapcase())
        else:
            out.append(ch)
    return "".join(out)


def test_dedup_matches_independent_oracle_on_random_sequences():
    rng = random.Random(20240811)
    base = [
        (f"Entity {rng.randrange(12)}", f"rel {rng.randrange(5)}", f"Thing {rng.randrange(12)}")
        for _ in range(250)
    ]
    inserts = []
    for h, r, t in base:
        inserts.append((h, r, t))
        if rng.random() < 0.5:
            inserts.append((_random_variant(rng, h), _random_variant(rng, r),
                            _random_variant(rng, t)))
    rng.shuffle(inserts)

    g = KnowledgeGraph()
    for h, r, t in inserts:
        g.insert(h, r, t, "doc:x", 0)
    expected = {oracle_dedup_key(h, r, t) for h, r, t in inserts}
    assert len(g) == len(expected)


def test_append_only_ids_never_change():
    g = KnowledgeGraph()
    snapshots: dict[int, Triple] = {}
    rng = random.Random(7)
    for i in range(100):
        tid, _ = g.insert(f"H{rng.randrange(30)}", "r", f"T{rng.randrange(30)}", "doc:x", 0)
        snapshots.setdefault(tid, g.lookup(tid))
        for known_id, triple in snapshots.items():
            assert g.lookup(known_id) == triple


def test_dedup_soundness_exhaustive_scan():
    g = KnowledgeGraph()
    rng = random.Random(99)
    for _ in range(300):
        g.insert(f"H{rng.randrange(20)}", f"r{rng.randrange(4)}", f"T{rng.randrange(20)}",
                 "doc:x", 0)
    keys = [oracle_dedup_key(t.head, t.relation, t.tail) for t in g]
    assert len(keys) == len(set(keys))


def test_normalize_field():
    assert normalize_field("  a\t b\n c ") == "a b c"
