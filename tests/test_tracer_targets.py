"""The benchmark's tracer wraps subhop entry points by name, and skips a
name that no longer exists instead of failing. This test pins the names it
skips, so a refactor that drops a traced entry point shows here."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracer import _TARGETS  # noqa: E402

# entry points the tracer still names that subhop no longer has; each
# stays traced as missing until the benchmark drops it
STALE = {"vector.save", "vector.load", "vector.upsert"}


def test_the_tracer_misses_exactly_the_stale_entry_points():
    missing = {name for owner, attr, name, _ in _TARGETS if attr not in vars(owner)}
    assert missing == STALE
