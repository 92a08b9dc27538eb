"""The benchmark's tracer wraps subhop entry points by name, and skips a
name that no longer exists instead of failing. This test pins the names it
skips, so a refactor that drops a traced entry point shows here."""

import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracer import Tracer  # noqa: E402

# entry points the tracer still names that subhop no longer has; each
# stays traced as missing until the benchmark drops it. "stores.lock" is
# the hook on the reader-writer lock that retrievals no longer take
STALE = {"vector.save", "vector.load", "vector.upsert", "stores.lock"}


def test_the_tracer_misses_exactly_the_stale_entry_points():
    tracer = Tracer()
    tracer.install(SimpleNamespace(send=lambda *args: None))
    try:
        assert set(tracer.missing) == STALE
    finally:
        tracer.uninstall()
