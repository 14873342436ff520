"""The package still has every name the benchmark's tracer wraps.

``bench/tracer.py`` looks up each entry of its ``FUNCTIONS`` and ``METHODS``
tables when a ``Tracer`` is built, so deleting or renaming one of those names
(``recognizer.membership_count``, ``TemporalMatrix.window`` and the rest)
breaks the benchmark. Those names stay until ROADMAP item 1 moves the tracer
off them; this test fails on such a deletion within the tier-1 run.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_finds_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    # Building the tracer only records what it would patch; install() is never called.
    t = tracer.Tracer()
    assert t.patches
