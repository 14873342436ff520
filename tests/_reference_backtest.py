"""The threshold scan over every distinct candidate that one sort replaced, kept for tests.

``test_backtest.py`` compares :func:`factorcast.backtest.select_threshold`
with it, ties and signed zeros included.
"""

from __future__ import annotations

from factorcast.errors import InsufficientYears
from factorcast.matrix import CriticalThreshold, TemporalMatrix


def select_threshold(m: TemporalMatrix, min_critical: int = 2) -> CriticalThreshold:
    """Largest observed incidence value that still yields >= min_critical criticals.

    Candidate thresholds are the observed incidence values themselves, since
    labelings only change there. The most extreme qualifying line is chosen;
    an expert-given line can always be used instead.
    """
    if min_critical < 2:
        raise ValueError("min_critical must be at least 2")
    if m.n_years < min_critical:
        raise InsufficientYears(m.n_years, min_critical)
    for candidate in sorted(set(m.incidence), reverse=True):
        n_critical = sum(1 for v in m.incidence if v >= candidate)
        if n_critical >= min_critical:
            return CriticalThreshold(candidate, "selected")
    raise AssertionError("minimum incidence always qualifies")  # pragma: no cover
