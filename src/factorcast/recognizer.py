"""Interval-envelope recognition of critical years.

The rule is built in two steps. Training: for each selected factor, take the
closed [min, max] envelope of its values over the critical training years.
Recognition: a year is flagged critical when its values fall inside at least
a quorum of the envelopes. A flagged year that is truly critical counts
toward ``x``, a flagged non-critical ("false critical") year toward ``y``,
and recognition precision is ``p = x / (x + y)``.

Every evaluation path reads one kernel, :func:`membership_masks`: per year an
``int`` whose bit j is set when factor j's value lies inside its envelope, so
a factor subset scores ``(mask & subset_bits).bit_count()`` against a quorum.
Every mode walks the matrix one factor column at a time.

All functions are pure; many (profile, rule) configurations can be evaluated
concurrently over the same matrix without coordination.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate, compress
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    DuplicateFactor,
    InvalidQuorum,
    LabelMismatch,
    MissingFactorValue,
    NoCriticalYears,
)
from .matrix import CriticalLabels, FactorSelection, Frozen, TemporalMatrix


class FactorInterval(Frozen):
    """Closed value envelope of one factor over critical training years.

    Membership is ``lo - widen_eps <= v <= hi + widen_eps``; the optional
    symmetric widening guards degenerate point intervals against
    floating-point noise and defaults to zero. All three numbers must be
    finite: a NaN bound would make every membership test read as a miss.
    """

    __slots__ = ("factor", "lo", "hi", "widen_eps")

    def __init__(self, factor: str, lo: float, hi: float, widen_eps: float = 0.0):
        lo, hi, widen_eps = float(lo), float(hi), float(widen_eps)
        if not all(map(math.isfinite, (lo, hi, widen_eps))):
            raise ValueError(f"interval for {factor!r} has a non-finite bound or widening")
        if lo > hi:
            raise ValueError(f"interval for {factor!r} has lo > hi")
        if widen_eps < 0:
            raise ValueError("widen_eps must be non-negative")
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "widen_eps", widen_eps)


class IntervalProfile(Frozen):
    """One interval per selected factor, trained on critical years."""

    __slots__ = ("intervals", "n_critical_train")

    def __init__(self, intervals: Iterable[FactorInterval], n_critical_train: int):
        intervals = tuple(intervals)
        if not intervals:
            raise ValueError("profile must contain at least one interval")
        if n_critical_train < 1:
            raise ValueError("profile must be trained on at least one critical year")
        seen = set()
        for interval in intervals:
            if interval.factor in seen:
                raise DuplicateFactor(interval.factor)
            seen.add(interval.factor)
        object.__setattr__(self, "intervals", intervals)
        object.__setattr__(self, "n_critical_train", n_critical_train)

    @property
    def factor_names(self) -> tuple[str, ...]:
        return tuple(interval.factor for interval in self.intervals)

    @property
    def n_factors(self) -> int:
        return len(self.intervals)


class QuorumRule(Frozen):
    """Flag a year when it hits at least ceil(q * F) of the F intervals.

    ``q = 1`` demands membership in every interval (the strict all-factors
    rule); smaller fractions such as 0.5..0.75 tolerate misses.
    """

    __slots__ = ("q",)

    def __init__(self, q: float):
        q = float(q)
        if not (0.0 < q <= 1.0):
            raise InvalidQuorum(q)
        object.__setattr__(self, "q", q)

    def required(self, n_factors: int) -> int:
        if n_factors < 1:
            raise ValueError("rule needs at least one factor")
        return math.ceil(self.q * n_factors)


class RecognitionResult(NamedTuple):
    """Flagged years plus the x / y / p recognition statistics.

    ``x`` counts flagged years that are truly critical, ``y`` the flagged
    "false critical" years; ``p = x / (x + y)`` is None (undefined, not an
    error) when nothing was flagged.
    """

    flagged_years: tuple[int, ...]
    x: int
    y: int
    p: float | None
    per_year_membership: dict[int, int]


def check_labels(m: TemporalMatrix, labels: CriticalLabels) -> None:
    """Raise :class:`LabelMismatch` unless ``labels`` were built for ``m``'s years."""
    if labels.years != m.years:
        raise LabelMismatch()


def build_profile(
    m: TemporalMatrix,
    labels: CriticalLabels,
    selection: FactorSelection,
    widen_eps: float = 0.0,
) -> IntervalProfile:
    """Envelope each selected factor over the critical years of the labeling."""
    check_labels(m, labels)
    selection.validate_against(m)
    critical_idx = [i for i, c in enumerate(labels.is_critical) if c]
    if not critical_idx:
        raise NoCriticalYears()
    intervals = []
    for name in selection.names:
        col = m.factor_values(name)
        values = [col[i] for i in critical_idx]
        intervals.append(FactorInterval(name, min(values), max(values), widen_eps))
    return IntervalProfile(tuple(intervals), len(critical_idx))


def _column_masks(
    columns: Sequence[Sequence[float]], n_rows: int, lo: Sequence[float], hi: Sequence[float]
) -> list[int]:
    """Masks of ``n_rows`` rows against fixed envelopes, one pass per factor column."""
    masks = [0] * n_rows
    for j, (col, a, b) in enumerate(zip(columns, lo, hi)):
        bit = 1 << j
        # A new list per column: most cells hit, and `masks[k] |= bit` costs more per hit.
        masks = [m | bit if a <= v <= b else m for m, v in zip(masks, col)]
    return masks


def membership_masks(
    columns: Sequence[Sequence[float]],
    critical: Sequence[bool] = (),
    mode: str = "in_sample",
    *,
    profile: IntervalProfile | None = None,
    widen_eps: float = 0.0,
    start: int = 0,
    min_critical: int = 1,
) -> list[int | None]:
    """The membership kernel: one bitmask per row, or None where no envelope exists.

    Bit j of a row's mask is set when the row's value in ``columns[j]`` lies
    inside factor j's envelope widened by ``widen_eps``; None (nothing to
    test against) is a ``no_forecast``. Envelopes span ``critical`` rows:

    - rolling: those before the row, as a running min/max. Rows before
      ``start`` get no entry; None while fewer than ``min_critical`` precede.
    - leave_one_out: all but the row itself; None for a lone critical row.
    - in_sample: all of them; None for every row when there is none.

    A ``profile`` fixes the envelopes to its intervals instead, whatever the
    mode. Every mode is one pass per factor column and costs O(n·F) for n
    rows and F factors (leave-one-out and in-sample add a sort of the
    critical values).
    """
    n_rows = len(columns[0]) if columns else 0
    if profile is not None:
        lo = [iv.lo - iv.widen_eps for iv in profile.intervals]
        hi = [iv.hi + iv.widen_eps for iv in profile.intervals]
        return _column_masks(columns, n_rows, lo, hi)
    eps = float(widen_eps)
    if mode == "rolling":
        # The first scored row has min_critical critical rows before it.
        before = list(accumulate(critical, initial=0))
        first = min(max(start, bisect_left(before, min_critical)), n_rows)
        tail = critical[first:n_rows]
        masks = [0] * (n_rows - first)
        for j, col in enumerate(columns):
            bit = 1 << j
            seed = list(compress(col[:first], critical))
            # A conditional seeds an empty envelope: keyword min/max calls cost more per column.
            lo = min(seed) - eps if seed else math.inf
            hi = max(seed) + eps if seed else -math.inf
            # Score a row against the rows before it, then fold it in if critical.
            # Flat (k, v, c) tuples: a cell unpacks no nested tuple.
            for k, v, c in zip(range(n_rows - first), col[first:], tail):
                if lo <= v <= hi:
                    masks[k] |= bit
                if c:
                    if v - eps < lo:
                        lo = v - eps
                    if v + eps > hi:
                        hi = v + eps
        return [None] * (first - start) + masks  # [] when start > n_rows
    if mode not in ("leave_one_out", "in_sample"):
        raise ValueError(f"unknown evaluation mode {mode!r}")
    train = [list(compress(col, critical)) for col in columns]
    if not train or not train[0]:
        return [None] * n_rows
    ranked = [sorted(values) for values in train]
    masks = _column_masks(
        columns, n_rows, [s[0] - eps for s in ranked], [s[-1] + eps for s in ranked]
    )
    if mode == "leave_one_out":
        # Every critical row is inside the full envelope. Held out, a row that is
        # a factor's unique minimum (maximum) moves that edge to the runner-up.
        rows = list(compress(range(n_rows), critical))
        if len(rows) == 1:
            masks[rows[0]] = None
            return masks
        for j, (values, s) in enumerate(zip(train, ranked)):
            if s[0] < s[1] - eps:
                masks[rows[values.index(s[0])]] &= ~(1 << j)
            if s[-1] > s[-2] + eps:
                masks[rows[values.index(s[-1])]] &= ~(1 << j)
    return masks


def membership_count(year_factors: Mapping[str, float], profile: IntervalProfile) -> int:
    """Number of profile intervals the year's factor values fall inside."""
    missing = [name for name in profile.factor_names if name not in year_factors]
    if missing:
        raise MissingFactorValue(missing[0])
    (mask,) = membership_masks([(year_factors[n],) for n in profile.factor_names], profile=profile)
    return mask.bit_count()


def evaluate_insample(
    m: TemporalMatrix,
    labels: CriticalLabels,
    profile: IntervalProfile,
    rule: QuorumRule,
) -> RecognitionResult:
    """Classify every year of the matrix against a fixed profile and rule.

    The profile is usually built from the same (matrix, labels) pair but may
    come from a training subset; either way each year is scored by its
    interval memberships and the quorum.
    """
    check_labels(m, labels)
    required = rule.required(profile.n_factors)
    columns = [m.factor_values(name) for name in profile.factor_names]
    counts = [mask.bit_count() for mask in membership_masks(columns, profile=profile)]
    flagged = [i for i, count in enumerate(counts) if count >= required]
    x = sum(1 for i in flagged if labels.is_critical[i])
    y = len(flagged) - x
    return RecognitionResult(
        tuple(m.years[i] for i in flagged), x, y, precision(x, y), dict(zip(m.years, counts))
    )


def precision(x: int, y: int) -> float | None:
    """``x / (x + y)``, or None when nothing was flagged (undefined, not 0)."""
    if x < 0 or y < 0:
        raise ValueError("counts must be non-negative")
    if x + y == 0:
        return None
    return x / (x + y)
