"""Interval-envelope recognition of critical years.

The rule is built in two steps. Training: for each selected factor, take the
closed [min, max] envelope of its values over the critical training years.
Recognition: a year is flagged critical when its values fall inside at least
a quorum of the envelopes. A flagged year that is truly critical counts
toward ``x``, a flagged non-critical ("false critical") year toward ``y``,
and recognition precision is ``p = x / (x + y)``.

Every evaluation path reads one kernel, :func:`membership_lanes`: per factor
an ``int`` made of one byte lane per year (wider past 127 factors), 1 where
the year lies inside the factor's envelope. Summing a subset's ints counts
every year's hits at once, and one add-and-mask step (SWAR, SIMD within a
register) compares every count with the quorum. Every mode walks the matrix
one factor column at a time.

All functions are pure; many (profile, rule) configurations can be evaluated
concurrently over the same matrix without coordination.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import compress
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import InvalidQuorum, LabelMismatch, MissingFactorValue, NoCriticalYears
from .matrix import CriticalLabels, FactorSelection, Frozen, TemporalMatrix, check_lag


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
        self._set(factor, lo, hi, widen_eps)


class IntervalProfile(Frozen):
    """One interval per selected factor, trained on critical years."""

    __slots__ = ("intervals", "n_critical_train")

    def __init__(self, intervals: Iterable[FactorInterval], n_critical_train: int):
        intervals = tuple(intervals)
        if not intervals:
            raise ValueError("profile must contain at least one interval")
        if n_critical_train < 1:
            raise ValueError("profile must be trained on at least one critical year")
        FactorSelection(interval.factor for interval in intervals)  # DuplicateFactor on a repeat
        self._set(intervals, n_critical_train)

    @property
    def factor_names(self) -> tuple[str, ...]:
        return tuple(interval.factor for interval in self.intervals)

    @property
    def n_factors(self) -> int:
        return len(self.intervals)


def quorum_fraction(q: float) -> float:
    """``q`` as a float; raises :class:`InvalidQuorum` unless it lies in (0, 1]."""
    if not (0.0 < (q := float(q)) <= 1.0):
        raise InvalidQuorum(q)
    return q


class QuorumRule(Frozen):
    """Flag a year when it hits at least ceil(q * F) of the F intervals.

    ``q = 1`` demands membership in every interval (the strict all-factors
    rule); smaller fractions such as 0.5..0.75 tolerate misses.
    """

    __slots__ = ("q",)

    def __init__(self, q: float):
        self._set(quorum_fraction(q))

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
    lag: int = 0,
) -> IntervalProfile:
    """Envelope each selected factor over the critical years, at the factor rows ``lag`` earlier."""
    check_labels(m, labels)
    selection.validate_against(m)
    check_lag(lag, m.n_years)
    critical_idx = [i for i, c in enumerate(labels.is_critical[lag:]) if c]
    if not critical_idx:
        raise NoCriticalYears()
    intervals = []
    for name in selection.names:
        col = m.factor_values(name)
        values = [col[i] for i in critical_idx]
        intervals.append(FactorInterval(name, min(values), max(values), widen_eps))
    return IntervalProfile(tuple(intervals), len(critical_idx))


def _to_lane(cells: bytes | bytearray, width: int) -> int:
    """The int whose row k lane holds ``cells[k]``."""
    if width > 1:
        wide = bytearray(len(cells) * width)
        wide[::width] = cells
        cells = wide
    return int.from_bytes(cells, "little")


class Lanes(NamedTuple):
    """The kernel's ints, made of one ``width``-byte lane per row (row k's at bit 8·width·k).

    ``factors[j]`` holds 1 in the lane of each row inside factor j's envelope,
    ``scored`` in the lane of each row that has an envelope (others are
    ``no_forecast``), ``ones`` in every lane. Summed factor lanes count each
    row's hits in its own lane; with F factors, ``width`` is the smallest w
    with F < 2**(8w - 1), so no count carries into the next lane.
    """

    factors: tuple[int, ...]
    scored: int
    ones: int
    width: int
    rows: int

    def counts(self, total: int) -> list[int | None]:
        """Each row's value in a sum of lanes; None for a row without an envelope."""
        w, size = self.width, self.rows * self.width
        raw = total.to_bytes(size, "little")
        if w > 1:
            raw = [int.from_bytes(raw[i : i + w], "little") for i in range(0, size, w)]
        scored = self.scored.to_bytes(size, "little")[::w]
        return [count if s else None for count, s in zip(raw, scored)]

    def scorer(self, truth: Sequence[bool]) -> Callable[[int, int], tuple[int, int, int]]:
        """``score(total, required)``: ``(x, y, n_no_forecast)`` of a lane sum, in one SWAR step.

        ``truth`` flags the critical rows. Adding ``2**(8w - 1) - required``
        (``required`` at least 1) to a lane sets its top bit exactly when its
        count reaches ``required``; each ``required``'s bias is built once.
        """
        top = 8 * self.width - 1
        scored, truth = self.scored << top, _to_lane(bytes(truth), self.width) << top
        unscored, ones, biases = self.rows - self.scored.bit_count(), self.ones, {}

        def score(total: int, required: int) -> tuple[int, int, int]:
            bias = biases.get(required)
            if bias is None:
                bias = biases[required] = ((1 << top) - required) * ones
            hits = (total + bias) & scored
            x = (hits & truth).bit_count()
            return x, hits.bit_count() - x, unscored

        return score


_lanes = partial(tuple.__new__, Lanes)  # from one field tuple; Lanes(...) costs more


def membership_lanes(
    columns: Sequence[Sequence[float]],
    critical: Sequence[bool] = (),
    mode: str = "in_sample",
    *,
    profile: IntervalProfile | None = None,
    widen_eps: float = 0.0,
    start: int = 0,
    min_critical: int = 1,
) -> Lanes:
    """The membership kernel: one lane int per factor column, and the scored rows.

    Row k's lane in ``factors[j]`` is 1 when its value in ``columns[j]`` lies
    inside factor j's envelope widened by ``widen_eps``; a row missing from
    ``scored`` has nothing to test against and is a ``no_forecast``.
    Envelopes span ``critical`` rows:

    - rolling: those before the row, as a running raw min/max whose widened
      edges are rebuilt only when a critical row sets a new extreme. Rows before
      ``start`` get no lane; unscored while fewer than ``min_critical`` precede.
    - leave_one_out: all but the row itself; unscored for a lone critical row.
    - in_sample: all of them; every row unscored when there is none.

    A ``profile`` fixes the envelopes to its intervals instead, whatever the
    mode. Every mode is one pass per factor column and costs O(n·F) for n
    rows and F factors (leave-one-out and in-sample add a sort of the
    critical values).
    """
    n_rows = len(columns[0]) if columns else 0
    w = (len(columns).bit_length() + 8) // 8  # the smallest w with F < 2**(8w - 1)
    rolling = profile is None and mode == "rolling"
    rows = max(n_rows - start, 0) if rolling else n_rows
    ones = _to_lane(b"\x01" * rows, w)
    eps = float(widen_eps)
    if rolling:
        # The first scored row is start or, if later, the one after the min_critical-th critical
        # row (bounded searches; none if too few). The critical rows before it seed every envelope.
        head, first = list(compress(range(start), critical[:start])), start
        try:
            while len(head) < min_critical:
                first = critical.index(True, first, n_rows) + 1
                head.append(first - 1)
        except ValueError:
            first = max(start, n_rows)
        skip = 8 * w * (first - start)
        tail, ks = critical[first:n_rows], range(n_rows - first)
        lanes = []
        for col in columns:
            # Strict comparisons keep the first of equal extremes, as min and max do.
            a, b = math.inf, -math.inf
            for i in head:
                v = col[i]
                if v < a:
                    a = v
                if v > b:
                    b = v
            lo, hi = a - eps, b + eps
            buf = bytearray(len(tail))
            # Score a row against the rows before it, then fold it in if critical.
            # Flat (k, v, c) tuples: a cell unpacks no nested tuple. The raw extremes
            # a, b move and the edges are rebuilt only on a new extreme, which keeps
            # them exact: fl(v - eps) and fl(v + eps) are monotone in v.
            for k, v, c in zip(ks, col[first:], tail):
                if lo <= v <= hi:
                    buf[k] = 1
                if c:
                    if v < a:
                        a, lo = v, v - eps
                    if v > b:
                        b, hi = v, v + eps
            lanes.append((int.from_bytes(buf, "little") if w == 1 else _to_lane(buf, w)) << skip)
        return _lanes((tuple(lanes), ones >> skip << skip, ones, w, rows))
    if profile is not None:
        lo = [iv.lo - iv.widen_eps for iv in profile.intervals]
        hi = [iv.hi + iv.widen_eps for iv in profile.intervals]
    elif mode in ("leave_one_out", "in_sample"):
        train = [list(compress(col, critical)) for col in columns]
        if not train or not train[0]:
            return _lanes(((0,) * len(columns), 0, ones, w, rows))
        ranked = [sorted(values) for values in train]
        lo, hi = [s[0] - eps for s in ranked], [s[-1] + eps for s in ranked]
    else:
        raise ValueError(f"unknown evaluation mode {mode!r}")
    # 1 and 0 rather than bools: bytes() converts small ints faster.
    lanes = [
        _to_lane(bytes([1 if a <= v <= b else 0 for v in col]), w)
        for col, a, b in zip(columns, lo, hi)
    ]
    if profile is None and mode == "leave_one_out":
        # Every critical row is inside the full envelope. Held out, a row that is
        # a factor's unique minimum (maximum) moves that edge to the runner-up.
        held = list(compress(range(n_rows), critical))
        if len(held) == 1:
            return _lanes((tuple(lanes), ones - (1 << 8 * w * held[0]), ones, w, rows))
        for j, (values, s) in enumerate(zip(train, ranked)):
            if s[0] < s[1] - eps:
                lanes[j] -= 1 << 8 * w * held[values.index(s[0])]
            if s[-1] > s[-2] + eps:
                lanes[j] -= 1 << 8 * w * held[values.index(s[-1])]
    return _lanes((tuple(lanes), ones, ones, w, rows))


def membership_count(year_factors: Mapping[str, float], profile: IntervalProfile) -> int:
    """Number of profile intervals the year's factor values fall inside."""
    missing = [name for name in profile.factor_names if name not in year_factors]
    if missing:
        raise MissingFactorValue(missing[0])
    lanes = membership_lanes([(year_factors[n],) for n in profile.factor_names], profile=profile)
    return sum(lanes.factors)


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
    lanes = membership_lanes(columns, profile=profile)
    total = sum(lanes.factors)
    counts = lanes.counts(total)
    flagged = [i for i, count in enumerate(counts) if count >= required]
    x, y, _ = lanes.scorer(labels.is_critical)(total, required)
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
