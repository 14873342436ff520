"""The membership kernel as it was before its column-walk rewrite, kept for tests.

``membership_masks`` here scores rolling and held-out rows one row at a time
(a running min/max list per critical row, and ``heapq`` runner-up edges for
leave-one-out). ``test_kernel.py`` compares the package kernel with it bit for
bit in every mode, including arguments that no backtest configuration reaches.
"""

from __future__ import annotations

import heapq
import math
from itertools import compress
from typing import Sequence

from factorcast.recognizer import IntervalProfile


def _row_mask(row: Sequence[float], lo: Sequence[float], hi: Sequence[float]) -> int:
    mask = 0
    for j, value in enumerate(row):
        if lo[j] <= value <= hi[j]:
            mask |= 1 << j
    return mask


def _column_masks(
    columns: Sequence[Sequence[float]], n_rows: int, lo: Sequence[float], hi: Sequence[float]
) -> list[int]:
    """Masks of ``n_rows`` rows against fixed envelopes, one pass per factor column."""
    masks = [0] * n_rows
    for j, (col, a, b) in enumerate(zip(columns, lo, hi)):
        bit = 1 << j
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
    - leave_one_out: all but the row itself, from the two smallest and two
      largest critical values per factor; None for a lone critical row.
    - in_sample: all of them; None for every row when there is none.

    A ``profile`` fixes the envelopes to its intervals instead, whatever the
    mode. Every mode costs O(n·F) for n rows and F factors. Fixed envelopes
    (a profile, in_sample, and the leave-one-out rows that are not held out)
    are scored a column at a time; rolling and held-out rows row by row.
    """
    n_rows = len(columns[0]) if columns else 0
    if profile is not None:
        lo = [iv.lo - iv.widen_eps for iv in profile.intervals]
        hi = [iv.hi + iv.widen_eps for iv in profile.intervals]
        return _column_masks(columns, n_rows, lo, hi)
    eps = float(widen_eps)
    if mode == "rolling":
        lo, hi = [math.inf] * len(columns), [-math.inf] * len(columns)
        seen, masks = 0, []
        for t, row in enumerate(zip(*columns)):
            if t >= start:
                masks.append(_row_mask(row, lo, hi) if seen >= min_critical else None)
            if critical[t]:
                seen += 1
                lo = [min(a, v - eps) for a, v in zip(lo, row)]
                hi = [max(b, v + eps) for b, v in zip(hi, row)]
        return masks
    if mode not in ("leave_one_out", "in_sample"):
        raise ValueError(f"unknown evaluation mode {mode!r}")
    train = [list(compress(col, critical)) for col in columns]
    if not train or not train[0]:
        return [None] * n_rows
    lows = [heapq.nsmallest(2, values) for values in train]
    highs = [heapq.nlargest(2, values) for values in train]
    lo = [s[0] - eps for s in lows]
    hi = [s[0] + eps for s in highs]
    masks = _column_masks(columns, n_rows, lo, hi)
    if mode == "leave_one_out":
        for i in compress(range(n_rows), critical):
            if len(train[0]) == 1:
                masks[i] = None
                continue
            # Holding out a row on an envelope edge moves that edge to the runner-up.
            row = [col[i] for col in columns]
            held_lo = [(s[1] if v == s[0] else s[0]) - eps for s, v in zip(lows, row)]
            held_hi = [(s[1] if v == s[0] else s[0]) + eps for s, v in zip(highs, row)]
            masks[i] = _row_mask(row, held_lo, held_hi)
    return masks
