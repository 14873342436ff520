"""The envelope rule in plain loops over plain lists, for the kernel, backtest and sweep tests.

Nothing here comes from ``factorcast``. Each row's envelope is recomputed
from scratch over the rows that train it, with no running min/max and no
runner-up patch, so a test that agrees with this module checks the
package's algorithm rather than a copy of it. ``test_kernel.py`` guards that
this module imports nothing from the package.
"""

import math


def training_rows(critical, mode, row):
    """Indices of the critical rows that train ``row``'s envelope in ``mode``."""
    if mode == "rolling":
        return [i for i in range(row) if critical[i]]
    if mode == "leave_one_out":
        return [i for i in range(len(critical)) if critical[i] and i != row]
    if mode == "in_sample":
        return [i for i in range(len(critical)) if critical[i]]
    raise ValueError(f"unknown evaluation mode {mode!r}")


def inside(col, train, row, eps):
    """Whether ``col[row]`` lies in ``[min - eps, max + eps]`` of ``col`` over ``train``."""
    if not train:
        return False
    values = [col[i] for i in train]
    lo = min(values) - eps
    hi = max(values) + eps
    return lo <= col[row] <= hi


def masks(columns, critical, mode, widen_eps=0.0, start=0, min_critical=1):
    """One bitmask per scored row (bit j: factor j inside), or None for no envelope.

    Rolling scores the rows from ``start`` on, and gives None to a row with
    fewer than ``min_critical`` critical rows before it; with ``min_critical``
    0 a row with none before it gets mask 0. Leave-one-out and in-sample
    score every row, and give None to a row with no training row.
    """
    n = len(columns[0]) if columns else 0
    rolling = mode == "rolling"
    result = []
    for row in range(start if rolling else 0, n):
        train = training_rows(critical, mode, row)
        if len(train) < (min_critical if rolling else 1):
            result.append(None)
            continue
        mask = 0
        for j, col in enumerate(columns):
            if inside(col, train, row, widen_eps):
                mask |= 1 << j
        result.append(mask)
    return result


def backtest(
    years,
    incidence,
    flags,
    threshold,
    columns,
    q,
    mode,
    min_train_years,
    min_train_critical,
    widen_eps,
):
    """Verdicts ``(year, prediction, membership, truth)`` and ``(x, y, p, n_no_forecast)``.

    Rolling trains on the rows with ``incidence >= threshold`` and scores the
    rows from ``min_train_years`` on; the other modes train on ``flags``.
    Every mode reads the truth from ``flags``. A row is flagged critical when
    its membership reaches ``ceil(q * F)`` of its F factors.
    """
    rolling = mode == "rolling"
    critical = [v >= threshold for v in incidence] if rolling else list(flags)
    start = min_train_years if rolling else 0
    required = math.ceil(q * len(columns))
    row_masks = masks(columns, critical, mode, widen_eps, start, min_train_critical)
    verdicts = []
    x = y = n_no_forecast = 0
    for row, mask in zip(range(start, len(years)), row_masks):
        truth = flags[row]
        if mask is None:
            verdicts.append((years[row], "no_forecast", None, truth))
            n_no_forecast += 1
            continue
        membership = bin(mask).count("1")
        if membership >= required:
            prediction = "critical"
            if truth:
                x += 1
            else:
                y += 1
        else:
            prediction = "non_critical"
        verdicts.append((years[row], prediction, membership, truth))
    p = x / (x + y) if x + y else None
    return verdicts, (x, y, p, n_no_forecast)
