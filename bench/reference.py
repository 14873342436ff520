"""Independent plain-loop reference for the benchmark's correctness checks.

Every result a benchmark job produces is compared against the values
computed here. The functions work on plain Python lists (years, incidence,
one value list per factor) and share no helper with ``factorcast.recognizer``
or ``factorcast.backtest``: envelopes, memberships, the quorum requirement,
threshold selection and the x / y / p tallies are all re-derived with direct
loops.

A verdict is the tuple ``(year, prediction, membership, truth)``, with
``membership`` None for ``no_forecast``. ``flip=True`` inverts the first issued
forecast of a verdict list; the benchmark uses it to prove that its checker
catches a single wrong verdict.
"""

from __future__ import annotations

import math

CRITICAL = "critical"
NON_CRITICAL = "non_critical"
NO_FORECAST = "no_forecast"


def needed(q: float, n_factors: int) -> int:
    return math.ceil(q * n_factors)


def critical_flags(incidence: list[float], threshold: float) -> list[bool]:
    return [v >= threshold for v in incidence]


def envelope(cols: list[list[float]], rows: list[int]) -> list[tuple[float, float]]:
    """Per-factor (lo, hi) over the given rows."""
    bounds = []
    for col in cols:
        lo = hi = col[rows[0]]
        for r in rows[1:]:
            v = col[r]
            if v < lo:
                lo = v
            if v > hi:
                hi = v
        bounds.append((lo, hi))
    return bounds


def hits(cols: list[list[float]], bounds: list[tuple[float, float]], row: int) -> int:
    count = 0
    for col, (lo, hi) in zip(cols, bounds):
        if lo <= col[row] <= hi:
            count += 1
    return count


def _flip_first(verdicts: list[tuple]) -> list[tuple]:
    out = list(verdicts)
    for i, (year, prediction, membership, truth) in enumerate(out):
        if prediction != NO_FORECAST:
            swapped = NON_CRITICAL if prediction == CRITICAL else CRITICAL
            out[i] = (year, swapped, membership, truth)
            break
    return out


def rolling(years, incidence, cols, threshold, q, min_train_years, min_train_critical):
    """Forecast each row t >= min_train_years from rows 0..t-1 only."""
    crit = critical_flags(incidence, threshold)
    need = needed(q, len(cols))
    lo = [0.0] * len(cols)
    hi = [0.0] * len(cols)
    n_crit = 0
    verdicts = []
    for t in range(len(years)):
        if t >= min_train_years:
            if n_crit < min_train_critical:
                verdicts.append((years[t], NO_FORECAST, None, crit[t]))
            else:
                count = 0
                for j, col in enumerate(cols):
                    if lo[j] <= col[t] <= hi[j]:
                        count += 1
                prediction = CRITICAL if count >= need else NON_CRITICAL
                verdicts.append((years[t], prediction, count, crit[t]))
        if crit[t]:
            for j, col in enumerate(cols):
                v = col[t]
                if n_crit == 0 or v < lo[j]:
                    lo[j] = v
                if n_crit == 0 or v > hi[j]:
                    hi[j] = v
            n_crit += 1
    return verdicts


def leave_one_out(years, incidence, cols, threshold, q):
    """Each row against the envelope of every critical row except itself."""
    crit = critical_flags(incidence, threshold)
    crit_rows = [i for i, c in enumerate(crit) if c]
    if not crit_rows:
        return [(year, NO_FORECAST, None, crit[i]) for i, year in enumerate(years)]
    need = needed(q, len(cols))
    full = envelope(cols, crit_rows)
    verdicts = []
    for i, year in enumerate(years):
        bounds = full
        if crit[i]:
            if len(crit_rows) == 1:
                verdicts.append((year, NO_FORECAST, None, True))
                continue
            bounds = envelope(cols, [r for r in crit_rows if r != i])
        count = hits(cols, bounds, i)
        verdicts.append((year, CRITICAL if count >= need else NON_CRITICAL, count, crit[i]))
    return verdicts


def tally(verdicts: list[tuple]) -> dict:
    """x, y, p and n_no_forecast of a verdict list."""
    x = y = none = 0
    for _, prediction, _, truth in verdicts:
        if prediction == CRITICAL:
            if truth:
                x += 1
            else:
                y += 1
        elif prediction == NO_FORECAST:
            none += 1
    p = None if x + y == 0 else x / (x + y)
    return {"x": x, "y": y, "p": p, "n_no_forecast": none}


def backtest_job(data: dict, cfg: dict, flip: bool = False) -> dict:
    """Rolling then leave-one-out verdicts and tallies for one series."""
    args = (data["years"], data["incidence"], data["cols"], cfg["threshold"], cfg["q"])
    roll = rolling(*args, cfg["min_train_years"], cfg["min_train_critical"])
    if flip:
        roll = _flip_first(roll)
    loo = leave_one_out(*args)
    return {
        "rolling": {"verdicts": roll, **tally(roll)},
        "leave_one_out": {"verdicts": loo, **tally(loo)},
    }


def _ok(label: str, verdicts: list[tuple]) -> tuple:
    t = tally(verdicts)
    return (label, "ok", t["x"], t["y"], t["p"], t["n_no_forecast"], "")


def _skipped(label: str, note: str) -> tuple:
    return (label, "skipped", None, None, None, None, note)


def subsets_in_order(names: list[str]) -> list[list[int]]:
    """Index lists of every non-empty subset, size ascending then by name."""
    subsets = []
    for mask in range(1, 1 << len(names)):
        subsets.append([j for j in range(len(names)) if mask >> j & 1])
    subsets.sort(key=lambda idx: (len(idx), [names[j] for j in idx]))
    return subsets


def sweep_job(data: dict, cfg: dict, grids: dict, flip: bool = False) -> dict:
    """Rows of every sweep axis, each row ``(label, status, x, y, p, no_forecast, note)``."""
    years, incidence, cols, names = data["years"], data["incidence"], data["cols"], data["names"]
    thr, q = cfg["threshold"], cfg["q"]
    mty, mtc = cfg["min_train_years"], cfg["min_train_critical"]
    n = len(years)
    out: dict[str, list[tuple]] = {}
    verdict_count = 0

    rows = []
    for k, idx in enumerate(subsets_in_order(names)):
        verdicts = rolling(years, incidence, [cols[j] for j in idx], thr, q, mty, mtc)
        if flip and k == 0:
            verdicts = _flip_first(verdicts)
        verdict_count += len(verdicts)
        rows.append(_ok("+".join(names[j] for j in idx), verdicts))
    out["factor_subset"] = rows

    rows = []
    for gq in grids["quorum"]:
        verdicts = rolling(years, incidence, cols, thr, gq, mty, mtc)
        verdict_count += len(verdicts)
        rows.append(_ok(repr(float(gq)), verdicts))
    out["quorum"] = rows

    rows = []
    for value in grids["threshold"]:
        n_crit = sum(critical_flags(incidence, value))
        if n_crit < mtc:
            rows.append(_skipped(repr(float(value)), f"{n_crit} critical years, {mtc} required"))
            continue
        verdicts = rolling(years, incidence, cols, value, q, mty, mtc)
        verdict_count += len(verdicts)
        rows.append(_ok(repr(float(value)), verdicts))
    out["threshold"] = rows

    rows = []
    for lag in grids["lag"]:
        lagged = [col[: n - lag] for col in cols]
        verdicts = rolling(years[lag:], incidence[lag:], lagged, thr, q, mty, mtc)
        verdict_count += len(verdicts)
        rows.append(_ok(str(lag), verdicts))
    out["lag"] = rows

    rows = []
    for k in grids["row_length"]:
        if k > n:
            rows.append(_skipped(str(k), f"window exceeds {n}-year series"))
            continue
        inc = incidence[n - k :]
        n_crit = sum(critical_flags(inc, thr))
        if n_crit < mtc:
            rows.append(_skipped(str(k), f"{n_crit} critical years, {mtc} required"))
            continue
        verdicts = rolling(years[n - k :], inc, [col[n - k :] for col in cols], thr, q, mty, mtc)
        verdict_count += len(verdicts)
        rows.append(_ok(str(k), verdicts))
    out["row_length"] = rows
    return {"rows": out, "year_evals": verdict_count}


def select_threshold(incidence: list[float], min_critical: int) -> float:
    """Largest observed incidence that leaves at least ``min_critical`` criticals."""
    for candidate in sorted(set(incidence), reverse=True):
        if sum(1 for v in incidence if v >= candidate) >= min_critical:
            return candidate
    raise ValueError("fewer rows than min_critical")


def cli_job(data: dict, q: float, min_critical: int, flip: bool = False) -> dict:
    """Expected ``fit`` payload, ``classify`` rows and in-sample ``backtest`` rows."""
    years, incidence, cols = data["years"], data["incidence"], data["cols"]
    threshold = select_threshold(incidence, min_critical)
    crit = critical_flags(incidence, threshold)
    crit_rows = [i for i, c in enumerate(crit) if c]
    bounds = envelope(cols, crit_rows)
    need = needed(q, len(cols))
    counts = [hits(cols, bounds, i) for i in range(len(years))]
    flagged = [c >= need for c in counts]
    x = sum(1 for f, c in zip(flagged, crit) if f and c)
    y = sum(1 for f, c in zip(flagged, crit) if f and not c)
    p = None if x + y == 0 else x / (x + y)
    fit = {
        "threshold": threshold,
        "required": need,
        "intervals": [
            {"factor": name, "lo": lo, "hi": hi, "widen_eps": 0.0}
            for name, (lo, hi) in zip(data["names"], bounds)
        ],
        "n_critical_train": len(crit_rows),
        "per_year": [
            {
                "year": year,
                "incidence": incidence[i],
                "critical": crit[i],
                "membership": counts[i],
                "flagged": flagged[i],
            }
            for i, year in enumerate(years)
        ],
        "flagged_years": [year for year, f in zip(years, flagged) if f],
        "x": x,
        "y": y,
        "p": p,
    }
    classify = [
        (year, counts[i], CRITICAL if flagged[i] else NON_CRITICAL)
        for i, year in enumerate(years)
    ]
    if flip:
        year, count, prediction = classify[0]
        classify[0] = (year, count, NON_CRITICAL if prediction == CRITICAL else CRITICAL)
    in_sample = [
        (year, CRITICAL if flagged[i] else NON_CRITICAL, counts[i], crit[i])
        for i, year in enumerate(years)
    ]
    return {"fit": fit, "classify": classify, "backtest": {"verdicts": in_sample, **tally(in_sample)}}
