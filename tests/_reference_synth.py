"""Test-only reference: the synthetic generator as it was before its draws were hoisted.

``generate`` here is the per-cell ``rng.uniform`` version that
``factorcast.synth.generate`` replaced, kept unchanged so tests can assert that
the fast generator returns exactly the same matrix and ground truth for the
same spec.
"""

from __future__ import annotations

import random

from factorcast.matrix import TemporalMatrix
from factorcast.recognizer import FactorInterval
from factorcast.synth import AMBIENT_HI, AMBIENT_LO, EDGE_GAP, GroundTruth, PlantSpec


def _draw_inside(rng: random.Random, lo: float, hi: float) -> float:
    return rng.uniform(lo, hi)


def _draw_outside(rng: random.Random, lo: float, hi: float) -> float:
    left = (lo - EDGE_GAP) - AMBIENT_LO
    right = AMBIENT_HI - (hi + EDGE_GAP)
    u = rng.uniform(0.0, left + right)
    if u <= left:
        return AMBIENT_LO + u
    return (hi + EDGE_GAP) + (u - left)


def generate(spec: PlantSpec) -> tuple[TemporalMatrix, GroundTruth]:
    """Build the synthetic matrix and its ground truth from the spec."""
    rng = random.Random(spec.seed)
    n = spec.n_years
    names = spec.factor_names
    n_informative = spec.n_factors - spec.n_adversarial

    planted: list[tuple[float, float]] = []
    for _ in range(spec.n_factors):
        lo = rng.uniform(25.0, 45.0)
        hi = lo + rng.uniform(15.0, 30.0)
        planted.append((lo, hi))

    n_critical = min(n, max(0, round(spec.critical_fraction * n)))
    critical_idx = set(rng.sample(range(n), n_critical))
    is_critical = tuple(i in critical_idx for i in range(n))
    years = tuple(spec.start_year + i for i in range(n))

    def signal_is_critical(row: int) -> bool:
        # Factor cells carry the signal of the year lag_shift rows later;
        # rows whose signal year falls past the series behave non-critical.
        signal_row = row + spec.lag_shift
        return is_critical[signal_row] if signal_row < n else False

    def signal_in_old_regime(row: int) -> bool:
        if spec.regime_change_year is None:
            return False
        return spec.start_year + row + spec.lag_shift < spec.regime_change_year

    thr = spec.incidence_threshold
    incidence: list[float] = []
    columns: dict[str, list[float]] = {name: [] for name in names}
    for i in range(n):
        if is_critical[i]:
            incidence.append(rng.uniform(thr, 2.0 * thr))
        else:
            incidence.append(rng.uniform(0.0, 0.9 * thr))
        for j, name in enumerate(names):
            lo, hi = planted[j]
            if j >= n_informative or signal_in_old_regime(i):
                columns[name].append(rng.uniform(AMBIENT_LO, AMBIENT_HI))
                continue
            inside = signal_is_critical(i)
            if rng.random() < spec.noise_prob:
                inside = not inside
            value = _draw_inside(rng, lo, hi) if inside else _draw_outside(rng, lo, hi)
            columns[name].append(value)

    matrix = TemporalMatrix(years, tuple(incidence), names, columns)
    truth_intervals = tuple(
        FactorInterval(name, AMBIENT_LO, AMBIENT_HI)
        if j >= n_informative
        else FactorInterval(name, planted[j][0], planted[j][1])
        for j, name in enumerate(names)
    )
    truth = GroundTruth(years, is_critical, truth_intervals, spec.lag_shift)
    return matrix, truth
