"""Synthetic annual datasets with planted interval rules.

The generator plants a per-factor value interval that critical years hit and
non-critical years miss, then optionally corrupts the picture: per-cell noise
flips interval membership, uninformative (adversarial) columns ignore
criticality entirely, a lag shifts the factor signal relative to the year it
describes, and a regime change breaks the factor-signal link before a chosen
year. Ground truth (true criticality, planted intervals, planted lag) is
returned alongside the matrix, so recognition quality can be measured against
a known answer. All output is synthetic; no real surveillance data is
involved.

Determinism: generation is a pure function of the spec. Randomness comes from
``random.Random(seed)`` (CPython's Mersenne Twister) with a fixed draw order:
planted intervals per factor, then the critical-year sample, then row-major
cell draws (incidence first, then each factor).
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .errors import InvalidSpec
from .matrix import Frozen, TemporalMatrix
from .recognizer import FactorInterval

AMBIENT_LO = 0.0
AMBIENT_HI = 100.0
# Outside draws keep this distance from the planted interval so membership
# never hinges on float rounding.
EDGE_GAP = 1.0
# Most cells (years x (factors + 1)) one spec may ask for; the checks run
# before anything of that size is allocated.
MAX_CELLS = 1_000_000


class PlantSpec(Frozen):
    """Recipe for one synthetic dataset.

    Defaults mirror a realistic desk scale: a 30-year series with 8 factor
    columns. Each factor's planted interval is drawn from the seed: its low
    edge uniform in [25, 45), its width uniform in [15, 30). ``noise_prob`` is
    the per-cell chance that a factor value lands on the wrong side of its
    planted interval (critical years escape it, non-critical years enter it).
    The last ``n_adversarial`` factors carry no signal at all. ``lag_shift``
    moves each informative factor's signal ``lag_shift`` rows later than the
    year it describes, and years before ``regime_change_year`` draw
    informative factors with no signal either. A spec may ask for at most
    ``MAX_CELLS`` cells, counted as ``n_years * (n_factors + 1)`` (the
    incidence column included).
    """

    __slots__ = (
        "n_years",
        "n_factors",
        "seed",
        "critical_fraction",
        "noise_prob",
        "lag_shift",
        "regime_change_year",
        "n_adversarial",
        "incidence_threshold",
        "start_year",
    )

    def __init__(
        self,
        n_years: int = 30,
        n_factors: int = 8,
        seed: int = 0,
        critical_fraction: float = 0.3,
        noise_prob: float = 0.0,
        lag_shift: int = 0,
        regime_change_year: int | None = None,
        n_adversarial: int = 0,
        incidence_threshold: float = 10.0,
        start_year: int = 1990,
    ):
        try:
            critical_fraction, noise_prob = float(critical_fraction), float(noise_prob)
            incidence_threshold = float(incidence_threshold)
        except (TypeError, ValueError, OverflowError):
            raise InvalidSpec(
                "critical_fraction, noise_prob and incidence_threshold must be numbers"
                " that fit a float"
            ) from None
        counts = {
            "n_years": n_years,
            "n_factors": n_factors,
            "lag_shift": lag_shift,
            "n_adversarial": n_adversarial,
            "start_year": start_year,
        }
        if regime_change_year is not None:
            counts["regime_change_year"] = regime_change_year
        for name, count in counts.items():
            if not isinstance(count, int):
                raise InvalidSpec(f"{name} must be an int, got {count!r}")
        if n_years < 5:
            raise InvalidSpec(f"n_years must be at least 5, got {n_years}")
        if n_factors < 1:
            raise InvalidSpec("n_factors must be at least 1")
        if n_years * (n_factors + 1) > MAX_CELLS:
            raise InvalidSpec(
                f"{n_years} years x {n_factors} factors needs"
                f" {n_years * (n_factors + 1)} cells, more than the"
                f" limit of {MAX_CELLS}"
            )
        if not (0.0 <= critical_fraction <= 1.0):
            raise InvalidSpec("critical_fraction must be in [0, 1]")
        if not (0.0 <= noise_prob <= 1.0):
            raise InvalidSpec("noise_prob must be in [0, 1]")
        if not (0 <= lag_shift < n_years):
            raise InvalidSpec("lag_shift must be in [0, n_years)")
        if not (0 <= n_adversarial <= n_factors):
            raise InvalidSpec("n_adversarial must be in [0, n_factors]")
        if not (math.isfinite(incidence_threshold) and incidence_threshold > 0):
            raise InvalidSpec("incidence_threshold must be finite and positive")
        if not math.isfinite(2.0 * incidence_threshold):
            # Critical incidence is drawn up to twice the threshold.
            raise InvalidSpec("incidence_threshold must be at most half the largest float")
        self._set(
            n_years, n_factors, seed, critical_fraction, noise_prob, lag_shift, regime_change_year,
            n_adversarial, incidence_threshold, start_year,
        )

    @property
    def factor_names(self) -> tuple[str, ...]:
        return tuple(f"f{i + 1:02d}" for i in range(self.n_factors))


class GroundTruth(NamedTuple):
    """What the generator planted: criticality, intervals, lag."""

    years: tuple[int, ...]
    is_critical: tuple[bool, ...]
    intervals: tuple[FactorInterval, ...]
    lag_shift: int

    def to_csv(self) -> str:
        lines = ["year,is_critical"]
        lines.extend(
            f"{year},{1 if c else 0}" for year, c in zip(self.years, self.is_critical)
        )
        return "\n".join(lines) + "\n"


def generate(spec: PlantSpec) -> tuple[TemporalMatrix, GroundTruth]:
    """Build the synthetic matrix and its ground truth from the spec.

    Each ``rng.uniform(a, b)`` draw is written out as ``a + (b - a) * random()``,
    the expression ``random.Random.uniform`` evaluates, with ``b - a`` computed
    once per factor, so the values are the ones ``uniform`` would return.
    """
    rng = random.Random(spec.seed)
    random_ = rng.random
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

    columns: dict[str, list[float]] = {name: [] for name in names}
    ambient = AMBIENT_HI - AMBIENT_LO
    # Per informative factor: its column, the inside draw's lo and width, and
    # the outside draw's left gap, total span and right-hand start.
    informative = []
    for name, (lo, hi) in zip(names[:n_informative], planted):
        left = (lo - EDGE_GAP) - AMBIENT_LO
        right = AMBIENT_HI - (hi + EDGE_GAP)
        informative.append((columns[name], lo, hi - lo, left, left + right, hi + EDGE_GAP))
    uninformative = [columns[name] for name in names[n_informative:]]
    every_column = list(columns.values())

    thr = spec.incidence_threshold
    critical_span = 2.0 * thr - thr
    calm_span = 0.9 * thr - 0.0
    noise = spec.noise_prob
    lag = spec.lag_shift
    # Rows whose signal year (lag_shift rows later) comes before the regime
    # change draw every factor with no signal.
    first_new_regime = (
        0
        if spec.regime_change_year is None
        else max(0, spec.regime_change_year - spec.start_year - lag)
    )
    incidence: list[float] = []
    for i in range(n):
        if is_critical[i]:
            incidence.append(thr + critical_span * random_())
        else:
            incidence.append(0.0 + calm_span * random_())
        if i < first_new_regime:
            for column in every_column:
                column.append(AMBIENT_LO + ambient * random_())
            continue
        # Factor cells carry the signal of the year lag_shift rows later;
        # rows whose signal year falls past the series behave non-critical.
        signal = i + lag < n and is_critical[i + lag]
        for column, lo, width, left, span, right_start in informative:
            if (random_() < noise) != signal:
                column.append(lo + width * random_())
            else:
                u = 0.0 + span * random_()
                column.append(AMBIENT_LO + u if u <= left else right_start + (u - left))
        for column in uninformative:
            column.append(AMBIENT_LO + ambient * random_())

    matrix = TemporalMatrix(years, tuple(incidence), names, columns)
    truth_intervals = tuple(
        FactorInterval(name, AMBIENT_LO, AMBIENT_HI)
        if j >= n_informative
        else FactorInterval(name, planted[j][0], planted[j][1])
        for j, name in enumerate(names)
    )
    truth = GroundTruth(years, is_critical, truth_intervals, spec.lag_shift)
    return matrix, truth

