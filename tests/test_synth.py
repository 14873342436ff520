"""Synthetic generator determinism and planted structure; in-sample parity with the reference."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcast import (
    CriticalThreshold,
    FactorSelection,
    QuorumRule,
    build_profile,
    evaluate_insample,
    label_critical,
)
from factorcast.errors import InvalidSpec
from factorcast.synth import AMBIENT_HI, AMBIENT_LO, MAX_CELLS, PlantSpec, generate

import _reference_synth as ref
from _support import random_instance, reference_recognize


class TestGenerate:
    def test_deterministic(self):
        a, truth_a = generate(PlantSpec(seed=7))
        b, truth_b = generate(PlantSpec(seed=7))
        assert a == b
        assert truth_a == truth_b
        assert a.to_csv() == b.to_csv()

    def test_different_seeds_differ(self):
        a, _ = generate(PlantSpec(seed=7))
        b, _ = generate(PlantSpec(seed=8))
        assert a != b

    def test_shape(self):
        m, truth = generate(PlantSpec(n_years=30, n_factors=8))
        assert m.n_years == 30
        assert m.n_factors == 8
        assert len(truth.is_critical) == 30
        assert len(truth.intervals) == 8

    def test_labels_match_truth(self):
        spec = PlantSpec(seed=3, noise_prob=0.5)
        m, truth = generate(spec)
        labels = label_critical(m, CriticalThreshold(spec.incidence_threshold))
        assert labels.is_critical == truth.is_critical

    def test_noiseless_values_respect_planted_intervals(self):
        spec = PlantSpec(seed=5)
        m, truth = generate(spec)
        by_name = {interval.factor: interval for interval in truth.intervals}
        for i, critical in enumerate(truth.is_critical):
            for name in m.factor_names:
                lo, hi, eps = by_name[name].lo, by_name[name].hi, by_name[name].widen_eps
                inside = lo - eps <= m.columns[name][i] <= hi + eps
                assert inside == critical

    def test_noiseless_full_quorum_precision_is_one(self):
        spec = PlantSpec(seed=6)
        m, truth = generate(spec)
        labels = label_critical(m, CriticalThreshold(spec.incidence_threshold))
        selection = FactorSelection.all_of(m)
        _, x, y, p, _ = reference_recognize(m, labels, selection, QuorumRule(1.0))
        assert x == labels.n_critical
        assert y == 0
        assert p == 1.0

    def test_adversarial_columns_ignore_criticality(self):
        spec = PlantSpec(seed=4, n_factors=3, n_adversarial=1)
        m, truth = generate(spec)
        noise = truth.intervals[-1]
        assert (noise.lo, noise.hi) == (AMBIENT_LO, AMBIENT_HI)

    def test_truth_csv_format(self):
        spec = PlantSpec(seed=2, n_years=5, n_factors=1, critical_fraction=0.4)
        _, truth = generate(spec)
        lines = truth.to_csv().splitlines()
        assert lines[0] == "year,is_critical"
        assert len(lines) == 6
        for line in lines[1:]:
            year, flag = line.split(",")
            assert int(year) in truth.years
            assert flag in ("0", "1")

    def test_custom_intervals(self):
        spec = PlantSpec(
            n_years=10, n_factors=2, intervals=((10.0, 20.0), (40.0, 60.0)), seed=1
        )
        _, truth = generate(spec)
        assert (truth.intervals[0].lo, truth.intervals[0].hi) == (10.0, 20.0)
        assert (truth.intervals[1].lo, truth.intervals[1].hi) == (40.0, 60.0)


@st.composite
def plant_specs(draw):
    """Specs across every generator branch, edge values of each knob included."""
    n_years = draw(st.integers(5, 40))
    n_factors = draw(st.integers(1, 6))
    intervals = None
    if draw(st.booleans()):
        intervals = []
        for _ in range(n_factors):
            lo = draw(st.sampled_from((1.0, 10.0, 33.3, 50.0)))
            hi = draw(st.sampled_from((lo, lo + 0.1, lo + 12.5, 99.0)))
            intervals.append((lo, hi))
    regime = draw(st.one_of(st.none(), st.integers(1980, 2040)))
    return PlantSpec(
        n_years=n_years,
        n_factors=n_factors,
        seed=draw(st.integers(0, 2**64)),
        critical_fraction=draw(st.sampled_from((0.0, 0.1, 0.3, 0.5, 1.0))),
        noise_prob=draw(st.sampled_from((0.0, 0.1, 0.5, 1.0))),
        lag_shift=draw(st.integers(0, n_years - 1)),
        regime_change_year=regime,
        n_adversarial=draw(st.sampled_from((0, n_factors // 2, n_factors))),
        intervals=None if intervals is None else tuple(intervals),
        incidence_threshold=draw(st.sampled_from((10.0, 0.3, 7.77))),
        start_year=draw(st.sampled_from((1990, 1, 2000))),
    )


class TestAgainstReference:
    """The hoisted generator returns exactly what the per-draw reference does."""

    @settings(max_examples=300, deadline=None)
    @given(plant_specs())
    def test_same_matrix_and_truth(self, spec):
        assert generate(spec) == ref.generate(spec)

    @pytest.mark.parametrize("seed", range(40))
    def test_cli_sized_specs(self, seed):
        spec = PlantSpec(
            n_years=600, n_factors=16, seed=seed, noise_prob=0.1, n_adversarial=2
        )
        m, truth = generate(spec)
        expected_m, expected_truth = ref.generate(spec)
        assert m.to_csv() == expected_m.to_csv()
        assert truth == expected_truth

    @pytest.mark.parametrize(
        "changes",
        [
            {"lag_shift": 3},
            {"regime_change_year": 2000},
            {"regime_change_year": 2000, "lag_shift": 4},
            {"intervals": ((10.0, 20.0), (1.0, 99.0), (50.0, 50.0))},
            {"noise_prob": 0.0},
            {"noise_prob": 1.0},
            {"n_adversarial": 0},
            {"n_adversarial": 3},
            {"critical_fraction": 0.0},
            {"critical_fraction": 1.0},
        ],
    )
    def test_each_knob(self, changes):
        spec = PlantSpec(**{"n_years": 30, "n_factors": 3, "seed": 9, **changes})
        assert generate(spec) == ref.generate(spec)


class TestSpecValidation:
    def test_bad_values(self):
        with pytest.raises(InvalidSpec):
            PlantSpec(n_years=4)
        with pytest.raises(InvalidSpec):
            PlantSpec(critical_fraction=1.5)
        with pytest.raises(InvalidSpec):
            PlantSpec(noise_prob=-0.1)
        with pytest.raises(InvalidSpec):
            PlantSpec(lag_shift=30)
        with pytest.raises(InvalidSpec):
            PlantSpec(n_adversarial=9)
        with pytest.raises(InvalidSpec):
            PlantSpec(incidence_threshold=0.0)

    def test_cell_limit(self):
        PlantSpec(n_years=MAX_CELLS // 9, n_factors=8)
        with pytest.raises(InvalidSpec, match="cells"):
            PlantSpec(n_years=MAX_CELLS // 9 + 1, n_factors=8)
        # Rejected by arithmetic on the sizes, before anything is allocated.
        with pytest.raises(InvalidSpec, match="cells"):
            PlantSpec(n_years=10**20)
        with pytest.raises(InvalidSpec, match="cells"):
            PlantSpec(n_factors=10**20)

    def test_bad_intervals(self):
        with pytest.raises(InvalidSpec):
            PlantSpec(n_factors=2, intervals=((10.0, 20.0),))
        with pytest.raises(InvalidSpec):
            PlantSpec(n_factors=1, intervals=((20.0, 10.0),))
        with pytest.raises(InvalidSpec):
            PlantSpec(n_factors=1, intervals=((0.0, 50.0),))


class TestOracle:
    """``evaluate_insample`` against the in-sample mode of ``_reference_rule``."""

    def test_worked_example(self):
        from factorcast.matrix import TemporalMatrix

        m = TemporalMatrix(
            tuple(range(2001, 2007)),
            (10.0, 3.0, 9.0, 2.0, 8.0, 4.0),
            ("f",),
            {"f": (5.0, 4.0, 6.0, 1.0, 7.0, 5.5)},
        )
        labels = label_critical(m, CriticalThreshold(8.0))
        result = reference_recognize(m, labels, FactorSelection(("f",)), QuorumRule(1.0))
        assert result[:4] == ((2001, 2003, 2005, 2006), 3, 1, 0.75)

    def test_matches_recognizer_on_random_instances(self):
        rng = random.Random(97)
        for _ in range(300):
            m, labels, selection, rule = random_instance(rng)
            profile = build_profile(m, labels, selection)
            fast = evaluate_insample(m, labels, profile, rule)
            assert fast == reference_recognize(m, labels, selection, rule)

    def test_widen_eps_parity(self):
        rng = random.Random(41)
        for _ in range(100):
            m, labels, selection, rule = random_instance(rng)
            eps = rng.choice([0.0, 0.25, 1.0])
            profile = build_profile(m, labels, selection, widen_eps=eps)
            fast = evaluate_insample(m, labels, profile, rule)
            assert fast == reference_recognize(m, labels, selection, rule, eps)
