"""Sweep harness: grids, determinism, skips, and the planted-signal findings."""

import copy
import math
import os
import pickle
import sys
import threading
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import factorcast.backtest
from factorcast import (
    BacktestConfig,
    CriticalThreshold,
    FactorSelection,
    QuorumRule,
    label_critical,
    rolling_backtest,
)
from factorcast.errors import (
    InvalidQuorum,
    InvalidThreshold,
    LabelMismatch,
    LagTooLarge,
    TooManyFactors,
    UnknownFactor,
    WindowTooShort,
)
from factorcast.matrix import CriticalLabels, TemporalMatrix
from factorcast.sweeps import (
    SweepSpec,
    enumerate_subsets,
    lag_sweep,
    quorum_sweep,
    row_length_sweep,
    subset_sweep,
    threshold_sensitivity,
)
from factorcast.synth import PlantSpec, generate


BENCH = Path(__file__).resolve().parent.parent / "bench"


def make_matrix(incidence, **columns):
    n = len(incidence)
    years = tuple(range(2000, 2000 + n))
    return TemporalMatrix(years, incidence, tuple(columns), columns)


THREE_FACTOR = make_matrix(
    (10.0, 3.0, 9.0, 2.0, 8.0, 4.0),
    a=(5.0, 4.0, 6.0, 1.0, 7.0, 5.5),
    b=(1.0, 9.0, 2.0, 8.0, 3.0, 2.5),
    c=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
)
THRESHOLD = CriticalThreshold(8.0)
LABELS = label_critical(THREE_FACTOR, THRESHOLD)
IN_SAMPLE = BacktestConfig(
    rule=QuorumRule(1.0), threshold=THRESHOLD, eval_mode="in_sample"
)


def spec_for(axis, grid=None, config=IN_SAMPLE, selection=None):
    return SweepSpec(
        axis=axis,
        selection=selection or FactorSelection.all_of(THREE_FACTOR),
        config=config,
        grid=grid,
    )


# Names whose sorted order differs from a drawn selection order: by code point,
# digits sort before upper case, upper case before "_", "_" before lower case,
# and a name before its extensions.
SORT_TRAPS = ("B", "a", "a1", "_x", "Z", "b", "a0", "aa", "A9", "x_")


def sorted_combinations(names):
    """The plainest definition of the ``enumerate_subsets`` order: per size, the
    index tuples sorted along with their name tuples."""
    indices = range(len(names))
    return tuple(
        subset
        for size in range(1, len(names) + 1)
        for _, subset in sorted(zip(combinations(names, size), combinations(indices, size)))
    )


class TestSubsetSweep:
    def test_three_factors_give_seven_rows(self):
        report = subset_sweep(THREE_FACTOR, LABELS, spec_for("factor_subset"))
        assert len(report.rows) == 7

    def test_order_is_size_then_lexicographic(self):
        report = subset_sweep(THREE_FACTOR, LABELS, spec_for("factor_subset"))
        assert [row.configuration for row in report.rows] == [
            "a", "b", "c", "a+b", "a+c", "b+c", "a+b+c",
        ]

    def test_order_is_by_name_tuple_with_labels_in_selection_order(self):
        selection = FactorSelection(("c", "a", "b"))
        report = subset_sweep(
            THREE_FACTOR, LABELS, spec_for("factor_subset", selection=selection)
        )
        assert [row.configuration for row in report.rows] == [
            "a", "b", "c", "a+b", "c+a", "c+b", "c+a+b",
        ]

    @settings(max_examples=200, deadline=None)
    @given(names=st.lists(st.sampled_from(SORT_TRAPS), min_size=1, max_size=7, unique=True))
    def test_enumeration_matches_sorted_combinations(self, names):
        assert enumerate_subsets(FactorSelection(names)) == sorted_combinations(names)

    def test_full_set_row_matches_direct_backtest(self):
        report = subset_sweep(THREE_FACTOR, LABELS, spec_for("factor_subset"))
        full = report.rows[-1]
        direct = rolling_backtest(
            THREE_FACTOR, LABELS, FactorSelection.all_of(THREE_FACTOR), IN_SAMPLE
        )
        assert (full.x, full.y, full.p) == (direct.x, direct.y, direct.p)

    def test_too_many_factors(self):
        names = tuple(f"f{i}" for i in range(17))
        columns = {name: (1.0, 2.0, 3.0) for name in names}
        wide = TemporalMatrix((2000, 2001, 2002), (9.0, 1.0, 9.0), names, columns)
        with pytest.raises(TooManyFactors):
            enumerate_subsets(FactorSelection.all_of(wide))

    def test_explicit_grid(self):
        report = subset_sweep(
            THREE_FACTOR, LABELS, spec_for("factor_subset", grid=(("b",), ("a", "c")))
        )
        assert [row.configuration for row in report.rows] == ["b", "a+c"]

    def test_explicit_grid_with_unknown_factor(self):
        with pytest.raises(UnknownFactor):
            subset_sweep(THREE_FACTOR, LABELS, spec_for("factor_subset", grid=(("nope",),)))

    def test_flag_counts_shrink_along_inclusion_chain_at_full_quorum(self):
        report = subset_sweep(
            THREE_FACTOR,
            LABELS,
            spec_for("factor_subset", grid=(("a",), ("a", "b"), ("a", "b", "c"))),
        )
        sizes = [row.x + row.y for row in report.rows]
        assert sizes == sorted(sizes, reverse=True)

    def test_adversarial_factor_lowers_precision(self):
        # Two informative factors plus one pure-noise column: under a 2-of-3
        # quorum the noise column votes borderline years past the bar.
        spec = PlantSpec(n_years=30, n_factors=3, n_adversarial=1, noise_prob=0.15, seed=0)
        m, _ = generate(spec)
        threshold = CriticalThreshold(spec.incidence_threshold)
        labels = label_critical(m, threshold)
        cfg = BacktestConfig(
            rule=QuorumRule(0.6), threshold=threshold, eval_mode="in_sample"
        )
        report = subset_sweep(
            m,
            labels,
            SweepSpec(
                axis="factor_subset",
                selection=FactorSelection.all_of(m),
                config=cfg,
                grid=(("f01", "f02"), ("f01", "f02", "f03")),
            ),
        )
        informative, with_noise = report.rows
        assert with_noise.p < informative.p


class TestQuorumSweep:
    def test_flag_counts_non_increasing(self):
        report = quorum_sweep(
            THREE_FACTOR, LABELS, spec_for("quorum", grid=(0.5, 0.75, 1.0))
        )
        sizes = [row.x + row.y for row in report.rows]
        assert sizes == sorted(sizes, reverse=True)

    def test_full_quorum_row_reproduces_strict_rule(self):
        report = quorum_sweep(
            THREE_FACTOR, LABELS, spec_for("quorum", grid=(0.5, 1.0))
        )
        direct = rolling_backtest(
            THREE_FACTOR, LABELS, FactorSelection.all_of(THREE_FACTOR), IN_SAMPLE
        )
        strict = report.rows[-1]
        assert (strict.x, strict.y, strict.p) == (direct.x, direct.y, direct.p)

    def test_single_factor_collapses(self):
        selection = FactorSelection(("a",))
        report = quorum_sweep(
            THREE_FACTOR,
            LABELS,
            spec_for("quorum", grid=(0.25, 0.5, 1.0), selection=selection),
        )
        stats = {(row.x, row.y, row.p) for row in report.rows}
        assert len(stats) == 1

    def test_invalid_quorum(self):
        with pytest.raises(InvalidQuorum):
            quorum_sweep(THREE_FACTOR, LABELS, spec_for("quorum", grid=(0.5, 1.5)))

    @pytest.mark.parametrize("q, shown", [(0, "0.0"), (-0.5, "-0.5"), (math.nan, "nan")])
    def test_quorum_outside_the_unit_interval_raises_with_its_message(self, q, shown):
        with pytest.raises(InvalidQuorum) as caught:
            quorum_sweep(THREE_FACTOR, LABELS, spec_for("quorum", grid=(0.5, q, 1.0)))
        assert str(caught.value) == f"quorum must be a fraction in (0, 1], got {shown}"


class TestThresholdSensitivity:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_raises_with_its_message(self, value):
        with pytest.raises(InvalidThreshold) as caught:
            threshold_sensitivity(THREE_FACTOR, spec_for("threshold", grid=(8.0, value, 9.0)))
        assert str(caught.value) == f"threshold must be finite, got {value!r}"

    def test_infeasible_threshold_is_skipped(self):
        too_high = max(THREE_FACTOR.incidence) + 1
        report = threshold_sensitivity(
            THREE_FACTOR, spec_for("threshold", grid=(8.0, too_high))
        )
        assert report.rows[0].status == "ok"
        assert report.rows[1].status == "skipped"
        assert report.rows[1].p is None

    def test_singleton_grid_matches_direct_evaluation(self):
        report = threshold_sensitivity(THREE_FACTOR, spec_for("threshold", grid=(8.0,)))
        direct = rolling_backtest(
            THREE_FACTOR, LABELS, FactorSelection.all_of(THREE_FACTOR), IN_SAMPLE
        )
        (row,) = report.rows
        assert (row.x, row.y, row.p) == (direct.x, direct.y, direct.p)

    def test_direct_and_inverse_relations_exist(self):
        # Seeded constructions showing precision moving both ways with the
        # critical line.
        outcomes = {}
        for label, seed in (("direct", 14), ("inverse", 3)):
            spec = PlantSpec(seed=seed, noise_prob=0.2)
            m, _ = generate(spec)
            cfg = BacktestConfig(
                rule=QuorumRule(0.75),
                threshold=CriticalThreshold(10.0),
                eval_mode="in_sample",
            )
            report = threshold_sensitivity(
                m,
                SweepSpec(
                    axis="threshold",
                    selection=FactorSelection.all_of(m),
                    config=cfg,
                    grid=(10.0, 15.0),
                ),
            )
            low, high = report.rows
            assert low.status == high.status == "ok"
            outcomes[label] = (low.p, high.p)
        assert outcomes["direct"][1] > outcomes["direct"][0]
        assert outcomes["inverse"][1] < outcomes["inverse"][0]


class TestLagSweep:
    def test_zero_lag_matches_unlagged(self):
        report = lag_sweep(THREE_FACTOR, LABELS, spec_for("lag", grid=(0,)))
        direct = rolling_backtest(
            THREE_FACTOR, LABELS, FactorSelection.all_of(THREE_FACTOR), IN_SAMPLE
        )
        (row,) = report.rows
        assert (row.x, row.y, row.p) == (direct.x, direct.y, direct.p)

    def test_planted_lag_recovered(self):
        spec = PlantSpec(seed=0, lag_shift=1)
        m, truth = generate(spec)
        threshold = CriticalThreshold(spec.incidence_threshold)
        labels = label_critical(m, threshold)
        cfg = BacktestConfig(
            rule=QuorumRule(0.75), threshold=threshold, eval_mode="in_sample"
        )
        report = lag_sweep(
            m,
            labels,
            SweepSpec(
                axis="lag",
                selection=FactorSelection.all_of(m),
                config=cfg,
                grid=(0, 1),
            ),
        )
        unlagged, lagged = report.rows
        assert lagged.p > unlagged.p
        assert lagged.p == 1.0

    def test_lag_with_too_few_criticals_is_skipped(self):
        # Lag 3 leaves the incidence's last 3 years, which hold one critical year.
        report = lag_sweep(THREE_FACTOR, LABELS, spec_for("lag", grid=(2, 3)))
        assert report.rows[0].status == "ok"
        note = "1 critical years, 2 required"
        assert report.rows[1] == ("3", "skipped", None, None, None, None, note)

    def test_lag_too_large(self):
        with pytest.raises(LagTooLarge):
            lag_sweep(
                THREE_FACTOR, LABELS, spec_for("lag", grid=(THREE_FACTOR.n_years,))
            )


class TestRowLengthSweep:
    def test_full_length_matches_direct(self):
        report = row_length_sweep(
            THREE_FACTOR, LABELS, spec_for("row_length", grid=(6,))
        )
        direct = rolling_backtest(
            THREE_FACTOR, LABELS, FactorSelection.all_of(THREE_FACTOR), IN_SAMPLE
        )
        (row,) = report.rows
        assert (row.x, row.y, row.p) == (direct.x, direct.y, direct.p)

    def test_window_with_too_few_criticals_is_skipped(self):
        # Trailing 3 years of the fixture hold only one critical year.
        cfg = BacktestConfig(
            rule=QuorumRule(1.0),
            threshold=THRESHOLD,
            eval_mode="in_sample",
            min_train_years=3,
        )
        report = row_length_sweep(
            THREE_FACTOR, LABELS, spec_for("row_length", grid=(3, 6), config=cfg)
        )
        assert report.rows[0].status == "skipped"
        assert report.rows[1].status == "ok"

    def test_window_shorter_than_min_train_years_raises(self):
        with pytest.raises(WindowTooShort):
            row_length_sweep(THREE_FACTOR, LABELS, spec_for("row_length", grid=(4,)))

    def test_window_longer_than_series_is_skipped(self):
        report = row_length_sweep(
            THREE_FACTOR, LABELS, spec_for("row_length", grid=(40,))
        )
        assert report.rows[0].status == "skipped"

    def test_regime_change_favors_trailing_window(self):
        spec = PlantSpec(seed=0, regime_change_year=2005)
        m, _ = generate(spec)
        threshold = CriticalThreshold(spec.incidence_threshold)
        labels = label_critical(m, threshold)
        cfg = BacktestConfig(
            rule=QuorumRule(0.75), threshold=threshold, eval_mode="in_sample"
        )
        report = row_length_sweep(
            m,
            labels,
            SweepSpec(
                axis="row_length",
                selection=FactorSelection.all_of(m),
                config=cfg,
                grid=(15, 30),
            ),
        )
        trailing, full = report.rows
        assert trailing.p > full.p


class TestSlicedSweeps:
    """Threshold, lag and row-length sweeps score slices of the one input matrix."""

    @pytest.fixture
    def constructed(self, monkeypatch):
        calls = []

        def spying(init):
            def spy(self, *args, **kwargs):
                calls.append(type(self).__name__)
                init(self, *args, **kwargs)

            return spy

        for cls in (TemporalMatrix, CriticalLabels):
            monkeypatch.setattr(cls, "__init__", spying(cls.__init__))
        return calls

    @pytest.mark.parametrize("mode", ["rolling", "leave_one_out", "in_sample"])
    def test_sweeps_construct_no_matrix_and_no_labels(self, constructed, mode):
        cfg = BacktestConfig(
            rule=QuorumRule(0.5),
            threshold=THRESHOLD,
            min_train_years=3,
            eval_mode=mode,
            widen_eps=0.5,
        )
        threshold_sensitivity(THREE_FACTOR, spec_for("threshold", (2.0, 8.0, 99.0), cfg))
        lag_sweep(THREE_FACTOR, LABELS, spec_for("lag", (0, 1, 3), cfg))
        row_length_sweep(THREE_FACTOR, LABELS, spec_for("row_length", (3, 4, 6, 7), cfg))
        assert constructed == []
        THREE_FACTOR.window(0, 3)
        label_critical(THREE_FACTOR, THRESHOLD)
        assert constructed == ["TemporalMatrix", "CriticalLabels"]

    @pytest.mark.parametrize("mode", ["rolling", "leave_one_out", "in_sample"])
    def test_ok_rows_count_in_ints(self, mode):
        cfg = BacktestConfig(QuorumRule(0.5), THRESHOLD, min_train_years=3, eval_mode=mode)
        reports = [
            quorum_sweep(THREE_FACTOR, LABELS, spec_for("quorum", (0.5, 1.0), cfg)),
            subset_sweep(THREE_FACTOR, LABELS, spec_for("factor_subset", None, cfg)),
            threshold_sensitivity(THREE_FACTOR, spec_for("threshold", (2.0, 8.0), cfg)),
            lag_sweep(THREE_FACTOR, LABELS, spec_for("lag", (0, 1), cfg)),
            row_length_sweep(THREE_FACTOR, LABELS, spec_for("row_length", (4, 6), cfg)),
        ]
        rows = [row for report in reports for row in report.rows if row.status == "ok"]
        assert len(rows) == 2 + 7 + 2 + 2 + 2
        assert {type(n) for row in rows for n in (row.x, row.y, row.n_no_forecast)} == {int}

    # A row-length grid whose every point is skipped still checks the labels.
    @pytest.mark.parametrize(
        "sweep,axis,grid", [(lag_sweep, "lag", (0,)), (row_length_sweep, "row_length", (40,))]
    )
    def test_labels_threshold_must_match_config(self, sweep, axis, grid):
        labels = label_critical(THREE_FACTOR, CriticalThreshold(9.0))
        with pytest.raises(ValueError, match="labels threshold differs"):
            sweep(THREE_FACTOR, labels, spec_for(axis, grid))

    # Labels of the same length built for other years; the 40-year window is skipped.
    @pytest.mark.parametrize(
        "sweep,axis,grid", [(lag_sweep, "lag", (0, 2)), (row_length_sweep, "row_length", (40,))]
    )
    def test_labels_for_other_years_raise(self, sweep, axis, grid):
        labels = CriticalLabels(range(1990, 1996), LABELS.is_critical, THRESHOLD)
        with pytest.raises(LabelMismatch):
            sweep(THREE_FACTOR, labels, spec_for(axis, grid))


# Labels flagged by hand on years whose incidence is below the threshold: the
# rolling replay trains on incidence >= 9, every mode scores against the flags.
HAND_SET = make_matrix(
    (1.0, 9.0, 2.0, 9.0, 3.0, 9.0, 4.0, 9.0), g=(5.0, 1.0, 5.0, 2.0, 5.0, 3.0, 5.0, 4.0)
)
HAND_SET_LABELS = CriticalLabels(
    HAND_SET.years, [year in (2000, 2002, 2004) for year in HAND_SET.years], CriticalThreshold(9.0)
)


@pytest.mark.parametrize("widen_eps", [0.0, 1.0])
@pytest.mark.parametrize("mode", ["rolling", "leave_one_out", "in_sample"])
def test_unsliced_points_of_hand_set_labels_match_backtest_and_quorum_row(mode, widen_eps):
    """Lag 0 and the full window score the backtest's years against the same truth."""
    cfg = BacktestConfig(QuorumRule(1.0), HAND_SET_LABELS.threshold, 3, 2, mode, widen_eps)
    selection = FactorSelection(("g",))

    def counts(sweep, axis, grid):
        report = sweep(HAND_SET, HAND_SET_LABELS, SweepSpec(axis, selection, cfg, grid))
        return report.rows[0][1:]  # all but the configuration label

    quorum = counts(quorum_sweep, "quorum", (1.0,))
    assert counts(lag_sweep, "lag", (0,)) == quorum
    assert counts(row_length_sweep, "row_length", (8,)) == quorum
    _, x, y, p, n_no_forecast, _ = quorum
    result = rolling_backtest(HAND_SET, HAND_SET_LABELS, selection, cfg)
    assert (x, y, n_no_forecast) == (result.x, result.y, result.n_no_forecast)
    if mode != "rolling" and widen_eps == 0.0:
        assert (x, y, p) == (3, 1, 0.75)


def held_lane_bytes(memo):
    """The lane bytes of the passes in a matrix's pass memo: ``len(names) * k * w`` each."""
    return sum(len(key[0]) * len(key[2]) * lanes.width for key, lanes in memo.items())


class TestKernelPasses:
    """Each sweep makes the kernel passes README and the ``sweeps`` docstrings promise."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Gets one entry per kernel pass that ``evaluation_lanes`` makes."""
        calls = []
        lanes = factorcast.backtest.membership_lanes

        def counting(*args, **kwargs):
            calls.append(1)
            return lanes(*args, **kwargs)

        monkeypatch.setattr(factorcast.backtest, "membership_lanes", counting)
        return calls

    @pytest.fixture
    def passes(self, calls):
        def count(run, m, *args):
            """``run(m, *args)`` and its passes, on a copy of ``m`` with an empty pass memo."""
            calls.clear()
            return run(copy.copy(m), *args), len(calls)

        return count

    @pytest.mark.parametrize("mode", ["rolling", "leave_one_out", "in_sample"])
    def test_pass_counts(self, passes, mode):
        m, _ = generate(PlantSpec(seed=3, n_years=40, n_factors=5))
        threshold = CriticalThreshold(10.0)
        labels = label_critical(m, threshold)
        selection = FactorSelection.all_of(m)
        cfg = BacktestConfig(rule=QuorumRule(0.75), threshold=threshold, eval_mode=mode)

        def spec(axis, grid):
            return SweepSpec(axis=axis, selection=selection, config=cfg, grid=grid)

        assert passes(rolling_backtest, m, labels, selection, cfg)[1] == 1
        assert passes(quorum_sweep, m, labels, spec("quorum", (0.5, 0.75, 1.0)))[1] == 1
        assert passes(subset_sweep, m, labels, spec("factor_subset", None))[1] == 1

        # 9.5 and 10 label the same years, and 25 labels too few of them.
        grid = (2.0, 5.0, 9.5, 10.0, 25.0)
        report, n = passes(threshold_sensitivity, m, spec("threshold", grid))
        labelings = {
            label_critical(m, CriticalThreshold(t)).is_critical
            for t, row in zip(grid, report.rows)
            if row.status == "ok"
        }
        assert n == len(labelings) == 3

        # One pass per distinct (slice, labeling) of the points that are not skipped:
        # a repeated lag or window shares its pass, and a 48-year window is skipped.
        for sweep, axis, grid, expected in (
            (lag_sweep, "lag", (0, 1, 1, 3), 3),
            (row_length_sweep, "row_length", (25, 25, 40, 48), 2),
        ):
            report, n = passes(sweep, m, labels, spec(axis, grid))
            ok = {point for point, row in zip(grid, report.rows) if row.status == "ok"}
            assert n == len(ok) == expected

    @pytest.mark.parametrize("mode", ["rolling", "leave_one_out", "in_sample"])
    def test_calls_on_one_matrix_share_their_pass(self, calls, mode):
        m, _ = generate(PlantSpec(seed=3, n_years=40, n_factors=5))
        threshold = CriticalThreshold(10.0)
        labels = label_critical(m, threshold)
        selection = FactorSelection.all_of(m)
        cfg = BacktestConfig(rule=QuorumRule(0.75), threshold=threshold, eval_mode=mode)
        rolling_backtest(m, labels, selection, cfg)
        quorum_sweep(m, labels, SweepSpec("quorum", selection, cfg, (0.5, 0.75, 1.0)))
        subset_sweep(m, labels, SweepSpec("factor_subset", selection, cfg))
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", (1001, 1002, 1003))
    def test_benchmark_sweep_job_makes_eight_passes(self, calls, monkeypatch, tmp_path, seed):
        # Of the five axes' 12 evaluation windows, the base window recurs in the
        # subset and quorum sweeps, at thresholds 9.5 and 10, at lag 0 and in the
        # 40-year window; the 25.0 threshold and the 48-year window are skipped.
        monkeypatch.syspath_prepend(str(BENCH))
        import workloads

        wl = workloads.SweepWorkload(tmp_path)
        inp = wl.build(seed)
        out = wl.run(inp)
        assert len(calls) == 8
        assert wl.check(out, wl.expect(inp, False))

    def test_pass_memo_is_not_observable(self):
        m, _ = generate(PlantSpec(seed=3, n_years=40, n_factors=5))
        before = repr(m)
        threshold = CriticalThreshold(10.0)
        cfg = BacktestConfig(rule=QuorumRule(0.75), threshold=threshold)
        rolling_backtest(m, label_critical(m, threshold), FactorSelection.all_of(m), cfg)
        assert len(m._passes) == 1
        assert copy.copy(m) == m
        assert repr(m) == before
        for other in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert other == m
            assert (len(other._passes), other._passes.nbytes) == (0, 0)

    def test_pass_memo_holds_at_most_the_matrix_cell_bytes(self, calls):
        m, _ = generate(PlantSpec(seed=5, n_years=160, n_factors=5))
        cfg = BacktestConfig(rule=QuorumRule(0.75), threshold=CriticalThreshold(10.0))
        # Every observed incidence value but the largest labels a distinct set of at least two years.
        grid = sorted(set(m.incidence))[:-1]
        report = threshold_sensitivity(m, SweepSpec("threshold", FactorSelection.all_of(m), cfg, grid))
        assert all(row.status == "ok" for row in report.rows)
        assert len(calls) == len(grid) >= 100
        assert 0 < held_lane_bytes(m._passes) == m._passes.nbytes <= 8 * m.n_years * (m.n_factors + 1)

    def test_threads_sharing_one_matrix_keep_its_memo_exact(self):
        # More threads than cores, started together with a short switch interval,
        # race to make the same passes. One factor of twenty keeps every pass of the
        # sweep in the memo, so a lost update of its running total, or a pass two
        # threads both store, leaves the total unequal to the lanes it holds.
        m, _ = generate(PlantSpec(seed=5, n_years=160, n_factors=20))
        cfg = BacktestConfig(rule=QuorumRule(0.75), threshold=CriticalThreshold(10.0))
        spec = SweepSpec("threshold", FactorSelection(("f01",)), cfg, sorted(set(m.incidence))[:-1])
        expected = threshold_sensitivity(copy.copy(m), spec)
        workers = (os.cpu_count() or 1) + 2
        start, reports = threading.Barrier(workers), []

        def sweep():
            start.wait(timeout=60)
            reports.append(threshold_sensitivity(m, spec))

        threads = [threading.Thread(target=sweep) for _ in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert reports == [expected] * workers
        assert len(m._passes) == len(spec.grid)
        assert held_lane_bytes(m._passes) == m._passes.nbytes <= 8 * m.n_years * (m.n_factors + 1)


class TestDeterminism:
    def test_reports_are_reproducible(self):
        spec = spec_for("quorum", grid=(0.5, 0.75, 1.0))
        first = quorum_sweep(THREE_FACTOR, LABELS, spec)
        second = quorum_sweep(THREE_FACTOR, LABELS, spec)
        assert first == second

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(
                axis="bogus",
                selection=FactorSelection.all_of(THREE_FACTOR),
                config=IN_SAMPLE,
                grid=(1,),
            )
        with pytest.raises(ValueError):
            SweepSpec(
                axis="quorum",
                selection=FactorSelection.all_of(THREE_FACTOR),
                config=IN_SAMPLE,
                grid=None,
            )
