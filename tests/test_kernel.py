"""The membership kernel against one independent plain-loop rule reference.

Every backtest mode and every sweep axis reads ``membership_lanes``; these
property tests compare the kernel (read back into one bitmask per row by
``_support.lanes_to_masks``), each backtest mode and each sweep axis with
``_reference_rule``, which imports nothing from the package and
recomputes every row's envelope from scratch over the rows that train it.
Factor values come from the half-unit ``VALUE_GRID``, so many values sit
exactly on an envelope edge.
"""

import ast
import copy
import json
import math
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factorcast import (
    BacktestConfig,
    CriticalThreshold,
    FactorSelection,
    QuorumRule,
    label_critical,
    parse_matrix,
    rolling_backtest,
)
from factorcast.cli import main
from factorcast.backtest import EVAL_MODES, evaluation_lanes
from factorcast.errors import LabelMismatch, TooManyFactors
from factorcast.matrix import CriticalLabels, TemporalMatrix, format_number
from factorcast.recognizer import (
    FactorInterval,
    IntervalProfile,
    build_profile,
    membership_lanes,
)
from factorcast.sweeps import (
    SweepSpec,
    lag_sweep,
    quorum_sweep,
    row_length_sweep,
    subset_sweep,
    threshold_sensitivity,
)
from factorcast.synth import PlantSpec, generate

import _reference_rule as ref
from _support import QUORUM_CHOICES, VALUE_GRID, lagged_matrix, lanes_to_masks

EPS_CHOICES = (0.0, 0.0, 0.1, 0.25, 0.5, 1.0)


def membership_masks(*args, **kwargs):
    """The kernel's lanes as one bitmask per row (bit j: factor j), None where unscored."""
    return lanes_to_masks(membership_lanes(*args, **kwargs))


@st.composite
def matrices(draw, n_min=1, n_max=14, f_min=1, f_max=4):
    n = draw(st.integers(n_min, n_max))
    f = draw(st.integers(f_min, f_max))
    incidence = draw(st.lists(st.integers(0, 12).map(float), min_size=n, max_size=n))
    names = tuple(f"g{j}" for j in range(1, f + 1))
    columns = {
        name: tuple(draw(st.lists(st.sampled_from(VALUE_GRID), min_size=n, max_size=n)))
        for name in names
    }
    return TemporalMatrix(tuple(range(2000, 2000 + n)), tuple(incidence), names, columns)


@st.composite
def configurations(draw, mode=None, f_min=1, f_max=4):
    """A matrix, labels, a selection and a backtest configuration.

    The threshold is an observed incidence (often the maximum, so one
    critical year) or lies above every one (zero critical years). Sometimes
    the labels' flags differ from the threshold's, which tells apart the
    rolling training labels (from the threshold) and the truth (from the
    flags).
    """
    m = draw(matrices(f_min=f_min, f_max=f_max))
    top = max(m.incidence)
    value = draw(st.sampled_from((top, top, top + 1.0, *sorted(set(m.incidence)))))
    labels = label_critical(m, CriticalThreshold(value))
    if draw(st.integers(0, 4)) == 0:
        flags = draw(st.lists(st.booleans(), min_size=m.n_years, max_size=m.n_years))
        labels = CriticalLabels(m.years, tuple(flags), labels.threshold)
    order = draw(st.permutations(m.factor_names))
    selection = FactorSelection(tuple(order[: draw(st.integers(1, len(order)))]))
    cfg = BacktestConfig(
        rule=QuorumRule(draw(st.sampled_from(QUORUM_CHOICES))),
        threshold=labels.threshold,
        min_train_years=draw(st.integers(3, max(3, m.n_years))),
        min_train_critical=draw(st.integers(2, 4)),
        eval_mode=mode or draw(st.sampled_from(EVAL_MODES)),
        widen_eps=draw(st.sampled_from(EPS_CHOICES)),
    )
    return m, labels, selection, cfg


def verdict_tuples(result):
    return [(v.year, v.prediction, v.membership, v.truth) for v in result.verdicts]


def counts(result):
    return (result.x, result.y, result.p, result.n_no_forecast)


def row_counts(row):
    return (row.x, row.y, row.p, row.n_no_forecast)


def reference_backtest(m, labels, selection, cfg):
    """``_reference_rule.backtest`` of one configuration, read into plain lists."""
    return ref.backtest(
        list(m.years),
        list(m.incidence),
        list(labels.is_critical),
        cfg.threshold.value,
        [list(m.factor_values(name)) for name in selection.names],
        cfg.rule.q,
        cfg.eval_mode,
        cfg.min_train_years,
        cfg.min_train_critical,
        cfg.widen_eps,
    )


def assert_same_backtest(m, labels, selection, cfg):
    fast = rolling_backtest(m, labels, selection, cfg)
    assert (verdict_tuples(fast), counts(fast)) == reference_backtest(m, labels, selection, cfg)


@pytest.mark.parametrize("mode", EVAL_MODES)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_backtest_matches_reference(mode, data):
    assert_same_backtest(*data.draw(configurations(mode)))


@pytest.mark.parametrize("mode", EVAL_MODES)
@pytest.mark.parametrize("n_critical", (0, 1))
def test_zero_or_one_critical_year_matches_reference(mode, n_critical):
    incidence = (1.0, 2.0, 9.0 if n_critical else 1.0, 3.0, 2.0, 1.0)
    m = TemporalMatrix(
        tuple(range(2000, 2006)),
        incidence,
        ("a", "b"),
        {"a": (0.5, 1.0, 1.0, 1.5, 1.0, 0.0), "b": (2.0, 2.5, 3.0, 3.0, 2.5, 3.5)},
    )
    threshold = CriticalThreshold(9.0)
    labels = label_critical(m, threshold)
    assert labels.n_critical == n_critical
    for eps in (0.0, 0.5):
        cfg = BacktestConfig(
            QuorumRule(0.5), threshold, min_train_years=3, eval_mode=mode, widen_eps=eps
        )
        assert_same_backtest(m, labels, FactorSelection(("a", "b")), cfg)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_subset_sweep_rows_match_one_reference_backtest_each(data):
    m, labels, selection, cfg = data.draw(configurations(f_max=6))
    report = subset_sweep(m, labels, SweepSpec("factor_subset", selection, cfg))
    assert len(report.rows) == (1 << selection.n_factors) - 1
    assert [row.configuration for row in report.rows] == enumerated_labels(selection.names)
    for row in report.rows:
        subset = FactorSelection(tuple(row.configuration.split("+")))
        assert row.status == "ok"
        assert row_counts(row) == reference_backtest(m, labels, subset, cfg)[1]


def enumerated_labels(names):
    """Labels of every non-empty subset: by size, then by the tuple of names in selection order."""
    subsets = [c for size in range(1, len(names) + 1) for c in combinations(names, size)]
    return ["+".join(c) for c in sorted(subsets, key=lambda c: (len(c), c))]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_explicit_subset_grid_with_reordered_and_overlapping_subsets(data):
    m, labels, selection, cfg = data.draw(configurations())
    a, b, *_ = data.draw(st.permutations(m.factor_names)) * 2
    assume(a != b)
    grid = ((b, a), (a,), (a, b), (b,))
    report = subset_sweep(m, labels, SweepSpec("factor_subset", selection, cfg, grid))
    assert [row.configuration for row in report.rows] == [f"{b}+{a}", a, f"{a}+{b}", b]
    for names, row in zip(grid, report.rows):
        assert row.status == "ok"
        assert row_counts(row) == reference_backtest(m, labels, FactorSelection(names), cfg)[1]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_explicit_subset_grid_whose_prefixes_are_absent_late_reordered_or_repeated(data):
    m, labels, selection, cfg = data.draw(configurations(f_min=3))
    a, b, c, *_ = data.draw(st.permutations(m.factor_names))
    # Each subset's prefix (all but its last factor) is missing, comes later or
    # sits just before it: the cases a scorer that reuses a prefix's lane sum
    # must tell apart. An explicit grid sums each subset's own lanes.
    grid = (
        (a, c),  # prefix a absent
        (a, b, c),  # prefix a+b comes later
        (a, b),  # smaller than the subset before
        (b,),
        (a,),
        (a, b),  # prefix a just before, its tail b before that
        (c, a),  # prefix c absent, a+c reordered
        (c, a, b),  # prefix c+a just before, its tail a+b earlier
        (c, a, b),  # repeated
        (b, c, a),  # prefix b+c absent
    )
    report = subset_sweep(m, labels, SweepSpec("factor_subset", selection, cfg, grid))
    assert [row.configuration for row in report.rows] == ["+".join(names) for names in grid]
    for names, row in zip(grid, report.rows):
        assert row.status == "ok"
        assert row_counts(row) == reference_backtest(m, labels, FactorSelection(names), cfg)[1]


def test_all_subsets_of_twelve_factors_match_reference_mask_counts(tmp_path, capsys):
    """``sweep --grid all`` over 4,095 subsets, each scored from ``_reference_rule.masks``."""
    data = tmp_path / "wide.csv"
    synth = ["synth", "--seed", "12", "--years", "40", "--factors", "12", "--noise", "0.1"]
    assert main([*synth, "--adversarial", "2", "--output", str(data)]) == 0
    names = [f"f{j:02d}" for j in range(12, 0, -1)]  # reversed: labels keep this order
    argv = ["sweep", "--input", str(data), "--threshold", "10", "--quorum", "0.6"]
    argv += ["--factors", ",".join(names), "--mode", "rolling", "--widen-eps", "0.5"]
    capsys.readouterr()
    assert main([*argv, "--axis", "factor_subset", "--grid", "all", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["result"]["rows"]
    m = parse_matrix(data.read_text(encoding="utf-8"))
    critical = [v >= 10.0 for v in m.incidence]
    columns = [m.factor_values(name) for name in names]
    masks = ref.masks(columns, critical, "rolling", 0.5, 5, 2)
    assert len({mask for mask in masks if mask is not None}) > 10
    assert [row["configuration"] for row in rows] == enumerated_labels(names)
    for row in rows:
        bits = sum(1 << names.index(name) for name in row["configuration"].split("+"))
        required = math.ceil(0.6 * bin(bits).count("1"))
        hits = [
            bin(mask & bits).count("1") >= required if mask is not None else None
            for mask in masks
        ]
        x = sum(1 for hit, truth in zip(hits, critical[5:]) if hit and truth)
        y = sum(1 for hit, truth in zip(hits, critical[5:]) if hit and not truth)
        assert (row["x"], row["y"], row["n_no_forecast"]) == (x, y, hits.count(None))


def test_all_subsets_at_the_sixteen_factor_bound():
    """65,535 rows in ``enumerated_labels`` order; a seeded sample equals the reference.

    One factor more raises ``TooManyFactors``, before labels built for other
    years could raise ``LabelMismatch``.
    """
    m, _ = generate(PlantSpec(n_years=30, n_factors=17, seed=16, noise_prob=0.1, n_adversarial=3))
    threshold = CriticalThreshold(10.0)
    labels = label_critical(m, threshold)
    cfg = BacktestConfig(QuorumRule(0.6), threshold, 5, 2, "rolling", 0.5)
    names = list(m.factor_names[:16])
    random.Random(16).shuffle(names)
    selection = FactorSelection(names)
    report = subset_sweep(m, labels, SweepSpec("factor_subset", selection, cfg))
    assert len(report.rows) == 65_535
    assert [row.configuration for row in report.rows] == enumerated_labels(selection.names)
    for row in random.Random(17).sample(report.rows, 60):
        subset = FactorSelection(tuple(row.configuration.split("+")))
        assert row.status == "ok"
        assert row_counts(row) == reference_backtest(m, labels, subset, cfg)[1]

    other = label_critical(generate(PlantSpec(n_years=31, n_factors=1, seed=16))[0], threshold)
    with pytest.raises(TooManyFactors):
        subset_sweep(m, other, SweepSpec("factor_subset", FactorSelection.all_of(m), cfg))
    with pytest.raises(LabelMismatch):
        subset_sweep(m, other, SweepSpec("factor_subset", selection, cfg))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_quorum_sweep_rows_match_one_reference_backtest_each(data):
    m, labels, selection, cfg = data.draw(configurations())
    grid = tuple(sorted(data.draw(st.sets(st.sampled_from(QUORUM_CHOICES), min_size=1))))
    report = quorum_sweep(m, labels, SweepSpec("quorum", selection, cfg, grid))
    for q, row in zip(grid, report.rows):
        cfg_q = BacktestConfig(
            QuorumRule(q),
            cfg.threshold,
            cfg.min_train_years,
            cfg.min_train_critical,
            cfg.eval_mode,
            cfg.widen_eps,
        )
        assert row_counts(row) == reference_backtest(m, labels, selection, cfg_q)[1]


def expected_row(m, labels, selection, cfg):
    """Status, counts and note of one data-changing grid point, from the reference.

    A point is skipped when it has too few critical years, or else when a
    rolling replay of it has no forecast origin.
    """
    if labels.n_critical < cfg.min_train_critical:
        note = f"{labels.n_critical} critical years, {cfg.min_train_critical} required"
    elif cfg.eval_mode == "rolling" and m.n_years <= cfg.min_train_years:
        note = f"{m.n_years} years, {cfg.min_train_years + 1} required"
    else:
        return "ok", reference_backtest(m, labels, selection, cfg)[1], ""
    return "skipped", (None, None, None, None), note


def assert_rows(report, expected):
    assert [(row.status, row_counts(row), row.note) for row in report.rows] == expected


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_data_changing_sweeps_match_reference(data):
    """The threshold axis relabels the series; lags and windows keep the drawn flags.

    One draw in five flags years by hand, so the truth and the other modes'
    training rows of a lag or a window can differ from its incidence labeling.
    """
    m, labels, selection, cfg = data.draw(configurations())
    if data.draw(st.booleans()):
        # A rolling sweep whose training span nears n: some lags and windows leave no origin.
        cfg = BacktestConfig(
            cfg.rule,
            cfg.threshold,
            max(3, m.n_years - data.draw(st.integers(0, 2))),
            cfg.min_train_critical,
            "rolling",
            cfg.widen_eps,
        )

    # Observed values, midpoints, a value below all and several above: grid points
    # that share a labeling come in any order, repeat, and include 0.0 beside -0.0.
    observed = sorted(set(m.incidence))
    midpoints = [(lo + hi) / 2 for lo, hi in zip(observed, observed[1:])]
    top = observed[-1]
    points = [*observed, *midpoints, observed[0] - 1.0, top + 0.5, top + 1.0, top + 7.0]
    repeats = data.draw(st.lists(st.sampled_from(points), max_size=4))
    grid = (*data.draw(st.permutations(points)), 0.0, -0.0, *repeats)
    report = threshold_sensitivity(m, SweepSpec("threshold", selection, cfg, grid))
    expected = []
    for value in grid:
        relabeled = label_critical(m, CriticalThreshold(value, "selected"))
        cfg_t = BacktestConfig(
            cfg.rule,
            relabeled.threshold,
            cfg.min_train_years,
            cfg.min_train_critical,
            cfg.eval_mode,
            cfg.widen_eps,
        )
        expected.append(expected_row(m, relabeled, selection, cfg_t))
    assert [row.configuration for row in report.rows] == [format_number(v) for v in grid]
    assert_rows(report, expected)

    # Lags and windows come in any order and repeat.
    lags = tuple(data.draw(st.lists(st.integers(0, m.n_years - 1), min_size=1, max_size=6)))
    report = lag_sweep(m, labels, SweepSpec("lag", selection, cfg, lags))
    expected = []
    for lag in lags:
        lagged = lagged_matrix(m, selection.names, lag)
        lagged_labels = CriticalLabels(lagged.years, labels.is_critical[lag:], labels.threshold)
        expected.append(expected_row(lagged, lagged_labels, selection, cfg))
    assert [row.configuration for row in report.rows] == list(map(str, lags))
    assert_rows(report, expected)

    lengths = range(cfg.min_train_years, m.n_years + 2)
    if not lengths:
        return
    repeats = data.draw(st.lists(st.sampled_from(lengths), max_size=4))
    lengths = (*data.draw(st.permutations(lengths)), *repeats)
    report = row_length_sweep(m, labels, SweepSpec("row_length", selection, cfg, lengths))
    expected = []
    for k in lengths:
        if k > m.n_years:
            note = f"window exceeds {m.n_years}-year series"
            expected.append(("skipped", (None, None, None, None), note))
            continue
        window = m.window(m.n_years - k, m.n_years)
        window_labels = CriticalLabels(
            window.years, labels.is_critical[m.n_years - k :], labels.threshold
        )
        expected.append(expected_row(window, window_labels, selection, cfg))
    assert [row.configuration for row in report.rows] == list(map(str, lengths))
    assert_rows(report, expected)


def window_masks(m, names, flags, value, cfg, lag):
    """``evaluation_lanes`` read back into one bitmask per row, and the truth of the rows."""
    lanes, truth = evaluation_lanes(m, names, flags, value, cfg, lag)
    return lanes_to_masks(lanes), list(truth)


def reference_window_masks(m, names, flags, value, cfg, lag):
    """``window_masks`` from ``_reference_rule.masks`` over the window's plain lists."""
    n = m.n_years
    flags = list(flags)[lag - n :]
    k = len(flags)
    columns = [list(m.factor_values(name))[n - lag - k : n - lag] for name in names]
    if cfg.eval_mode == "rolling" and value is not None:
        critical = [v >= value for v in m.incidence[n - k :]]
    else:
        critical = flags
    masks = ref.masks(
        columns,
        critical,
        cfg.eval_mode,
        cfg.widen_eps,
        cfg.min_train_years,
        cfg.min_train_critical,
    )
    return masks, flags[k - len(masks) :]


def replaced(cfg, **changes):
    """``cfg`` with the fields named in ``changes`` replaced."""
    return BacktestConfig(**{**{name: getattr(cfg, name) for name in cfg.__slots__}, **changes})


@pytest.mark.parametrize("mode", EVAL_MODES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pass_memo_key_tells_apart_every_window_the_kernel_reads(mode, data):
    """A base window, then variants that each change one field of the pass memo's key.

    All run on one matrix after the base, so a key that left a field out would
    hand a variant another window's lanes. Each result must equal the same
    call on a copy, whose memo starts empty, and the reference. The training
    rows change through flags that differ from the threshold's labeling, with
    and without the threshold; ``widen_eps`` -0.0 equals 0.0 and shares its pass.
    The window leaves rolling rows to score, so the training minimums matter.
    """
    m = data.draw(matrices(n_min=4, f_min=2))
    n = m.n_years
    value = data.draw(st.sampled_from(sorted(set(m.incidence))))
    flags = label_critical(m, CriticalThreshold(value)).is_critical
    if data.draw(st.integers(0, 4)) == 0:
        flags = tuple(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    k = data.draw(st.integers(2, n - 1))
    lag = data.draw(st.integers(0, n - 1 - k))  # lag + 1 leaves the same k rows
    flags = flags[n - k :]
    flipped = list(flags)
    flipped[data.draw(st.integers(0, k - 1))] ^= True
    names = tuple(data.draw(st.permutations(m.factor_names)))
    cfg = BacktestConfig(
        rule=QuorumRule(1.0),
        threshold=CriticalThreshold(value),
        min_train_years=data.draw(st.integers(3, max(3, k - 1))),
        min_train_critical=data.draw(st.integers(2, 3)),
        eval_mode=mode,
        widen_eps=data.draw(st.sampled_from(EPS_CHOICES)),
    )
    base = (names, flags, value, cfg, lag)
    variants = [
        (names[::-1], flags, value, cfg, lag),
        (names, flags, value, cfg, lag + 1),
        (names, flags[1:], value, cfg, lag),
        (names, flipped, value, cfg, lag),
        (names, flipped, None, cfg, lag),
        *((names, flags, value, replaced(cfg, eval_mode=other), lag) for other in EVAL_MODES),
        *((names, flags, value, replaced(cfg, widen_eps=eps), lag) for eps in (0.0, -0.0, 0.5)),
        (names, flags, value, replaced(cfg, min_train_years=cfg.min_train_years + 1), lag),
        (names, flags, value, replaced(cfg, min_train_critical=cfg.min_train_critical + 1), lag),
    ]
    for args in (base, *variants, base):
        got = window_masks(m, *args)
        assert got == window_masks(copy.copy(m), *args) == reference_window_masks(m, *args)


@st.composite
def profiles_and_columns(draw, n_min=0, n_max=12, f_max=16):
    """A profile of up to ``f_max`` intervals with grid edges, and grid-valued columns."""
    f = draw(st.integers(1, f_max))
    intervals = []
    for j in range(f):
        lo, hi = sorted(draw(st.lists(st.sampled_from(VALUE_GRID), min_size=2, max_size=2)))
        intervals.append(FactorInterval(f"g{j}", lo, hi, draw(st.sampled_from(EPS_CHOICES))))
    n = draw(st.integers(n_min, n_max))
    columns = [
        tuple(draw(st.lists(st.sampled_from(VALUE_GRID), min_size=n, max_size=n)))
        for _ in range(f)
    ]
    return IntervalProfile(tuple(intervals), 1), columns


def per_cell_masks(profile, columns):
    """The profile path spelled out: one ``lo - eps <= v <= hi + eps`` test per cell."""
    n = len(columns[0])
    masks = []
    for i in range(n):
        mask = 0
        for j, interval in enumerate(profile.intervals):
            eps = interval.widen_eps
            if interval.lo - eps <= columns[j][i] <= interval.hi + eps:
                mask += 2**j
        masks.append(mask)
    return masks


@settings(max_examples=300, deadline=None)
@given(case=profiles_and_columns())
def test_profile_masks_match_per_cell_contains(case):
    profile, columns = case
    assert membership_masks(columns, profile=profile) == per_cell_masks(profile, columns)


@pytest.mark.parametrize("n", (0, 1, 5))
def test_profile_masks_with_sixteen_factors(n):
    # Every envelope is [0, 1] widened by 0.5, so -0.5 and 1.5 sit on its edges.
    profile = IntervalProfile(tuple(FactorInterval(f"g{j}", 0.0, 1.0, 0.5) for j in range(16)), 1)
    values = (-0.5, 1.5, 2.0, -1.0, 0.5)[:n]
    columns = [values] * 15 + [tuple(reversed(values))]
    masks = membership_masks(columns, profile=profile)
    assert masks == per_cell_masks(profile, columns)
    assert len(masks) == n


def test_kernel_bits_name_the_factors_inside():
    columns = [(0.0, 1.0, 2.0, 3.0), (5.0, 5.0, 9.0, 5.0)]
    critical = (True, False, True, False)
    # Envelopes over the critical rows: [0, 2] and [5, 9].
    assert membership_masks(columns, critical) == [0b11, 0b11, 0b11, 0b10]
    # Held out, row 0 sees [2, 2] and [9, 9]; row 2 sees [0, 0] and [5, 5].
    assert membership_masks(columns, critical, "leave_one_out") == [0b00, 0b11, 0b00, 0b10]
    # Rows 1 and 2 see row 0 alone, [0, 0] and [5, 5]; row 3 sees [0, 2] and [5, 9].
    assert membership_masks(columns, critical, "rolling") == [None, 0b10, 0b00, 0b10]
    assert membership_masks(columns, critical, "rolling", start=2, widen_eps=2.0) == [
        0b01,
        0b11,
    ]
    assert membership_masks(columns, (False,) * 4, "in_sample") == [None] * 4


@st.composite
def kernel_cases(draw, f_max=20, n_max=40, values=(*VALUE_GRID, -0.0), eps_choices=EPS_CHOICES):
    """Kernel arguments, including some no ``BacktestConfig`` reaches.

    Rows hold zero, one, two or any number of critical rows, and a factor
    often repeats a critical row's value at another critical row, which can
    tie its two smallest or two largest critical values. ``-0.0`` joins the grid to
    tie with ``0.0``. ``min_critical`` runs from 0 and ``start`` past the end.
    """
    f = draw(st.integers(1, f_max))
    n = draw(st.integers(0, n_max))
    grid = st.sampled_from(values)
    columns = [draw(st.lists(grid, min_size=n, max_size=n)) for _ in range(f)]
    n_critical = draw(st.sampled_from((0, 1, 2, None)))
    if n_critical is None:
        critical = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        size = min(n, n_critical)
        rows = draw(st.sets(st.integers(0, max(n - 1, 0)), min_size=size, max_size=size))
        critical = [i in rows for i in range(n)]
    rows = [i for i, c in enumerate(critical) if c]
    if len(rows) >= 2:
        for col in columns:
            if draw(st.booleans()):
                a, b = draw(st.lists(st.sampled_from(rows), min_size=2, max_size=2))
                col[b] = col[a]
    kwargs = {
        "widen_eps": draw(st.sampled_from(eps_choices)),
        "start": draw(st.integers(0, n + 2)),
        "min_critical": draw(st.integers(0, 3)),
    }
    return [tuple(col) for col in columns], tuple(critical), kwargs


@pytest.mark.parametrize("mode", EVAL_MODES)
@settings(max_examples=400, deadline=None)
@given(case=kernel_cases())
def test_kernel_matches_reference(mode, case):
    columns, critical, kwargs = case
    assert membership_masks(columns, critical, mode, **kwargs) == ref.masks(
        columns, critical, mode, **kwargs
    )


@settings(max_examples=300, deadline=None)
@given(case=kernel_cases(), min_critical=st.integers(0, 5))
def test_rolling_kernel_on_a_list_of_flags_matches_reference(case, min_critical):
    """``critical`` as the list ``evaluation_lanes`` passes, often with too few critical rows."""
    columns, critical, kwargs = case
    kwargs["min_critical"] = min_critical
    critical = list(critical)
    assert membership_masks(columns, critical, "rolling", **kwargs) == ref.masks(
        columns, critical, "rolling", **kwargs
    )


# Around 2**52, 2**53 and 2**54 floats lie 0.5 to 4 apart, so ``v - eps`` and
# ``v + eps`` round (often onto v itself) for eps in {0.5, 1, 2}: an edge kept as a
# raw extreme must widen to exactly the reference's ``min - eps`` and ``max + eps``.
ROUNDING_VALUES = tuple(float(2**e + d) for e in (52, 53, 54) for d in (-3, -2, -1, 0, 1, 2, 4, 8))


@pytest.mark.parametrize("mode", EVAL_MODES)
@settings(max_examples=200, deadline=None)
@given(case=kernel_cases(f_max=6, values=ROUNDING_VALUES, eps_choices=(0.5, 1.0, 2.0)))
def test_kernel_matches_reference_where_widening_rounds(mode, case):
    columns, critical, kwargs = case
    assert membership_masks(columns, critical, mode, **kwargs) == ref.masks(
        columns, critical, mode, **kwargs
    )


# The hypothesis strategies stop at 40 rows; these cases run the kernel at the
# benchmark's shapes: a backtest's n=140, F=12 and a saved profile's n=600, F=16.


@pytest.mark.parametrize("mode", EVAL_MODES)
@pytest.mark.parametrize("widen_eps", (0.0, 0.5))
def test_kernel_matches_reference_at_140_rows_and_12_factors(mode, widen_eps):
    m, _ = generate(PlantSpec(n_years=140, n_factors=12, noise_prob=0.1, n_adversarial=2, seed=7))
    critical = label_critical(m, CriticalThreshold(10.0)).is_critical
    assert 2 <= sum(critical) < m.n_years
    columns = [m.factor_values(name) for name in m.factor_names]
    kwargs = {"widen_eps": widen_eps, "start": 5, "min_critical": 2}
    masks = membership_masks(columns, critical, mode, **kwargs)
    assert masks == ref.masks(columns, critical, mode, **kwargs)
    # Neither all hits nor all misses: the case tells the bits apart.
    assert len({mask for mask in masks if mask is not None}) > 1


def test_profile_masks_match_per_cell_contains_at_600_rows_and_16_factors():
    m, _ = generate(PlantSpec(n_years=600, n_factors=16, noise_prob=0.1, n_adversarial=2, seed=5))
    labels = label_critical(m, CriticalThreshold(10.0))
    profile = build_profile(m, labels, FactorSelection.all_of(m), widen_eps=0.5)
    columns = [m.factor_values(name) for name in profile.factor_names]
    masks = membership_masks(columns, profile=profile)
    assert masks == per_cell_masks(profile, columns)
    assert len(set(masks)) > 1


# Lanes and the SWAR quorum step at their edges. A lane is 1 byte up to 127
# factors and 2 bytes from 128; the add that tests the quorum must neither miss
# a count equal to ``required`` nor carry out of a lane.


@pytest.mark.parametrize(
    "n_factors, width", [(1, 1), (127, 1), (128, 2), (130, 2), (32767, 2), (32768, 3)]
)
def test_lane_width_is_the_smallest_that_keeps_the_top_bit_free(n_factors, width):
    assert membership_lanes([()] * n_factors).width == width


@pytest.mark.parametrize("n_factors", (3, 127, 130))
def test_swar_flags_every_count_from_required_up(n_factors):
    # Row k lies inside exactly k of the [0, 0] envelopes; even rows are critical.
    profile = IntervalProfile(
        tuple(FactorInterval(f"g{j}", 0.0, 0.0) for j in range(n_factors)), 1
    )
    rows = range(n_factors + 1)
    columns = [tuple(0.0 if j < k else 1.0 for k in rows) for j in range(n_factors)]
    lanes = membership_lanes(columns, profile=profile)
    total = sum(lanes.factors)
    assert lanes.counts(total) == list(rows)
    truth = [k % 2 == 0 for k in rows]
    score = lanes.scorer(truth)  # builds each required's bias once, then reuses it
    required_values = sorted({1, 2, n_factors // 2, n_factors - 1, n_factors} - {0})
    for required in required_values + required_values[::-1]:
        x = sum(1 for k in rows if k >= required and truth[k])
        y = sum(1 for k in rows if k >= required and not truth[k])
        assert score(total, required) == (x, y, 0)


def test_rolling_prefix_without_envelope_is_unscored():
    # From row 1 on, rows 1 to 3 have fewer than two critical rows before them.
    columns = [(1.0, 1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0, 9.0)]
    critical = (False, True, False, True, False)
    lanes = membership_lanes(columns, critical, "rolling", start=1, min_critical=2)
    assert lanes_to_masks(lanes) == [None, None, None, 0b01]
    assert lanes.scorer((True,) * 4)(sum(lanes.factors), 1) == (1, 0, 3)


def test_lone_held_out_row_is_unscored_though_its_in_sample_lanes_hit():
    columns = [(1.0, 1.0, 2.0), (3.0, 3.0, 3.0)]
    critical = (True, False, False)
    lanes = membership_lanes(columns, critical, "leave_one_out")
    assert lanes_to_masks(lanes) == [None, 0b11, 0b10]
    assert sum(lanes.factors) & 0xFF == 2  # the held-out row's lanes still hold both hits
    assert lanes.scorer(critical)(sum(lanes.factors), 1) == (0, 2, 1)


def test_in_sample_without_critical_rows_scores_nothing():
    lanes = membership_lanes([(1.0, 2.0), (0.5, 0.5)], (False, False))
    assert lanes_to_masks(lanes) == [None, None]
    assert lanes.scorer((True, False))(sum(lanes.factors), 1) == (0, 0, 2)


WIDE_CRITICAL = (True, True, False, True, False, False, True, False, False, True, False, False)
# Each non-critical row's number of factors whose value 2.0 lies outside every envelope.
WIDE_MISSES = {2: 0, 4: 1, 5: 65, 7: 129, 8: 130, 10: 66, 11: 128}


def wide_matrix(n_factors=130):
    """130 factors whose envelopes are [0, 1] once rows 0 and 1 train them.

    Later critical rows repeat 0, 0.5 or 1, so a held-out edge sometimes
    moves and sometimes ties; a non-critical row hits ``130 - misses``.
    """
    rng = random.Random(130)
    names = tuple(f"g{j:03d}" for j in range(n_factors))
    columns = {}
    for j, name in enumerate(names):
        col = [0.0, 1.0]
        for row in range(2, len(WIDE_CRITICAL)):
            if WIDE_CRITICAL[row]:
                col.append(rng.choice((0.0, 0.5, 1.0)))
            else:
                col.append(2.0 if j < WIDE_MISSES[row] else 0.5)
        columns[name] = tuple(col)
    incidence = tuple(12.0 if c else 3.0 for c in WIDE_CRITICAL)
    return TemporalMatrix(tuple(range(2000, 2000 + len(incidence))), incidence, names, columns)


@pytest.mark.parametrize("mode", EVAL_MODES)
@pytest.mark.parametrize("widen_eps", (0.0, 0.5))
def test_kernel_with_two_byte_lanes_matches_reference(mode, widen_eps):
    m = wide_matrix()
    columns = [m.factor_values(name) for name in m.factor_names]
    kwargs = {"widen_eps": widen_eps, "start": 1, "min_critical": 1}
    lanes = membership_lanes(columns, WIDE_CRITICAL, mode, **kwargs)
    assert lanes.width == 2
    assert lanes_to_masks(lanes) == ref.masks(columns, WIDE_CRITICAL, mode, **kwargs)


@pytest.mark.parametrize("mode", EVAL_MODES)
@pytest.mark.parametrize("q", (0.005, 0.5, 1.0))  # requires 1, 65 and 130 of 130
def test_backtest_with_two_byte_lanes_matches_reference(mode, q):
    m = wide_matrix()
    threshold = CriticalThreshold(10.0)
    labels = label_critical(m, threshold)
    cfg = BacktestConfig(QuorumRule(q), threshold, min_train_years=3, eval_mode=mode)
    result = rolling_backtest(m, labels, FactorSelection.all_of(m), cfg)
    required = cfg.rule.required(m.n_factors)
    # Some year's count equals required, and another's falls one short.
    assert {required, required - 1} <= {v.membership for v in result.verdicts}
    assert_same_backtest(m, labels, FactorSelection.all_of(m), cfg)


def test_reference_imports_nothing_from_the_package():
    source = Path(ref.__file__).read_text(encoding="utf-8")
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported, "the guard found no import at all"
    assert not [name for name in imported if name.split(".")[0] == "factorcast"]
