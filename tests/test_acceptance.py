"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines. Every tolerance is pinned here; the randomized checks use fixed seeds
and are fully deterministic.
"""

import random
import time
from fractions import Fraction

from factorcast import (
    BacktestConfig,
    CriticalThreshold,
    FactorSelection,
    QuorumRule,
    build_profile,
    evaluate_insample,
    label_critical,
    parse_matrix,
    rolling_backtest,
)
from factorcast.cli import main
from factorcast.matrix import TemporalMatrix
from factorcast.sweeps import SweepSpec, lag_sweep, subset_sweep
from factorcast.synth import PlantSpec, generate, oracle_evaluate

from _support import (
    FIXTURES,
    GOLDEN,
    GOLDEN_CASES,
    random_instance,
    run_cli_to_file,
    setup_cli_workdir,
)


def report(line: str) -> None:
    print(f"[PASS] {line}")


def test_c01_oracle_equivalence_on_random_instances():
    rng = random.Random(20011)
    start = time.perf_counter()
    checked = 0
    while checked < 1000:
        m, labels, selection, rule = random_instance(rng, n_max=12, f_max=4)
        profile = build_profile(m, labels, selection)
        fast = evaluate_insample(m, labels, profile, rule)
        brute = oracle_evaluate(m, labels, selection, rule)
        assert fast.x == brute.x and fast.y == brute.y
        assert fast.flagged_years == brute.flagged_years
        assert fast.per_year_membership == brute.per_year_membership
        if fast.x + fast.y > 0:
            assert Fraction(fast.x, fast.x + fast.y) == Fraction(brute.x, brute.x + brute.y)
            assert fast.p == brute.p
        else:
            assert fast.p is None and brute.p is None
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(f"criterion 1: evaluate == oracle on {checked} random instances ({elapsed:.2f}s)")


def test_c02_worked_example_via_both_paths():
    m = parse_matrix((FIXTURES / "worked_example.csv").read_text(encoding="utf-8"))
    labels = label_critical(m, CriticalThreshold(8.0))
    selection = FactorSelection.all_of(m)
    rule = QuorumRule(1.0)
    fast = evaluate_insample(m, labels, build_profile(m, labels, selection), rule)
    brute = oracle_evaluate(m, labels, selection, rule)
    assert (fast.x, fast.y, fast.p) == (3, 1, 0.75)
    assert (brute.x, brute.y, brute.p) == (3, 1, 0.75)
    report("criterion 2: worked example gives x=3 y=1 p=0.75 via both paths")


def test_c03_in_sample_recall():
    rng = random.Random(20033)
    checked = 0
    for _ in range(1000):
        m, labels, selection, _ = random_instance(rng)
        profile = build_profile(m, labels, selection)
        critical_years = {y for y, c in zip(labels.years, labels.is_critical) if c}
        for q in (0.5, 0.75, 1.0):
            result = evaluate_insample(m, labels, profile, QuorumRule(q))
            assert critical_years <= set(result.flagged_years)
            assert result.x == labels.n_critical
        checked += 1
    report(f"criterion 3: all criticals flagged at q in {{0.5, 0.75, 1.0}} on {checked} instances")


def test_c04_quorum_monotonicity():
    rng = random.Random(20044)
    checked = 0
    for _ in range(1000):
        m, labels, selection, _ = random_instance(rng)
        profile = build_profile(m, labels, selection)
        qa = rng.choice([0.2, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0, rng.uniform(0.05, 1.0)])
        qb = rng.choice([0.2, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0, rng.uniform(0.05, 1.0)])
        q_low, q_high = sorted((qa, qb))
        loose = evaluate_insample(m, labels, profile, QuorumRule(q_low))
        strict = evaluate_insample(m, labels, profile, QuorumRule(q_high))
        assert set(strict.flagged_years) <= set(loose.flagged_years)
        checked += 1
    report(f"criterion 4: flagged(q') subset of flagged(q) for q <= q' on {checked} instances")


def test_c05_monotone_transform_invariance():
    rng = random.Random(20055)
    checked = 0
    transforms = (lambda v: 2.0 * v + 1.0, lambda v: v**3)
    for _ in range(500):
        m, labels, selection, rule = random_instance(rng)
        base = evaluate_insample(m, labels, build_profile(m, labels, selection), rule)
        for transform in transforms:
            name = rng.choice(selection.names)
            columns = dict(m.columns)
            columns[name] = tuple(transform(v) for v in columns[name])
            warped = TemporalMatrix(m.years, m.incidence, m.factor_names, columns)
            mapped = evaluate_insample(
                warped, labels, build_profile(warped, labels, selection), rule
            )
            assert mapped.flagged_years == base.flagged_years
            assert (mapped.x, mapped.y, mapped.p) == (base.x, base.y, base.p)
        checked += 1
    report(f"criterion 5: 2x+1 and x^3 leave flagged sets and p unchanged on {checked} instances")


def test_c06_planted_signal_recovery():
    start = time.perf_counter()

    clean_spec = PlantSpec(seed=0)  # 30 years x 8 factors, noise 0
    m, _ = generate(clean_spec)
    threshold = CriticalThreshold(clean_spec.incidence_threshold)
    labels = label_critical(m, threshold)
    cfg = BacktestConfig(rule=QuorumRule(0.75), threshold=threshold)
    clean = rolling_backtest(m, labels, FactorSelection.all_of(m), cfg)
    assert clean.x > 0 and clean.y == 0
    assert clean.p == 1.0

    noisy_spec = PlantSpec(seed=5, noise_prob=0.15)
    m, _ = generate(noisy_spec)
    labels = label_critical(m, CriticalThreshold(noisy_spec.incidence_threshold))
    noisy = rolling_backtest(m, labels, FactorSelection.all_of(m), cfg)
    assert noisy.p is not None
    assert noisy.p >= 0.5
    assert noisy.p == 0.75  # frozen for this seed

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(
        f"criterion 6: planted recovery p=1.0 clean, p={noisy.p} at noise 0.15 ({elapsed:.2f}s)"
    )


def test_c07_adding_a_factor_can_lower_precision():
    spec = PlantSpec(n_years=30, n_factors=3, n_adversarial=1, noise_prob=0.15, seed=0)
    m, _ = generate(spec)
    threshold = CriticalThreshold(spec.incidence_threshold)
    labels = label_critical(m, threshold)
    cfg = BacktestConfig(rule=QuorumRule(0.6), threshold=threshold, eval_mode="in_sample")
    report_rows = subset_sweep(
        m,
        labels,
        SweepSpec(
            axis="factor_subset",
            selection=FactorSelection.all_of(m),
            config=cfg,
            grid=(("f01", "f02"), ("f01", "f02", "f03")),
        ),
    ).rows
    informative, with_noise = report_rows
    assert with_noise.p < informative.p
    assert (informative.p, with_noise.p) == (0.75, 0.5625)  # frozen for this seed
    # cross-check both rows against the independent oracle
    rule = QuorumRule(0.6)
    for row, names in zip(report_rows, (("f01", "f02"), ("f01", "f02", "f03"))):
        brute = oracle_evaluate(m, labels, FactorSelection(names), rule)
        assert (row.x, row.y, row.p) == (brute.x, brute.y, brute.p)
    report(
        f"criterion 7: adding an uninformative factor lowers p "
        f"({informative.p} -> {with_noise.p}, strict)"
    )


def test_c08_lag_recovery():
    spec = PlantSpec(seed=0, lag_shift=1)
    m, _ = generate(spec)
    threshold = CriticalThreshold(spec.incidence_threshold)
    labels = label_critical(m, threshold)
    cfg = BacktestConfig(rule=QuorumRule(0.75), threshold=threshold, eval_mode="in_sample")
    rows = lag_sweep(
        m,
        labels,
        SweepSpec(
            axis="lag",
            selection=FactorSelection.all_of(m),
            config=cfg,
            grid=(0, 1),
        ),
    ).rows
    unlagged, lagged = rows
    assert lagged.p > unlagged.p
    assert lagged.p == 1.0
    report(f"criterion 8: p(lag=1)={lagged.p} > p(lag=0)={unlagged.p}, strict")


def test_c09_causality_of_rolling_forecasts():
    rng = random.Random(20099)
    checked = 0
    for _ in range(100):
        m, labels, selection, rule = random_instance(rng, n_min=8, n_max=12)
        cfg = BacktestConfig(rule=rule, threshold=labels.threshold, min_train_years=3)
        baseline = rolling_backtest(m, labels, selection, cfg)
        cut = rng.randint(4, m.n_years - 1)
        incidence = list(m.incidence)
        columns = {name: list(col) for name, col in m.columns.items()}
        for i in range(cut, m.n_years):
            incidence[i] = incidence[i] + float(rng.randint(1, 5))
            for name in columns:
                columns[name][i] = columns[name][i] + rng.choice([-50.0, 50.0, 100.0])
        mutated = TemporalMatrix(m.years, tuple(incidence), m.factor_names, columns)
        mutated_labels = label_critical(mutated, labels.threshold)
        rerun = rolling_backtest(mutated, mutated_labels, selection, cfg)
        cut_year = m.years[cut]
        assert [v for v in baseline.verdicts if v.year < cut_year] == [
            v for v in rerun.verdicts if v.year < cut_year
        ]
        checked += 1
    report(f"criterion 9: future-row mutations never change earlier verdicts ({checked} instances)")


def test_c10_cli_determinism_and_golden_files(tmp_path):
    workdir = setup_cli_workdir(tmp_path)
    for name, argv_for in GOLDEN_CASES:
        argv = argv_for(workdir)
        first = run_cli_to_file(argv, workdir / f"acc_first_{name}")
        second = run_cli_to_file(argv, workdir / f"acc_second_{name}")
        assert first == second, name
        assert first == (GOLDEN / name).read_bytes(), name
    assert (workdir / "profile.json").read_bytes() == (GOLDEN / "profile.json").read_bytes()
    out = workdir / "synthetic_small.csv"
    assert main(["synth", "--seed", "7", "--years", "10", "--factors", "3", "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "synth.csv").read_bytes()
    assert (workdir / "synthetic_small_truth.csv").read_bytes() == (
        GOLDEN / "synth_truth.csv"
    ).read_bytes()
    report(
        f"criterion 10: {len(GOLDEN_CASES) + 3} CLI outputs byte-identical across runs"
        " and matching committed goldens"
    )
