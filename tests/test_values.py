"""Contract of the sixteen value types.

Each type compares and hashes by its field values, shows them in its repr,
refuses attribute assignment and deletion, survives ``pickle`` and
``copy.copy``, and rejects invalid fields with one exception class and
message. Constructors take their fields by keyword and in field order, and
coerce sequences to tuples and numbers to their field's type.
"""

import copy
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from factorcast.backtest import BacktestConfig, BacktestResult, Verdict
from factorcast.errors import (
    DuplicateFactor,
    DuplicateYear,
    EmptySelection,
    InvalidQuorum,
    InvalidSpec,
    InvalidThreshold,
    MatrixError,
    NoFactors,
)
from factorcast.matrix import CriticalLabels, CriticalThreshold, FactorSelection, TemporalMatrix
from factorcast.recognizer import FactorInterval, IntervalProfile, QuorumRule, RecognitionResult
from factorcast.report import ReportDocument, ReportTable
from factorcast.sweeps import SweepReport, SweepRow, SweepSpec
from factorcast.synth import GroundTruth, PlantSpec

NAN = math.nan
INF = math.inf

THRESHOLD = CriticalThreshold(8.0)
INTERVAL = FactorInterval("a", 1.0, 2.0)
CONFIG = BacktestConfig(QuorumRule(0.75), THRESHOLD)
TABLE = ReportTable("t", ("year",), ((1990,),))

THRESHOLD_REPR = "CriticalThreshold(value=8.0, source='expert')"
INTERVAL_REPR = "FactorInterval(factor='a', lo=1.0, hi=2.0, widen_eps=0.0)"
CONFIG_REPR = (
    f"BacktestConfig(rule=QuorumRule(q=0.75), threshold={THRESHOLD_REPR}, min_train_years=5,"
    " min_train_critical=2, eval_mode='rolling', widen_eps=0.0, lag=0)"
)
TABLE_REPR = "ReportTable(title='t', columns=('year',), rows=((1990,),))"

# type: (fields in order, omitting trailing defaults; repr; hashable; one changed field).
CASES = {
    TemporalMatrix: (
        {
            "years": [1990, 1991],
            "incidence": [1, 2],
            "factor_names": ["a"],
            "columns": {"a": [0.5, 1]},
        },
        "TemporalMatrix(years=(1990, 1991), incidence=(1.0, 2.0), factor_names=('a',),"
        " columns=mappingproxy({'a': (0.5, 1.0)}))",
        False,
        ("incidence", [1, 3]),
    ),
    CriticalThreshold: (
        {"value": 8},
        THRESHOLD_REPR,
        True,
        ("value", 9),
    ),
    CriticalLabels: (
        {"years": [1990, 1991], "is_critical": [0, 1], "threshold": THRESHOLD},
        "CriticalLabels(years=(1990, 1991), is_critical=(False, True),"
        f" threshold={THRESHOLD_REPR})",
        True,
        ("is_critical", [1, 1]),
    ),
    FactorSelection: (
        {"names": ["a", "b"]},
        "FactorSelection(names=('a', 'b'))",
        True,
        ("names", ["b", "a"]),
    ),
    FactorInterval: (
        {"factor": "a", "lo": 1, "hi": 2},
        INTERVAL_REPR,
        True,
        ("hi", 3),
    ),
    IntervalProfile: (
        {"intervals": [INTERVAL], "n_critical_train": 3},
        f"IntervalProfile(intervals=({INTERVAL_REPR},), n_critical_train=3)",
        True,
        ("n_critical_train", 4),
    ),
    QuorumRule: (
        {"q": 1},
        "QuorumRule(q=1.0)",
        True,
        ("q", 0.5),
    ),
    BacktestConfig: (
        {"rule": QuorumRule(0.75), "threshold": THRESHOLD},
        CONFIG_REPR,
        True,
        ("eval_mode", "in_sample"),
    ),
    PlantSpec: (
        {"n_years": 12, "n_factors": 3},
        "PlantSpec(n_years=12, n_factors=3, seed=0, critical_fraction=0.3, noise_prob=0.0,"
        " lag_shift=0, regime_change_year=None, n_adversarial=0,"
        " incidence_threshold=10.0, start_year=1990)",
        True,
        ("seed", 1),
    ),
    SweepSpec: (
        {"axis": "quorum", "selection": FactorSelection(["a"]), "config": CONFIG, "grid": [0.5, 1]},
        f"SweepSpec(axis='quorum', selection=FactorSelection(names=('a',)), config={CONFIG_REPR},"
        " grid=(0.5, 1))",
        True,
        ("grid", [0.5]),
    ),
    RecognitionResult: (
        {"flagged_years": (1990,), "x": 1, "y": 0, "p": 1.0, "per_year_membership": {1990: 2}},
        "RecognitionResult(flagged_years=(1990,), x=1, y=0, p=1.0, per_year_membership={1990: 2})",
        False,
        ("y", 1),
    ),
    BacktestResult: (
        {
            "verdicts": (Verdict(1990, "critical", 2, True),),
            "x": 1,
            "y": 0,
            "p": 1.0,
            "n_no_forecast": 0,
        },
        "BacktestResult(verdicts=(Verdict(year=1990, prediction='critical', membership=2,"
        " truth=True),), x=1, y=0, p=1.0, n_no_forecast=0)",
        True,
        ("n_no_forecast", 1),
    ),
    SweepReport: (
        {"axis": "quorum", "rows": (SweepRow("q=0.5", "ok", 1, 0, 1.0, 0),)},
        "SweepReport(axis='quorum', rows=(SweepRow(configuration='q=0.5', status='ok', x=1,"
        " y=0, p=1.0, n_no_forecast=0, note=''),))",
        True,
        ("axis", "lag"),
    ),
    ReportTable: (
        {"title": "t", "columns": ("year",), "rows": ((1990,),)},
        TABLE_REPR,
        True,
        ("title", "u"),
    ),
    ReportDocument: (
        {"kind": "fit", "metadata": {"tool": "factorcast"}, "tables": (TABLE,), "result": {"x": 1}},
        f"ReportDocument(kind='fit', metadata={{'tool': 'factorcast'}}, tables=({TABLE_REPR},),"
        " result={'x': 1}, summary=None, plot_label=None)",
        False,
        ("kind", "sweep"),
    ),
    GroundTruth: (
        {"years": (1990,), "is_critical": (True,), "intervals": (INTERVAL,), "lag_shift": 0},
        f"GroundTruth(years=(1990,), is_critical=(True,), intervals=({INTERVAL_REPR},),"
        " lag_shift=0)",
        True,
        ("lag_shift", 1),
    ),
}

TYPES = pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)


def build(cls):
    return cls(**CASES[cls][0])


@TYPES
def test_keyword_and_positional_construction_are_equal(cls):
    fields = CASES[cls][0]
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and not a != b
    assert type(a) is cls


@TYPES
def test_changed_field_is_unequal(cls):
    fields, _, _, (name, value) = CASES[cls]
    assert build(cls) != cls(**{**fields, name: value})


@TYPES
def test_other_types_are_not_implemented(cls):
    v = build(cls)
    assert v.__eq__(object()) is NotImplemented
    assert v != object()


@TYPES
def test_hash_follows_equality(cls):
    hashable = CASES[cls][2]
    a, b = build(cls), build(cls)
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


@TYPES
def test_repr_lists_fields_in_order(cls):
    assert repr(build(cls)) == CASES[cls][1]


@TYPES
def test_fields_cannot_be_assigned_or_deleted(cls):
    v = build(cls)
    before = repr(v)
    for name in CASES[cls][0]:
        with pytest.raises(AttributeError):
            setattr(v, name, None)
        with pytest.raises(AttributeError):
            delattr(v, name)
    with pytest.raises(AttributeError):
        v.extra = 1
    assert repr(v) == before


@TYPES
def test_pickle_and_copy_round_trip(cls):
    v = build(cls)
    for twin in (
        pickle.loads(pickle.dumps(v)),
        copy.copy(v),
        copy.deepcopy(v),
    ):
        assert type(twin) is cls
        assert twin == v
        assert repr(twin) == repr(v)


def matrix(**fields):
    base = {
        "years": (1990, 1991),
        "incidence": (1.0, 2.0),
        "factor_names": ("a",),
        "columns": {"a": (0.5, 1.0)},
    }
    return TemporalMatrix(**{**base, **fields})


NOT_A_FLOAT = (
    "critical_fraction, noise_prob and incidence_threshold must be numbers that fit a float"
)

# (constructor, exception class, message); each line is one check, in the
# order the constructor makes them.
INVALID = [
    (lambda: matrix(years=(), incidence=(), columns={"a": ()}), MatrixError,
     "matrix must contain at least one year row"),
    (lambda: matrix(years=(1990, 1990)), DuplicateYear, "duplicate year 1990"),
    (lambda: matrix(years=(1991, 1990)), MatrixError, "years must be strictly increasing"),
    (lambda: matrix(factor_names=(), columns={}), NoFactors, "matrix has no factor columns"),
    (lambda: matrix(factor_names=("a", "a")), DuplicateFactor, "duplicate factor 'a'"),
    (lambda: matrix(columns={"b": (0.5, 1.0)}), MatrixError,
     "factor columns do not match factor names"),
    (lambda: matrix(incidence=(1.0,)), MatrixError,
     "incidence column length does not match years"),
    (lambda: matrix(incidence=(1.0, NAN)), MatrixError, "non-finite incidence for year 1991"),
    (lambda: matrix(incidence=(-1.0, 2.0)), MatrixError, "negative incidence for year 1990"),
    (lambda: matrix(columns={"a": (0.5,)}), MatrixError,
     "factor column 'a' length does not match years"),
    (lambda: matrix(columns={"a": (0.5, INF)}), MatrixError,
     "non-finite value for factor 'a', year 1991"),
    (lambda: CriticalThreshold(NAN), InvalidThreshold, "threshold must be finite, got nan"),
    (lambda: CriticalThreshold(-INF), InvalidThreshold, "threshold must be finite, got -inf"),
    (lambda: CriticalThreshold(8.0, "guess"), MatrixError,
     "threshold source must be 'expert' or 'selected', got 'guess'"),
    (lambda: CriticalLabels((1990, 1991), (True,), THRESHOLD), MatrixError,
     "labels length does not match years"),
    (lambda: FactorSelection(()), EmptySelection, "factor selection is empty"),
    (lambda: FactorSelection(("a", "b", "a")), DuplicateFactor, "duplicate factor 'a'"),
    (lambda: FactorInterval("a", NAN, 1.0), ValueError,
     "interval for 'a' has a non-finite bound or widening"),
    (lambda: FactorInterval("a", 0.0, 1.0, INF), ValueError,
     "interval for 'a' has a non-finite bound or widening"),
    (lambda: FactorInterval("a", 2.0, 1.0), ValueError, "interval for 'a' has lo > hi"),
    (lambda: FactorInterval("a", 0.0, 1.0, -0.5), ValueError, "widen_eps must be non-negative"),
    (lambda: IntervalProfile((), 1), ValueError, "profile must contain at least one interval"),
    (lambda: IntervalProfile((INTERVAL,), 0), ValueError,
     "profile must be trained on at least one critical year"),
    (lambda: IntervalProfile((INTERVAL, INTERVAL), 1), DuplicateFactor, "duplicate factor 'a'"),
    (lambda: QuorumRule(0), InvalidQuorum, "quorum must be a fraction in (0, 1], got 0.0"),
    (lambda: QuorumRule(1.5), InvalidQuorum, "quorum must be a fraction in (0, 1], got 1.5"),
    (lambda: QuorumRule(NAN), InvalidQuorum, "quorum must be a fraction in (0, 1], got nan"),
    (lambda: BacktestConfig(QuorumRule(1.0), THRESHOLD, 2), ValueError,
     "min_train_years must be at least 3"),
    (lambda: BacktestConfig(QuorumRule(1.0), THRESHOLD, 5, 1), ValueError,
     "min_train_critical must be at least 2"),
    (lambda: BacktestConfig(QuorumRule(1.0), THRESHOLD, 5.5), ValueError,
     "min_train_years must be an int, got 5.5"),
    (lambda: BacktestConfig(QuorumRule(1.0), THRESHOLD, 5, 2.5), ValueError,
     "min_train_critical must be an int, got 2.5"),
    (lambda: BacktestConfig(QuorumRule(1.0), THRESHOLD, eval_mode="future"), ValueError,
     "eval_mode must be one of ('rolling', 'leave_one_out', 'in_sample')"),
    (lambda: BacktestConfig(QuorumRule(1.0), THRESHOLD, widen_eps=-1.0), ValueError,
     "widen_eps must be finite and non-negative"),
    (lambda: BacktestConfig(QuorumRule(1.0), THRESHOLD, widen_eps=NAN), ValueError,
     "widen_eps must be finite and non-negative"),
    (lambda: BacktestConfig(QuorumRule(1.0), THRESHOLD, lag=-1), ValueError,
     "lag must be non-negative"),
    (lambda: BacktestConfig(QuorumRule(1.0), THRESHOLD, lag=1.5), ValueError,
     "lag must be an int, got 1.5"),
    (lambda: PlantSpec(n_years=4), InvalidSpec, "n_years must be at least 5, got 4"),
    (lambda: PlantSpec(n_factors=0), InvalidSpec, "n_factors must be at least 1"),
    (lambda: PlantSpec(n_years=1000, n_factors=1000), InvalidSpec,
     "1000 years x 1000 factors needs 1001000 cells, more than the limit of 1000000"),
    (lambda: PlantSpec(critical_fraction=1.5), InvalidSpec,
     "critical_fraction must be in [0, 1]"),
    (lambda: PlantSpec(noise_prob=-0.1), InvalidSpec, "noise_prob must be in [0, 1]"),
    (lambda: PlantSpec(lag_shift=30), InvalidSpec, "lag_shift must be in [0, n_years)"),
    (lambda: PlantSpec(n_adversarial=9), InvalidSpec,
     "n_adversarial must be in [0, n_factors]"),
    (lambda: PlantSpec(incidence_threshold=0.0), InvalidSpec,
     "incidence_threshold must be finite and positive"),
    (lambda: PlantSpec(incidence_threshold=1e308), InvalidSpec,
     "incidence_threshold must be at most half the largest float"),
    (lambda: PlantSpec(incidence_threshold=10**400), InvalidSpec, NOT_A_FLOAT),
    (lambda: PlantSpec(noise_prob=None), InvalidSpec, NOT_A_FLOAT),
    (lambda: PlantSpec(critical_fraction="0.3x"), InvalidSpec, NOT_A_FLOAT),
    (lambda: PlantSpec(n_years=10.5), InvalidSpec, "n_years must be an int, got 10.5"),
    (lambda: PlantSpec(n_factors=2.0), InvalidSpec, "n_factors must be an int, got 2.0"),
    (lambda: PlantSpec(lag_shift=1.5), InvalidSpec, "lag_shift must be an int, got 1.5"),
    (lambda: PlantSpec(n_adversarial=1.5), InvalidSpec,
     "n_adversarial must be an int, got 1.5"),
    (lambda: PlantSpec(start_year=1990.0), InvalidSpec,
     "start_year must be an int, got 1990.0"),
    (lambda: PlantSpec(regime_change_year=2000.5), InvalidSpec,
     "regime_change_year must be an int, got 2000.5"),
    (lambda: SweepSpec("speed", FactorSelection(("a",)), CONFIG), ValueError,
     "axis must be one of ('factor_subset', 'quorum', 'threshold', 'lag', 'row_length')"),
    (lambda: SweepSpec("quorum", FactorSelection(("a",)), CONFIG, []), ValueError,
     "grid must be non-empty"),
    (lambda: SweepSpec("quorum", FactorSelection(("a",)), CONFIG), ValueError,
     "axis 'quorum' requires an explicit grid"),
]


@pytest.mark.parametrize("make, exc, message", INVALID, ids=[m for _, _, m in INVALID])
def test_invalid_fields_raise_one_class_and_message(make, exc, message):
    with pytest.raises(exc) as info:
        make()
    assert type(info.value) is exc
    assert str(info.value) == message



def test_plant_spec_float_fields_are_coerced_to_float():
    spec = PlantSpec(critical_fraction=1, noise_prob=0, incidence_threshold=10)
    assert (spec.critical_fraction, spec.noise_prob, spec.incidence_threshold) == (1.0, 0.0, 10.0)
    for name in ("critical_fraction", "noise_prob", "incidence_threshold"):
        assert type(getattr(spec, name)) is float

def test_cold_import_loads_neither_dataclasses_nor_inspect(tmp_path):
    """Each of them costs a fresh ``factorcast`` process start-up time or memory.

    ``hashlib`` maps OpenSSL (``_hashlib``); only a command that reads
    ``--input`` loads it, so ``synth`` runs without it too.
    """
    code = (
        "import sys; costly = {'dataclasses', 'inspect', 'hashlib', '_hashlib'}\n"
        "before = set(sys.modules); import factorcast.cli\n"
        "print(*sorted(costly & (set(sys.modules) - before)))\n"
        "factorcast.cli.main(['synth', '--output', sys.argv[1]])\n"
        "print(*sorted(costly & (set(sys.modules) - before)))\n"
    )
    paths = (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "s.csv")],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    imported, wrote, after_synth = done.stdout.split("\n")[:3]
    assert (imported, after_synth) == ("", "")
    assert wrote.startswith("wrote 30 years x 8 factors to ")
