"""Interval-envelope recognition and forecasting of critical years in annual series.

Given a years x (incidence + factors) table and a critical incidence
threshold, the package builds per-factor [min, max] envelopes over the
critical years, recognizes or forecasts critical years by a quorum of
interval memberships, and scores recognition precision p = x / (x + y).
"""

__version__ = "0.1.0"

from .backtest import (
    BacktestConfig,
    BacktestResult,
    Verdict,
    rolling_backtest,
    select_threshold,
)
from .errors import FactorcastError
from .matrix import (
    CriticalLabels,
    CriticalThreshold,
    FactorSelection,
    TemporalMatrix,
    apply_uniform_lag,
    label_critical,
    parse_matrix,
)
from .recognizer import (
    FactorInterval,
    IntervalProfile,
    QuorumRule,
    RecognitionResult,
    build_profile,
    evaluate_insample,
    membership_count,
    precision,
)
from .report import (
    ReportDocument,
    emit_report,
    profile_from_json,
    profile_to_json,
    sweep_report_document,
)
from .sweeps import (
    SweepReport,
    SweepRow,
    SweepSpec,
    enumerate_subsets,
    lag_sweep,
    quorum_sweep,
    row_length_sweep,
    run_sweep,
    subset_sweep,
    threshold_sensitivity,
)
from .synth import GroundTruth, PlantSpec, generate, oracle_evaluate

__all__ = [
    "__version__",
    "BacktestConfig",
    "BacktestResult",
    "CriticalLabels",
    "CriticalThreshold",
    "FactorcastError",
    "FactorInterval",
    "FactorSelection",
    "GroundTruth",
    "IntervalProfile",
    "PlantSpec",
    "QuorumRule",
    "RecognitionResult",
    "ReportDocument",
    "SweepReport",
    "SweepRow",
    "SweepSpec",
    "TemporalMatrix",
    "Verdict",
    "apply_uniform_lag",
    "build_profile",
    "emit_report",
    "enumerate_subsets",
    "evaluate_insample",
    "generate",
    "label_critical",
    "lag_sweep",
    "membership_count",
    "oracle_evaluate",
    "parse_matrix",
    "precision",
    "profile_from_json",
    "profile_to_json",
    "quorum_sweep",
    "rolling_backtest",
    "row_length_sweep",
    "run_sweep",
    "select_threshold",
    "subset_sweep",
    "sweep_report_document",
    "threshold_sensitivity",
]
