"""Interval-envelope recognition and forecasting of critical years in annual series.

Given a years x (incidence + factors) table and a critical incidence
threshold, the package builds per-factor [min, max] envelopes over the
critical years, recognizes or forecasts critical years by a quorum of
interval memberships, and scores recognition precision p = x / (x + y).
The root holds the README's library names; the rest live in their modules.
"""

__version__ = "0.1.0"

from .backtest import BacktestConfig, rolling_backtest, select_threshold
from .matrix import CriticalThreshold, FactorSelection, label_critical, parse_matrix
from .recognizer import QuorumRule, build_profile, evaluate_insample

__all__ = [
    "__version__",
    "BacktestConfig",
    "CriticalThreshold",
    "FactorSelection",
    "QuorumRule",
    "build_profile",
    "evaluate_insample",
    "label_critical",
    "parse_matrix",
    "rolling_backtest",
    "select_threshold",
]
