"""Command line front end.

Subcommands: ``fit`` (build a profile and score it in-sample), ``classify``
(apply a saved profile to new factor rows), ``backtest`` (rolling / leave-one-
out / in-sample replay), ``sweep`` (vary one configuration axis), and
``synth`` (write a synthetic dataset plus its ground truth). Each subcommand
returns its outputs as ``(text, path)`` pairs, a path of ``None`` meaning
stdout, and :func:`main` alone writes them, in order: reports go to stdout
unless ``--output`` names a file.

Exit codes: 0 success, 1 usage error, 2 data or validation error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from itertools import combinations
from pathlib import Path

from . import __version__
from .backtest import EVAL_MODES, BacktestConfig, rolling_backtest, select_threshold
from .errors import FactorcastError, InsufficientCriticalYears, InsufficientYears, MatrixError
from .matrix import (
    CriticalThreshold,
    FactorSelection,
    check_lag,
    label_critical,
    parse_matrix,
    read_columns,
)
from .recognizer import QuorumRule, build_profile, membership_lanes
from .report import (
    REPORT_FORMATS,
    backtest_report,
    classify_report,
    emit_report,
    fit_report,
    profile_from_json,
    profile_to_json,
    sweep_report_document,
)
from .sweeps import SWEEP_AXES, SweepSpec, run_sweep
from .synth import PlantSpec, generate


Outputs = list[tuple[str, str | Path | None]]  # see the module docstring


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit 1 (2 is for data errors)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fraction(text: str) -> float:
    """A number, or a percent such as '75%' divided by 100; ValueError otherwise."""
    raw = text.strip()
    return float(raw[:-1]) / 100.0 if raw.endswith("%") else float(raw)


def _quorum(text: str) -> float:
    """Fraction in (0, 1]; percent input such as '75%' is normalized."""
    try:
        value = _fraction(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid quorum {text!r}") from None
    if not (0.0 < value <= 1.0):
        raise argparse.ArgumentTypeError(f"quorum must be in (0, 1], got {text!r}")
    return value


def _positive_int(minimum: int):
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"value must be at least {minimum}")
        return value

    return convert


def _factor_list(text: str) -> str:
    if not all(_names(text, ",")):
        raise argparse.ArgumentTypeError(f"empty factor name in {text!r}")
    return text


def _nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError("value must be finite and non-negative")
    return value


def _add_threshold_flags(sub: argparse.ArgumentParser, required: bool) -> None:
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--threshold", type=float, help="expert critical incidence line")
    group.add_argument(
        "--select-threshold",
        action="store_true",
        help="pick the largest observed incidence yielding at least --min-critical criticals",
    )


def _add_common_flags(sub: argparse.ArgumentParser, min_critical_floor: int) -> None:
    sub.add_argument("--input", required=True, help="input CSV (year,incidence,<factor>...)")
    sub.add_argument(
        "--min-critical",
        type=_positive_int(min_critical_floor),
        default=2,
        help="minimum critical years the labeling must yield (default 2)",
    )
    sub.add_argument(
        "--quorum",
        type=_quorum,
        default=0.75,
        help="fraction of factor intervals a year must hit; accepts 0.75 or 75%% (default 0.75)",
    )
    sub.add_argument(
        "--factors", type=_factor_list, help="comma-separated factor columns (default: all)"
    )
    sub.add_argument(
        "--lag",
        type=_positive_int(0),
        default=0,
        help=(
            "pair each year's incidence with the selected factors this many years"
            " earlier; a lag above 0 needs consecutive years (default 0)"
        ),
    )
    sub.add_argument(
        "--widen-eps",
        type=_nonnegative_float,
        default=0.0,
        help="symmetric interval widening (default 0)",
    )
    sub.add_argument("--format", choices=REPORT_FORMATS, default="text")
    sub.add_argument("--output", help="write the report here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; :func:`main` reuses it on every call.

    Parsing stores nothing on the parser, and argparse reads the terminal
    width (``COLUMNS``) each time it formats help or usage, so reuse is safe.
    Callers must not add arguments to it.
    """
    parser = _Parser(
        prog="factorcast",
        description="Interval-envelope recognition and forecasting of critical years",
    )
    parser.add_argument("--version", action="version", version=f"factorcast {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser("fit", help="build an interval profile and score it in-sample")
    _add_common_flags(fit, min_critical_floor=1)
    _add_threshold_flags(fit, required=True)
    fit.add_argument("--save-profile", help="persist the profile as JSON for classify")
    fit.set_defaults(func=cmd_fit, usage_error=fit.error)

    classify = commands.add_parser("classify", help="apply a saved profile to new factor rows")
    classify.add_argument("--input", required=True, help="CSV of year plus factor columns")
    classify.add_argument("--profile", required=True, help="profile JSON written by fit")
    classify.add_argument("--format", choices=REPORT_FORMATS, default="text")
    classify.add_argument("--output", help="write the report here instead of stdout")
    classify.set_defaults(func=cmd_classify, usage_error=classify.error)

    backtest = commands.add_parser("backtest", help="replay recognition over the series")
    _add_common_flags(backtest, min_critical_floor=2)
    _add_threshold_flags(backtest, required=True)
    backtest.add_argument("--mode", choices=EVAL_MODES, default="rolling")
    backtest.add_argument(
        "--min-train-years",
        type=_positive_int(3),
        default=5,
        help="years required before the first rolling forecast (default 5)",
    )
    backtest.set_defaults(func=cmd_backtest, usage_error=backtest.error)

    sweep = commands.add_parser("sweep", help="vary one configuration axis over a grid")
    _add_common_flags(sweep, min_critical_floor=2)
    _add_threshold_flags(sweep, required=False)
    sweep.add_argument("--axis", choices=SWEEP_AXES, required=True)
    sweep.add_argument(
        "--grid",
        required=True,
        help=(
            "comma-separated grid values; for factor_subset use 'all' or"
            " '+'-joined subsets such as a,a+b"
        ),
    )
    sweep.add_argument("--mode", choices=EVAL_MODES, default="in_sample")
    sweep.add_argument("--min-train-years", type=_positive_int(3), default=5)
    sweep.set_defaults(func=cmd_sweep, usage_error=sweep.error)

    synth = commands.add_parser("synth", help="write a synthetic dataset and its ground truth")
    synth.add_argument("--output", required=True, help="dataset CSV path")
    synth.add_argument(
        "--truth-output",
        help="ground-truth CSV path (default: dataset path with _truth suffix)",
    )
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--years", type=_positive_int(5), default=30)
    synth.add_argument("--factors", type=_positive_int(1), default=8)
    synth.add_argument("--critical-fraction", type=_nonnegative_float, default=0.3)
    synth.add_argument("--noise", type=_nonnegative_float, default=0.0)
    synth.add_argument("--lag-shift", type=_positive_int(0), default=0)
    synth.add_argument("--regime-change-year", type=int, default=None)
    synth.add_argument("--adversarial", type=_positive_int(0), default=0)
    synth.add_argument("--threshold", type=float, default=10.0, help="incidence threshold")
    synth.add_argument("--start-year", type=int, default=1990)
    synth.set_defaults(func=cmd_synth, usage_error=synth.error)

    return parser


def _check_distinct_paths(args) -> None:
    """Usage error when a path the command writes is the same file as another of its paths."""
    # The flags a subcommand writes come before the ones it reads.
    flags = ("output", "truth_output", "save_profile", "input", "profile")
    named = [(flag, path) for flag in flags if (path := getattr(args, flag, None)) is not None]
    for (first, a), (second, b) in combinations(named, 2):
        if first not in ("input", "profile") and os.path.realpath(a) == os.path.realpath(b):
            args.usage_error(f"--{first} and --{second} name the same file".replace("_", "-"))


def _read_input(args) -> tuple[dict, str]:
    """The report metadata head for ``--input``, and the file's UTF-8 text.

    A leading byte-order mark is dropped from the text; the digest is of the raw bytes.
    """
    # hashlib maps OpenSSL, which costs a fresh process megabytes of resident
    # memory; importing it here spares every command that reads no --input.
    import hashlib

    path = args.input
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise MatrixError(f"cannot read input {path!r}: {exc}") from None
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise MatrixError(f"input {path!r} is not UTF-8: {exc}") from None
    metadata = {
        "tool": "factorcast",
        "version": __version__,
        "command": args.command,
        "input": os.path.basename(path),
        "input_sha256": hashlib.sha256(raw).hexdigest(),
    }
    return metadata, text


def _names(text: str, sep: str) -> tuple[str, ...]:
    """The ``sep``-separated names in ``text``, stripped of surrounding spaces."""
    return tuple(name.strip() for name in text.split(sep))


def _check_consecutive(years: tuple[int, ...], lags) -> None:
    """Data error when a nonzero lag, which counts rows, would span a gap in ``years``."""
    lag = next(filter(None, lags), 0)
    # Years strictly increase, so they are consecutive exactly when they span n - 1.
    if lag and years[-1] - years[0] != len(years) - 1:
        before, after = next(pair for pair in zip(years, years[1:]) if pair[1] - pair[0] > 1)
        raise MatrixError(f"lag {lag} needs consecutive years, but {after} follows {before}")


def _setup(args, fixed_threshold: float | None = None):
    """Metadata, ``--input`` matrix, selection, threshold (fixed if given) and labels."""
    metadata, text = _read_input(args)
    m = parse_matrix(text)
    selection = FactorSelection(_names(args.factors, ",") if args.factors else m.factor_names)
    selection.validate_against(m)
    if args.lag:
        _check_consecutive(m.years, (args.lag,))
        check_lag(args.lag, m.n_years)
    if fixed_threshold is not None:
        threshold = CriticalThreshold(fixed_threshold, "selected")
    elif args.select_threshold:
        threshold = select_threshold(m, args.min_critical, args.lag)
    else:
        threshold = CriticalThreshold(args.threshold, "expert")
    return metadata, m, selection, threshold, label_critical(m, threshold)


def _backtest_config(args, m, threshold: CriticalThreshold) -> BacktestConfig:
    """The replay configuration; a rolling replay of ``m`` at ``--lag`` needs a forecast origin."""
    n = m.n_years - args.lag
    if args.mode == "rolling" and n <= args.min_train_years:
        # The first rolling forecast is of the row after min_train_years training rows.
        raise InsufficientYears(n, args.min_train_years + 1)
    return BacktestConfig(
        rule=QuorumRule(args.quorum),
        threshold=threshold,
        min_train_years=args.min_train_years,
        min_train_critical=args.min_critical,
        eval_mode=args.mode,
        widen_eps=args.widen_eps,
        lag=args.lag,
    )


def cmd_fit(args) -> Outputs:
    if args.select_threshold and args.min_critical < 2:
        args.usage_error("--select-threshold requires --min-critical of at least 2")
    metadata, m, selection, threshold, labels = _setup(args)
    rule = QuorumRule(args.quorum)
    cfg = BacktestConfig(
        rule, threshold, eval_mode="in_sample", widen_eps=args.widen_eps, lag=args.lag
    )
    result = rolling_backtest(m, labels, selection, cfg)
    n_critical = sum(v.truth for v in result.verdicts)
    if n_critical < args.min_critical:
        raise InsufficientCriticalYears(n_critical, args.min_critical)
    profile = build_profile(m, labels, selection, args.widen_eps, args.lag)
    metadata.update(
        threshold=threshold.value,
        threshold_source=threshold.source,
        quorum=rule.q,
        factors=",".join(selection.names),
        lag=args.lag,
        widen_eps=args.widen_eps,
        min_critical=args.min_critical,
    )
    doc = fit_report(metadata, m, profile, rule, result)
    outputs = [(emit_report(doc, args.format), args.output)]
    if args.save_profile:
        outputs.append((profile_to_json(profile, rule), args.save_profile))
    return outputs


def cmd_classify(args) -> Outputs:
    try:
        profile_text = Path(args.profile).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise MatrixError(f"cannot read profile {args.profile!r}: {exc}") from None
    profile, rule = profile_from_json(profile_text)

    metadata, text = _read_input(args)
    _, years, columns = read_columns(text, ("year",), profile.factor_names, distinct_years=True)
    lanes = membership_lanes(columns, profile=profile)
    scored = tuple(zip(years, lanes.counts(sum(lanes.factors))))
    metadata.update(
        profile=os.path.basename(args.profile),
        quorum=rule.q,
        factors=",".join(profile.factor_names),
    )
    doc = classify_report(metadata, profile, rule, scored)
    return [(emit_report(doc, args.format), args.output)]


def cmd_backtest(args) -> Outputs:
    metadata, m, selection, threshold, labels = _setup(args)
    cfg = _backtest_config(args, m, threshold)
    result = rolling_backtest(m, labels, selection, cfg)
    metadata.update(
        threshold=threshold.value,
        threshold_source=threshold.source,
        quorum=cfg.rule.q,
        factors=",".join(selection.names),
        lag=args.lag,
        mode=args.mode,
        min_train_years=args.min_train_years,
        min_critical=args.min_critical,
        widen_eps=args.widen_eps,
    )
    doc = backtest_report(metadata, result, cfg.rule)
    return [(emit_report(doc, args.format), args.output)]


def _parse_grid(args) -> tuple | None:
    raw = args.grid.strip()
    if args.axis == "factor_subset":
        if raw == "all":
            return None
        grid = tuple(_names(part, "+") for part in raw.split(","))
        if not all(map(all, grid)):
            args.usage_error(f"empty factor name in --grid {raw!r}")
        if any(len(set(subset)) < len(subset) for subset in grid):
            args.usage_error(f"repeated factor name in one subset of --grid {raw!r}")
        if args.factors and not set().union(*grid) <= set(_names(args.factors, ",")):
            args.usage_error(f"--grid names a factor that --factors {args.factors!r} does not list")
        return grid
    values = [part.strip() for part in raw.split(",")]
    if not all(values):
        args.usage_error(f"empty value in --grid {raw!r}")
    convert = {"lag": int, "row_length": int, "quorum": _fraction}.get(args.axis, float)
    try:
        grid = tuple(convert(v) for v in values)
    except ValueError:
        args.usage_error(f"invalid --grid value in {raw!r}")
    if args.axis == "lag" and min(grid) < 0:
        args.usage_error(f"lags must be non-negative, got --grid {raw!r}")
    return grid


def cmd_sweep(args) -> Outputs:
    grid = _parse_grid(args)
    has_threshold = args.threshold is not None or args.select_threshold
    if args.axis == "threshold" and has_threshold:
        args.usage_error(
            "--threshold and --select-threshold cannot be combined with --axis threshold,"
            " whose grid supplies each threshold"
        )
    if args.axis != "threshold" and not has_threshold:
        args.usage_error("one of --threshold or --select-threshold is required for this axis")
    if args.axis == "lag" and args.lag:
        args.usage_error("--lag cannot be combined with --axis lag, which applies each lag itself")

    # The threshold axis varies the threshold itself; the config echoes grid[0].
    fixed = grid[0] if args.axis == "threshold" else None
    metadata, m, selection, threshold, labels = _setup(args, fixed)
    if args.axis == "lag":
        _check_consecutive(m.years, grid)
    cfg = _backtest_config(args, m, threshold)
    spec = SweepSpec(axis=args.axis, selection=selection, config=cfg, grid=grid)
    report = run_sweep(m, labels, spec)
    metadata.update(
        axis=args.axis,
        grid=args.grid,
        quorum=cfg.rule.q,
        factors=",".join(selection.names),
        lag=args.lag,
        mode=args.mode,
        min_critical=args.min_critical,
    )
    if fixed is None:
        metadata.update(threshold=threshold.value, threshold_source=threshold.source)
    doc = sweep_report_document(metadata, report)
    return [(emit_report(doc, args.format), args.output)]


def cmd_synth(args) -> Outputs:
    spec = PlantSpec(
        n_years=args.years,
        n_factors=args.factors,
        seed=args.seed,
        critical_fraction=args.critical_fraction,
        noise_prob=args.noise,
        lag_shift=args.lag_shift,
        regime_change_year=args.regime_change_year,
        n_adversarial=args.adversarial,
        incidence_threshold=args.threshold,
        start_year=args.start_year,
    )
    matrix, truth = generate(spec)
    output = Path(args.output)
    truth_path = Path(args.truth_output or output.with_name(output.stem + "_truth.csv"))
    summary = (
        f"wrote {matrix.n_years} years x {matrix.n_factors} factors to {output}"
        f" (ground truth: {truth_path})\n"
    )
    return [(matrix.to_csv(), output), (truth.to_csv(), truth_path), (summary, None)]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _check_distinct_paths(args)
    try:
        for text, path in args.func(args):
            if path is None:
                sys.stdout.write(text)
            else:
                Path(path).write_text(text, encoding="utf-8", newline="")
    except (FactorcastError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
