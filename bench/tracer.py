"""In-memory spans around the package's public functions, for the traced run.

The tracer wraps each layer's public functions from the benchmark's own
files; no file of the package changes. A wrapped function is replaced in
every ``factorcast`` module namespace that holds it (``build_profile`` in
``recognizer``, ``backtest``, ``cli`` and the package root alike), and the
``TemporalMatrix`` methods are wrapped on the class. Each call records one
span ``[name, start_ns, end_ns, parent, job, counts]``; spans stay in memory
until the run ends, are written out as JSON lines, and the per-layer numbers
are derived from that file.

Spans are recorded only while a root span is open, so the benchmark's own
reference computation, which also calls ``synth.generate``, is never traced.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import factorcast.backtest as fc_backtest
import factorcast.cli as fc_cli
import factorcast.matrix as fc_matrix
import factorcast.recognizer as fc_recognizer
import factorcast.report as fc_report
import factorcast.sweeps as fc_sweeps
import factorcast.synth as fc_synth


def _matrix_cells(m) -> int:
    return len(m.years) * (1 + len(m.factor_names))


def _sweep_counts(args, report) -> dict:
    skipped = sum(1 for row in report.rows if row.status == "skipped")
    return {"sweeps.grid_points": len(report.rows), "sweeps.skipped_rows": skipped}


def _stdout_len() -> int:
    # The cli workload captures stdout in a StringIO; its position counts
    # characters, which equal bytes because every report is ASCII.
    return sys.stdout.tell() if isinstance(sys.stdout, io.StringIO) else 0


def _argv_paths(argv, flags) -> list[Path]:
    return [Path(argv[i + 1]) for i, a in enumerate(argv[:-1]) if a in flags]


_READ_FLAGS = {"--input", "--profile"}
_WRITE_FLAGS = {"--output", "--truth-output", "--save-profile"}

# (module, attribute, span name or a function of the call's positional args,
#  counts as a function of those args and the result).
FUNCTIONS = [
    (fc_matrix, "label_critical", "matrix.label_critical", None),
    (
        fc_matrix,
        "parse_matrix",
        "matrix.parse_matrix",
        lambda a, m: {"matrix.cells_parsed": _matrix_cells(m)},
    ),
    (
        fc_recognizer,
        "build_profile",
        "recognizer.build_profile",
        lambda a, p: {"recognizer.envelope_values_scanned": p.n_critical_train * p.n_factors},
    ),
    (
        fc_recognizer,
        "membership_count",
        "recognizer.membership_count",
        lambda a, r: {"recognizer.membership_tests": a[1].n_factors},
    ),
    (fc_recognizer, "evaluate_insample", "recognizer.evaluate_insample", None),
    (
        fc_backtest,
        "rolling_backtest",
        lambda a: "backtest." + a[3].eval_mode,
        lambda a, r: {"backtest.forecasts": r.n_forecasts, "backtest.no_forecast": r.n_no_forecast},
    ),
    (fc_backtest, "select_threshold", "backtest.select_threshold", None),
    (fc_sweeps, "subset_sweep", "sweeps.factor_subset", _sweep_counts),
    (fc_sweeps, "quorum_sweep", "sweeps.quorum", _sweep_counts),
    (fc_sweeps, "threshold_sensitivity", "sweeps.threshold", _sweep_counts),
    (fc_sweeps, "lag_sweep", "sweeps.lag", _sweep_counts),
    (fc_sweeps, "row_length_sweep", "sweeps.row_length", _sweep_counts),
    (fc_sweeps, "enumerate_subsets", "sweeps.enumerate_subsets", None),
    (
        fc_report,
        "emit_report",
        "report.emit_report",
        lambda a, text: {"report.bytes_rendered": len(text.encode())},
    ),
    (fc_report, "fit_report", "report.document", None),
    (fc_report, "classify_report", "report.document", None),
    (fc_report, "backtest_report", "report.document", None),
    (fc_report, "sweep_report_document", "report.document", None),
    (fc_report, "profile_to_json", "report.profile_to_json", None),
    (fc_report, "profile_from_json", "report.profile_from_json", None),
    (
        fc_synth,
        "generate",
        "synth.generate",
        lambda a, r: {"synth.cells_generated": _matrix_cells(r[0])},
    ),
]

METHODS = [
    (
        "__init__",
        "matrix.construct",
        lambda a, r: {"matrix.cells_validated": _matrix_cells(a[0])},
    ),
    ("window", "matrix.window", None),
    ("to_csv", "matrix.to_csv", None),
]


class Tracer:
    """Span recorder; ``install`` wraps the package, ``root`` opens a root span."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        # (namespace, attribute, original, wrapper) for every replaced name.
        self.patches: list[tuple] = []
        for module, attr, name, counts in FUNCTIONS:
            original = getattr(module, attr)
            self._patch_everywhere(original, self.wrap(original, name, counts))
        self._patch_everywhere(fc_cli.main, self.wrap_cli_main(fc_cli.main))
        cls = fc_matrix.TemporalMatrix
        for attr, name, counts in METHODS:
            original = cls.__dict__[attr]
            self.patches.append((cls, attr, original, self.wrap(original, name, counts)))

    def _patch_everywhere(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name == "factorcast" or name.startswith("factorcast."):
                for attr, value in vars(module).items():
                    if value is original:
                        self.patches.append((module, attr, original, wrapper))

    def wrap(self, fn, name, counts=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            record = [
                name if isinstance(name, str) else name(args),
                0,
                0,
                stack[-1],
                spans[stack[0]][4],
                None,
            ]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if counts is not None:
                record[5] = counts(args, result)
            return result

        return traced

    def wrap_cli_main(self, fn):
        """``cli.main`` with the bytes it reads and writes, from its argv's files."""
        traced = self.wrap(fn, "cli.main")

        @functools.wraps(fn)
        def counted(argv=None):
            if not self.stack:
                return fn(argv)
            read = sum(p.stat().st_size for p in _argv_paths(argv, _READ_FLAGS) if p.exists())
            before, first = _stdout_len(), len(self.spans)
            code = traced(argv)
            written = _stdout_len() - before
            written += sum(p.stat().st_size for p in _argv_paths(argv, _WRITE_FLAGS) if p.exists())
            self.spans[first][5] = {"cli.bytes_read": read, "cli.bytes_written": written}
            return code

        return counted

    def install(self) -> None:
        for target, attr, _, wrapper in self.patches:
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original, _ in self.patches:
            setattr(target, attr, original)

    @contextlib.contextmanager
    def root(self, name: str, job: int):
        """Hold one root span (a job, or the building of its input) open."""
        record = [name, 0, 0, -1, job, None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter_ns()
        try:
            yield record
        finally:
            record[2] = perf_counter_ns()
            self.stack.pop()

    def dump(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record, separators=(",", ":")) + "\n")


CALLS = (
    "matrix.construct", "matrix.window", "matrix.label_critical", "matrix.parse_matrix",
    "recognizer.build_profile", "recognizer.membership_count", "report.emit_report",
    "synth.generate", "cli.main",
)
SELF_MS = (
    "matrix.construct", "matrix.window", "matrix.label_critical", "matrix.parse_matrix",
    "matrix.to_csv", "recognizer.build_profile", "recognizer.membership_count",
    "recognizer.evaluate_insample", "backtest.rolling", "backtest.leave_one_out",
    "backtest.in_sample", "backtest.select_threshold", "sweeps.factor_subset",
    "sweeps.quorum", "sweeps.threshold", "sweeps.lag", "sweeps.row_length",
    "sweeps.enumerate_subsets", "report.emit_report", "report.document",
    "report.profile_to_json", "report.profile_from_json", "synth.generate", "cli.main",
)
COUNTS = (
    "matrix.cells_validated", "matrix.cells_parsed", "recognizer.envelope_values_scanned",
    "recognizer.membership_tests", "backtest.forecasts", "backtest.no_forecast",
    "sweeps.grid_points", "sweeps.skipped_rows", "report.bytes_rendered",
    "synth.cells_generated", "cli.bytes_read", "cli.bytes_written",
)
BACKTEST_MODES = ("backtest.rolling", "backtest.leave_one_out", "backtest.in_sample")


def per_layer(path: Path) -> tuple[dict, list[int]]:
    """Per-layer metrics from a span file, and the spans that are not well nested.

    A span's self time is its duration minus its direct children's durations.
    Per root the self times of all its spans then add up to the root's
    duration by construction, whatever the timestamps, so that sum is checked
    but cannot catch a fault. What can is the nesting: the second result
    lists every span whose parent does not precede it, that lies outside its
    parent's interval or job, or whose self time is negative, and every root
    whose self times do not add up to its duration.
    """
    with path.open(encoding="utf-8") as lines:
        spans = [json.loads(line) for line in lines]
    child_ns = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    totals: dict[str, int] = defaultdict(int)
    root_self: dict[int, int] = defaultdict(int)
    # Parents precede children in the file, so one forward pass can carry
    # each span's root and whether a backtest or sweep span encloses it.
    root = [0] * len(spans)
    in_backtest = [False] * len(spans)
    in_sweep = [False] * len(spans)
    builds_in_backtest = backtests_in_sweep = 0
    for i, (name, start, end, parent, _, counts) in enumerate(spans):
        own = end - start - child_ns[i]
        calls[name] += 1
        self_ns[name] += own
        if parent >= 0:
            root[i] = root[parent]
            in_backtest[i] = in_backtest[parent]
            in_sweep[i] = in_sweep[parent]
        else:
            root[i] = i
        root_self[root[i]] += own
        if name == "recognizer.build_profile" and in_backtest[i]:
            builds_in_backtest += 1
        if name in BACKTEST_MODES:
            in_backtest[i] = True
            backtests_in_sweep += in_sweep[i]
        if name.startswith("sweeps.") and name != "sweeps.enumerate_subsets":
            in_sweep[i] = True
        for key, value in (counts or {}).items():
            totals[key] += value
    broken = [
        i for i, (_, start, end, parent, job, _) in enumerate(spans)
        if end - start < child_ns[i]
        or (parent < 0 and root_self[i] != end - start)
        or (parent >= 0 and not (
            parent < i
            and spans[parent][1] <= start <= end <= spans[parent][2]
            and spans[parent][4] == job
        ))
    ]
    metrics = {f"{name}.calls": (calls.get(name, 0), "count") for name in CALLS}
    metrics.update(
        {f"{name}.self_ms": (self_ns.get(name, 0) / 1e6, "ms") for name in SELF_MS}
    )
    metrics.update({key: (totals.get(key, 0), UNITS.get(key, "count")) for key in COUNTS})
    forecasts = totals.get("backtest.forecasts", 0)
    grid_points = totals.get("sweeps.grid_points", 0)
    metrics["backtest.profile_builds_per_forecast"] = (
        builds_in_backtest / forecasts if forecasts else 0.0,
        "ratio",
    )
    metrics["sweeps.backtests_per_grid_point"] = (
        backtests_in_sweep / grid_points if grid_points else 0.0,
        "ratio",
    )
    metrics["trace.spans"] = (len(spans), "count")
    return metrics, broken


UNITS = {"report.bytes_rendered": "B", "cli.bytes_read": "B", "cli.bytes_written": "B"}
