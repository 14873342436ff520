"""Deterministic report documents and their text / json / plot_csv renderings.

A report document carries run metadata (input digest, configuration echo,
tool version) and its result as tables: one column spec plus rows of raw
values, which are the result tuples themselves where the result has them.
Every output is derived from those rows only when it is rendered: aligned
text tables, a canonical JSON body, and a two-column (configuration, p) CSV
for external plotting. A JSON row is the object of its column keys; the text
headers are the same keys. In text a ``None`` cell renders ``-`` (nothing
applies), except a ``p`` beside integer counts: undefined precision renders
``undefined`` in text, ``null`` in JSON, and an empty cell in plot_csv.
Rendering the same document twice yields identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

from .backtest import BacktestResult, Verdict
from .errors import ProfileError
from .matrix import TemporalMatrix, format_number
from .recognizer import FactorInterval, IntervalProfile, QuorumRule
from .sweeps import SweepReport, SweepRow

PROFILE_FORMAT = "factorcast-profile"
PROFILE_VERSION = 1

# Text headers that differ from their JSON key.
_TEXT_HEADERS = {"n_no_forecast": "no_forecast"}
# Text of a cell by the value's type; any other type renders as ``str``.
_FORMATS = {type(None): lambda v: "-", bool: ("no", "yes").__getitem__, float: format_number}


def _cell(v) -> str:
    return _FORMATS.get(type(v), str)(v)


class ReportTable(NamedTuple):
    """Rows of raw values; ``columns`` are the JSON keys of a row.

    The renderers work a column at a time and rely on two things: the column
    keys are one or more distinct strings, and every cell is a scalar (str,
    int, float, bool or None).
    """

    title: str
    columns: tuple[str, ...]
    rows: Sequence[tuple]


class ReportDocument(NamedTuple):
    """One report: metadata, its tables, and the result fields only JSON shows.

    Text renders ``tables`` in order, then ``summary``. The JSON result is
    ``result``, with every table in it written as a list of row objects, plus
    the fields of the one-row ``summary``. plot_csv writes the ``p`` of every
    row that has one, labelled by ``plot_label`` or, without one, by the
    row's ``configuration``.
    """

    kind: str
    metadata: dict
    tables: tuple[ReportTable, ...]
    result: dict
    summary: ReportTable | None = None
    plot_label: str | None = None


def _profile_body(profile: IntervalProfile) -> dict:
    """The ``profile`` object of a fit report and a saved profile; its intervals are a table."""
    return {
        "n_critical_train": profile.n_critical_train,
        "intervals": ReportTable(
            f"interval profile ({profile.n_critical_train} critical training years)",
            ("factor", "lo", "hi", "widen_eps"),
            tuple((iv.factor, iv.lo, iv.hi, iv.widen_eps) for iv in profile.intervals),
        ),
    }


def fit_report(
    metadata: Mapping,
    m: TemporalMatrix,
    profile: IntervalProfile,
    rule: QuorumRule,
    result: BacktestResult,
) -> ReportDocument:
    """``result`` is the in-sample replay of ``profile``, over the last years of ``m``."""
    required = rule.required(profile.n_factors)
    body = _profile_body(profile)
    verdicts = result.verdicts
    incidence = m.incidence[m.n_years - len(verdicts) :]
    per_year = ReportTable(
        f"per-year recognition (quorum requires {required} of {profile.n_factors})",
        ("year", "incidence", "critical", "membership", "flagged"),
        tuple(
            (v.year, x, v.truth, v.membership, v.prediction == "critical")
            for v, x in zip(verdicts, incidence)
        ),
    )
    return ReportDocument(
        kind="fit",
        metadata=dict(metadata),
        tables=(body["intervals"], per_year),
        result={
            "profile": body,
            "quorum": rule.q,
            "required": required,
            "per_year": per_year,
            "flagged_years": tuple(v.year for v in verdicts if v.prediction == "critical"),
        },
        summary=ReportTable(
            "recognition summary", ("x", "y", "p"), ((result.x, result.y, result.p),)
        ),
        plot_label=f"q={format_number(rule.q)}",
    )


def classify_report(
    metadata: Mapping,
    profile: IntervalProfile,
    rule: QuorumRule,
    rows: tuple[tuple[int, int], ...],
) -> ReportDocument:
    """``rows`` holds (year, membership) pairs for the classified input rows."""
    required = rule.required(profile.n_factors)
    predictions = ReportTable(
        f"classification (quorum requires {required} of {profile.n_factors})",
        ("year", "membership", "prediction"),
        tuple(
            (year, count, "critical" if count >= required else "non_critical")
            for year, count in rows
        ),
    )
    return ReportDocument(
        kind="classify",
        metadata=dict(metadata),
        tables=(predictions,),
        result={
            "quorum": rule.q,
            "required": required,
            "predictions": predictions,
            "n_predicted_critical": sum(1 for _, count in rows if count >= required),
        },
    )


def backtest_report(metadata: Mapping, result: BacktestResult, rule: QuorumRule) -> ReportDocument:
    verdicts = ReportTable("verdicts", Verdict._fields, result.verdicts)
    return ReportDocument(
        kind="backtest",
        metadata=dict(metadata),
        tables=(verdicts,),
        result={"verdicts": verdicts},
        summary=ReportTable(
            "backtest summary",
            ("x", "y", "p", "n_no_forecast"),
            ((result.x, result.y, result.p, result.n_no_forecast),),
        ),
        plot_label=f"q={format_number(rule.q)}",
    )


def sweep_report_document(metadata: Mapping, report: SweepReport) -> ReportDocument:
    rows = ReportTable(f"{report.axis} sweep", SweepRow._fields, report.rows)
    return ReportDocument(
        kind="sweep",
        metadata=dict(metadata),
        tables=(rows,),
        result={"axis": report.axis, "rows": rows},
    )


def _all_tables(doc: ReportDocument) -> tuple[ReportTable, ...]:
    return doc.tables if doc.summary is None else (*doc.tables, doc.summary)


def _text_column(header: str, values: tuple) -> list[str]:
    """One column's header and text cells, with one formatter for a column of one type."""
    kinds = set(map(type, values))
    return [header, *map(_FORMATS.get(kinds.pop(), str) if len(kinds) == 1 else _cell, values)]


def _text_columns(table: ReportTable) -> list[list[str]]:
    """The text cells of each column, its header first.

    ``None`` renders ``-``: nothing applies. Only a ``p`` beside integer
    counts is undefined precision instead, and renders ``undefined``. The
    rule reads the row's values, never its cell text.
    """
    values = list(zip(*table.rows)) or [()] * len(table.columns)
    columns = [
        _text_column(_TEXT_HEADERS.get(key, key), column)
        for key, column in zip(table.columns, values)
    ]
    if "p" in table.columns and "x" in table.columns:
        p, x = table.columns.index("p"), table.columns.index("x")
        columns[p][1:] = [
            "undefined" if value is None and isinstance(count, int) else text
            for text, value, count in zip(columns[p][1:], values[p], values[x])
        ]
    return columns


def _render_text(doc: ReportDocument) -> str:
    lines = [f"factorcast {doc.kind} report"]
    lines.append("=" * len(lines[0]))
    lines.extend(f"{key}: {_cell(value)}" for key, value in doc.metadata.items())
    for table in _all_tables(doc):
        columns = _text_columns(table)
        widths = [max(map(len, column)) for column in columns]
        line = "  ".join(f"%-{w}s" for w in widths).__mod__
        text = map(str.rstrip, map(line, zip(*columns)))
        lines += ("", table.title, next(text), "  ".join("-" * w for w in widths))
        lines.extend(text)
    # An empty last line ends the report in a newline without copying it again.
    lines.append("")
    return "\n".join(lines)


_INDENT = "  "
_CONTAINERS = (dict, list, tuple)


@lru_cache(maxsize=None)
def _c_encode(depth: int):
    """The C encoder's ``encode``, breaking the line between items to ``depth`` indents.

    ``ensure_ascii`` (the default) escapes every newline inside a string, so a
    raw newline in its output is always one of these item separators.
    """
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + _INDENT * depth, ": ")).encode


def _holds_container(values) -> bool:
    return any(issubclass(t, _CONTAINERS) for t in set(map(type, values)))


def _json_at(value, depth: int) -> str:
    """``value`` as indented JSON for a place ``depth`` indents deep."""
    if not isinstance(value, _CONTAINERS):
        return _c_encode(0)(value)
    pad = "\n" + _INDENT * (depth + 1)
    end = "\n" + _INDENT * depth
    if isinstance(value, ReportTable):
        if not value.rows:
            return "[]"
        # One C call per column, split into its cells, and one '%' template
        # for every row. The keys are distinct, so sorting never compares columns.
        keys, columns = zip(*sorted(zip(value.columns, zip(*value.rows))))
        heads = _c_encode(0)(keys)[1:-1].replace("%", "%%").split(",\n")
        key_pad = pad + _INDENT
        row = "{" + key_pad + ("," + key_pad).join(h + ": %s" for h in heads) + pad + "}"
        cells = (_c_encode(0)(column)[1:-1].split(",\n") for column in columns)
        return "[" + pad + ("," + pad).join(map(row.__mod__, zip(*cells))) + end + "]"
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    is_dict = isinstance(value, dict)
    if not _holds_container(value.values() if is_dict else value):
        # One call; only the opening and closing brackets need their own lines.
        text = _c_encode(depth + 1)(value)
        return text[0] + pad + text[1:-1] + end + text[-1]
    if is_dict:
        # The keys, encoded and sorted by the C encoder: '"key": 0' per line.
        heads = _c_encode(0)(dict.fromkeys(value, 0))[1:-1].split(",\n")
        parts = [
            head[:-1] + _json_at(value[key], depth + 1)
            for head, key in zip(heads, sorted(value))
        ]
        return "{" + pad + ("," + pad).join(parts) + end + "}"
    parts = [_json_at(item, depth + 1) for item in value]
    return "[" + pad + ("," + pad).join(parts) + end + "]"


def json_text(value) -> str:
    """``value`` as canonical JSON: the bytes of ``json.dumps(value, indent=2,
    sort_keys=True, ensure_ascii=True)`` plus a trailing newline.

    A ``ReportTable`` in ``value`` is written as its list of row objects, one
    column at a time. ``json.dumps`` with an indent always runs the
    pure-Python encoder. This writer runs the C encoder once per container,
    or once per column of a table, and splices the indentation in.
    """
    return _json_at(value, 0) + "\n"


def _render_json(doc: ReportDocument) -> str:
    result = dict(doc.result)
    if doc.summary is not None:
        result.update(zip(doc.summary.columns, doc.summary.rows[0]))
    return json_text({"report": doc.kind, "metadata": doc.metadata, "result": result})


def _render_plot_csv(doc: ReportDocument) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["configuration", "p"])
    for table in _all_tables(doc):
        if "p" in table.columns:
            p = table.columns.index("p")
            c = None if doc.plot_label else table.columns.index("configuration")
            for row in table.rows:
                label = doc.plot_label or row[c]
                writer.writerow([label, "" if row[p] is None else format_number(row[p])])
    return out.getvalue()


REPORT_FORMATS = ("text", "json", "plot_csv")


def emit_report(doc: ReportDocument, format: str = "text") -> str:
    """Render the document byte-deterministically in the requested format."""
    if format == "text":
        return _render_text(doc)
    if format == "json":
        return _render_json(doc)
    if format == "plot_csv":
        return _render_plot_csv(doc)
    raise ValueError(f"format must be one of {REPORT_FORMATS}")


def profile_to_json(profile: IntervalProfile, rule: QuorumRule) -> str:
    """Persist a trained profile plus its quorum so classify can skip retraining."""
    doc = {
        "format": PROFILE_FORMAT,
        "version": PROFILE_VERSION,
        "quorum": rule.q,
        "profile": _profile_body(profile),
    }
    return json_text(doc)


_NUMBER = (int, float)


def _typed(key: str, value, types: tuple):
    """``value`` if its exact type is one of ``types``; a bool is no int and a string no float."""
    if type(value) not in types:
        expected = " or ".join(t.__name__ for t in types)
        raise TypeError(f"{key} must be {expected}, got {type(value).__name__}")
    return value


# The keys each object of a saved profile may hold; any other key is an error.
_DOCUMENT_KEYS = frozenset(("format", "version", "quorum", "profile"))
_BODY_KEYS = frozenset(("n_critical_train", "intervals"))
_INTERVAL_KEYS = frozenset(("factor", "lo", "hi", "widen_eps"))


def _check_keys(obj, allowed: frozenset, where: str) -> None:
    """Raise a ``ProfileError`` naming the first key of a dict ``obj`` outside ``allowed``."""
    if isinstance(obj, dict):
        for key in obj:
            if key not in allowed:
                raise ProfileError(f"malformed profile document: unknown {where} key {key!r}")


def profile_from_json(text: str) -> tuple[IntervalProfile, QuorumRule]:
    """Read back :func:`profile_to_json`'s document; an absent ``widen_eps`` reads as 0.

    Each field must have the JSON type that document gives it: a string
    ``factor``, an integer ``n_critical_train`` and numbers (int or float) for
    the rest. Nothing is coerced, and a key the document does not define
    (a misspelled ``widen_eps``, say) is an error rather than ignored.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProfileError(f"profile document is not valid JSON: {exc}") from None
    except RecursionError:
        raise ProfileError("profile document is nested too deeply") from None
    if not isinstance(doc, dict) or doc.get("format") != PROFILE_FORMAT:
        raise ProfileError("not a factorcast profile document")
    # 1.0 and true compare equal to 1, so the version's type is checked too.
    if type(doc.get("version")) is not int or doc["version"] != PROFILE_VERSION:
        raise ProfileError(f"unsupported profile version {doc.get('version')!r}")
    _check_keys(doc, _DOCUMENT_KEYS, "top-level")
    try:
        body = doc["profile"]
        _check_keys(body, _BODY_KEYS, "profile")
        for iv in body["intervals"]:
            _check_keys(iv, _INTERVAL_KEYS, "interval")
        intervals = tuple(
            FactorInterval(
                _typed("factor", iv["factor"], (str,)),
                _typed("lo", iv["lo"], _NUMBER),
                _typed("hi", iv["hi"], _NUMBER),
                _typed("widen_eps", iv.get("widen_eps", 0.0), _NUMBER),
            )
            for iv in body["intervals"]
        )
        n_critical_train = _typed("n_critical_train", body["n_critical_train"], (int,))
        profile = IntervalProfile(intervals, n_critical_train)
        rule = QuorumRule(_typed("quorum", doc["quorum"], _NUMBER))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProfileError(f"malformed profile document: {exc}") from None
    return profile, rule
