"""Deterministic report documents and their text / json / plot_csv renderings.

A report document carries the structured result plus run metadata (input
digest, configuration echo, tool version) already projected into three
byte-stable forms: aligned text tables, a canonical JSON body, and a
two-column (configuration, p) CSV for external plotting. Undefined precision
renders as ``undefined`` in text, ``null`` in JSON, and an empty cell in
plot_csv. Rendering the same document twice yields identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, starmap
from typing import Mapping

from .backtest import BacktestResult
from .errors import ProfileError
from .matrix import CriticalLabels, TemporalMatrix, format_number
from .recognizer import IntervalProfile, QuorumRule, RecognitionResult
from .sweeps import SweepReport

PROFILE_FORMAT = "factorcast-profile"
PROFILE_VERSION = 1


def _cell(v) -> str:
    if v is None:
        return "undefined"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return format_number(v)
    return str(v)


@dataclass(frozen=True)
class ReportTable:
    title: str
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class ReportDocument:
    kind: str
    metadata: dict
    tables: tuple[ReportTable, ...]
    payload: dict
    plot_rows: tuple[tuple[str, float | None], ...]


def fit_report(
    metadata: Mapping,
    m: TemporalMatrix,
    labels: CriticalLabels,
    profile: IntervalProfile,
    rule: QuorumRule,
    result: RecognitionResult,
) -> ReportDocument:
    required = rule.required(profile.n_factors)
    profile_table = ReportTable(
        title=f"interval profile ({profile.n_critical_train} critical training years)",
        columns=("factor", "lo", "hi", "widen_eps"),
        rows=tuple(
            (iv.factor, _cell(iv.lo), _cell(iv.hi), _cell(iv.widen_eps))
            for iv in profile.intervals
        ),
    )
    flagged = set(result.flagged_years)
    year_table = ReportTable(
        title=f"per-year recognition (quorum requires {required} of {profile.n_factors})",
        columns=("year", "incidence", "critical", "membership", "flagged"),
        rows=tuple(
            (
                str(year),
                _cell(m.incidence[i]),
                _cell(labels.is_critical[i]),
                str(result.per_year_membership[year]),
                _cell(year in flagged),
            )
            for i, year in enumerate(m.years)
        ),
    )
    summary = ReportTable(
        title="recognition summary",
        columns=("x", "y", "p"),
        rows=((str(result.x), str(result.y), _cell(result.p)),),
    )
    payload = {
        "profile": profile.to_dict(),
        "quorum": rule.q,
        "required": required,
        "per_year": [
            {
                "year": year,
                "incidence": m.incidence[i],
                "critical": labels.is_critical[i],
                "membership": result.per_year_membership[year],
                "flagged": year in flagged,
            }
            for i, year in enumerate(m.years)
        ],
        "flagged_years": list(result.flagged_years),
        "x": result.x,
        "y": result.y,
        "p": result.p,
    }
    label = f"q={format_number(rule.q)}"
    return ReportDocument(
        kind="fit",
        metadata=dict(metadata),
        tables=(profile_table, year_table, summary),
        payload=payload,
        plot_rows=((label, result.p),),
    )


def classify_report(
    metadata: Mapping,
    profile: IntervalProfile,
    rule: QuorumRule,
    rows: tuple[tuple[int, int], ...],
) -> ReportDocument:
    """``rows`` holds (year, membership) pairs for the classified input rows."""
    required = rule.required(profile.n_factors)
    table = ReportTable(
        title=f"classification (quorum requires {required} of {profile.n_factors})",
        columns=("year", "membership", "prediction"),
        rows=tuple(
            (str(year), str(count), "critical" if count >= required else "non_critical")
            for year, count in rows
        ),
    )
    payload = {
        "quorum": rule.q,
        "required": required,
        "predictions": [
            {
                "year": year,
                "membership": count,
                "prediction": "critical" if count >= required else "non_critical",
            }
            for year, count in rows
        ],
    }
    n_critical = sum(1 for _, count in rows if count >= required)
    payload["n_predicted_critical"] = n_critical
    return ReportDocument(
        kind="classify",
        metadata=dict(metadata),
        tables=(table,),
        payload=payload,
        plot_rows=(),
    )


def backtest_report(metadata: Mapping, result: BacktestResult, rule: QuorumRule) -> ReportDocument:
    verdicts = ReportTable(
        title="verdicts",
        columns=("year", "prediction", "membership", "truth"),
        rows=tuple(
            (
                str(v.year),
                v.prediction,
                _cell(v.membership) if v.membership is not None else "-",
                _cell(v.truth) if v.truth is not None else "-",
            )
            for v in result.verdicts
        ),
    )
    summary = ReportTable(
        title="backtest summary",
        columns=("x", "y", "p", "no_forecast"),
        rows=((str(result.x), str(result.y), _cell(result.p), str(result.n_no_forecast)),),
    )
    payload = {
        "verdicts": [
            {
                "year": v.year,
                "prediction": v.prediction,
                "membership": v.membership,
                "truth": v.truth,
            }
            for v in result.verdicts
        ],
        "x": result.x,
        "y": result.y,
        "p": result.p,
        "n_no_forecast": result.n_no_forecast,
    }
    label = f"q={format_number(rule.q)}"
    return ReportDocument(
        kind="backtest",
        metadata=dict(metadata),
        tables=(verdicts, summary),
        payload=payload,
        plot_rows=((label, result.p),),
    )


def sweep_report_document(metadata: Mapping, report: SweepReport) -> ReportDocument:
    table = ReportTable(
        title=f"{report.axis} sweep",
        columns=("configuration", "status", "x", "y", "p", "no_forecast", "note"),
        rows=tuple(
            (
                row.configuration,
                row.status,
                _cell(row.x) if row.x is not None else "-",
                _cell(row.y) if row.y is not None else "-",
                _cell(row.p) if not (row.status == "skipped") else "-",
                _cell(row.n_no_forecast) if row.n_no_forecast is not None else "-",
                row.note,
            )
            for row in report.rows
        ),
    )
    payload = {
        "axis": report.axis,
        "rows": [
            {
                "configuration": row.configuration,
                "status": row.status,
                "x": row.x,
                "y": row.y,
                "p": row.p,
                "n_no_forecast": row.n_no_forecast,
                "note": row.note,
            }
            for row in report.rows
        ],
    }
    return ReportDocument(
        kind="sweep",
        metadata=dict(metadata),
        tables=(table,),
        payload=payload,
        plot_rows=tuple((row.configuration, row.p) for row in report.rows),
    )


def _render_text(doc: ReportDocument) -> str:
    lines = [f"factorcast {doc.kind} report"]
    lines.append("=" * len(lines[0]))
    lines.extend(f"{key}: {_cell(value)}" for key, value in doc.metadata.items())
    for table in doc.tables:
        widths = [max(map(len, column)) for column in zip(table.columns, *table.rows)]
        row = "  ".join(f"{{:<{w}}}" for w in widths).format
        lines.append("")
        lines.append(table.title)
        lines.append(row(*table.columns).rstrip())
        lines.append("  ".join("-" * w for w in widths))
        lines.extend(map(str.rstrip, starmap(row, table.rows)))
    return "\n".join(lines) + "\n"


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


def _flat_dict_rows(rows) -> bool:
    """True for a list of non-empty dicts whose values are all scalars."""
    return (
        all(rows)
        and all(issubclass(t, dict) for t in set(map(type, rows)))
        and not _holds_container(chain.from_iterable(map(dict.values, rows)))
    )


def _json_at(value, depth: int) -> str:
    """``value`` as indented JSON for a place ``depth`` indents deep."""
    if not isinstance(value, _CONTAINERS):
        return _c_encode(0)(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    is_dict = isinstance(value, dict)
    pad = "\n" + _INDENT * (depth + 1)
    end = "\n" + _INDENT * depth
    if not _holds_container(value.values() if is_dict else value):
        # One call; only the opening and closing brackets need their own lines.
        text = _c_encode(depth + 1)(value)
        return text[0] + pad + text[1:-1] + end + text[-1]
    if not is_dict and _flat_dict_rows(value):
        # One call for all rows; "}," + row_pad + "{" can only be a row join,
        # since a string always ends in a quote.
        row_pad = pad + _INDENT
        body = _c_encode(depth + 2)(value)[2:-2]
        body = body.replace("}," + row_pad + "{", pad + "}," + pad + "{" + row_pad)
        return "[" + pad + "{" + row_pad + body + pad + "}" + end + "]"
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

    ``json.dumps`` with an indent always runs the pure-Python encoder. This
    writer runs the C encoder once per container, or once per list of flat
    dicts (such as the per-year rows), and splices the indentation in.
    """
    return _json_at(value, 0) + "\n"


def _render_json(doc: ReportDocument) -> str:
    return json_text({"report": doc.kind, "metadata": doc.metadata, "result": doc.payload})


def _render_plot_csv(doc: ReportDocument) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["configuration", "p"])
    for label, p in doc.plot_rows:
        writer.writerow([label, "" if p is None else format_number(p)])
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
        "profile": profile.to_dict(),
    }
    return json_text(doc)


def profile_from_json(text: str) -> tuple[IntervalProfile, QuorumRule]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProfileError(f"profile document is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != PROFILE_FORMAT:
        raise ProfileError("not a factorcast profile document")
    if doc.get("version") != PROFILE_VERSION:
        raise ProfileError(f"unsupported profile version {doc.get('version')!r}")
    try:
        profile = IntervalProfile.from_dict(doc["profile"])
        rule = QuorumRule(float(doc["quorum"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProfileError(f"malformed profile document: {exc}") from None
    return profile, rule
