"""Test-only references: the cell-by-cell text renderer and the JSON body.

``render_text`` is the ``ljust``-per-cell ``_render_text`` that
``factorcast.report`` replaced. It formats every cell on its own by the rule
the report module documents, so tests compare both the cell rule and the
layout: ``None`` is ``-``, except a ``p`` beside integer counts, which is
``undefined``. ``json_body`` is the body a JSON report encodes; the JSON
writer's reference is ``json.dumps`` itself (see ``tests/test_render.py``).
"""

from __future__ import annotations

from factorcast.report import ReportDocument, ReportTable


def cell(value) -> str:
    if value is None:
        return "-"
    if value is True or value is False:
        return "yes" if value else "no"
    return repr(value) if isinstance(value, float) else str(value)


def _table_cells(table: ReportTable) -> list[list[str]]:
    rows = []
    for row in table.rows:
        cells = [cell(value) for value in row]
        if "p" in table.columns and "x" in table.columns:
            p, x = table.columns.index("p"), table.columns.index("x")
            if row[p] is None and isinstance(row[x], int):
                cells[p] = "undefined"
        rows.append(cells)
    return rows


def render_text(doc: ReportDocument) -> str:
    lines = [f"factorcast {doc.kind} report"]
    lines.append("=" * len(lines[0]))
    for key, value in doc.metadata.items():
        lines.append(f"{key}: {cell(value)}")
    tables = doc.tables if doc.summary is None else (*doc.tables, doc.summary)
    for table in tables:
        columns = ["no_forecast" if c == "n_no_forecast" else c for c in table.columns]
        rows = _table_cells(table)
        lines.append("")
        lines.append(table.title)
        widths = [len(col) for col in columns]
        for row in rows:
            for i, text in enumerate(row):
                widths[i] = max(widths[i], len(text))
        lines.append("  ".join(col.ljust(w) for col, w in zip(columns, widths)).rstrip())
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(text.ljust(w) for text, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _json(value):
    if isinstance(value, ReportTable):
        return [{key: row[i] for i, key in enumerate(value.columns)} for row in value.rows]
    if isinstance(value, dict):
        return {key: _json(item) for key, item in value.items()}
    return value


def json_body(doc: ReportDocument) -> dict:
    result = _json(doc.result)
    if doc.summary is not None:
        (row,) = doc.summary.rows
        result.update({key: row[i] for i, key in enumerate(doc.summary.columns)})
    return {"report": doc.kind, "metadata": doc.metadata, "result": result}
