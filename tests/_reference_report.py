"""Test-only reference: the cell-by-cell text renderer.

``render_text`` is the ``ljust``-per-cell ``_render_text`` that
``factorcast.report`` replaced, kept unchanged so tests can compare the bytes
of the two. The JSON writer's reference is ``json.dumps`` itself (see
``tests/test_report.py``).
"""

from __future__ import annotations

from factorcast.report import ReportDocument, _cell


def render_text(doc: ReportDocument) -> str:
    lines = [f"factorcast {doc.kind} report"]
    lines.append("=" * len(lines[0]))
    for key, value in doc.metadata.items():
        lines.append(f"{key}: {_cell(value)}")
    for table in doc.tables:
        lines.append("")
        lines.append(table.title)
        widths = [len(col) for col in table.columns]
        for row in table.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines.append("  ".join(col.ljust(w) for col, w in zip(table.columns, widths)).rstrip())
        lines.append("  ".join("-" * w for w in widths))
        for row in table.rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"
