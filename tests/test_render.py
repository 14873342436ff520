"""The JSON writer and the text renderer against their references.

``report.json_text`` must return exactly ``json.dumps(value, indent=2,
sort_keys=True, ensure_ascii=True)`` plus a newline, the call every report
and profile used before, which stays here as the reference. ``_render_text``
must return exactly what the cell-by-cell renderer in ``_reference_report``
returns, and every JSON report must encode ``_reference_report.json_body``.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from factorcast import BacktestConfig, build_profile, rolling_backtest
from factorcast.recognizer import membership_lanes
from factorcast.report import (
    ReportDocument,
    ReportTable,
    backtest_report,
    classify_report,
    emit_report,
    fit_report,
    json_text,
    profile_to_json,
    sweep_report_document,
)
from factorcast.sweeps import SweepSpec, run_sweep

import _reference_report as ref
from _support import random_instance


def reference_json(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


# Strings that look like the separators the writer splices or replaces, for
# rows at depth 1 and 2, plus escapes (newline, quote, backslash, non-ASCII).
TRICKY = [
    "", "},\n    {", "},\n      {", "],\n  [", "}", "{", "\n", "\r\n", '"', "\\",
    "é", "a b", "\x00", ": ", ",\n  ",
]
SCALARS = [-0.0, 0.0, 5e-324, 1e308, 0.1 + 0.2, 2**63, 2**64 + 1, -(2**70), True, False, 1, 0, None]

strings = st.one_of(st.sampled_from(TRICKY), st.text(max_size=8))
scalars = st.one_of(
    st.sampled_from(SCALARS),
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    strings,
)
flat_dicts = st.dictionaries(strings, scalars, max_size=4)
flat_lists = st.lists(scalars, max_size=4)
int_key_dicts = st.dictionaries(st.integers(-5, 5), scalars, max_size=3)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(strings, children, max_size=4),
        st.dictionaries(st.integers(-5, 5), children, max_size=3),
    )


documents = st.recursive(
    st.one_of(scalars, flat_dicts, flat_lists, int_key_dicts),
    containers,
    max_leaves=30,
)
# Lists of rows: flat dicts only (empty dicts included), non-empty flat dicts,
# or flat dicts mixed with flat lists and scalars.
row_lists = st.one_of(
    st.lists(flat_dicts, max_size=5),
    st.lists(st.dictionaries(strings, scalars, min_size=1, max_size=4), min_size=1, max_size=5),
    st.lists(st.one_of(flat_dicts, flat_lists, scalars), max_size=5),
)


@st.composite
def report_tables(draw):
    """A table of 1-4 distinct keys, some with '%' in them, and 0-5 rows of scalars."""
    keys = st.one_of(strings, st.sampled_from(("%", "%s", "%%")))
    columns = tuple(draw(st.lists(keys, min_size=1, max_size=4, unique=True)))
    rows = draw(st.lists(st.tuples(*[scalars] * len(columns)), max_size=5))
    return ReportTable(draw(strings), columns, tuple(rows))


class TestJsonText:
    @settings(max_examples=400, deadline=None)
    @given(documents)
    def test_matches_json_dumps(self, value):
        assert json_text(value) == reference_json(value)

    @settings(max_examples=300, deadline=None)
    @given(row_lists, st.integers(0, 2))
    def test_row_lists_at_any_depth(self, rows, depth):
        value = rows
        for _ in range(depth):
            value = {"result": value, "x": 1}
        assert json_text(value) == reference_json(value)

    @settings(max_examples=300, deadline=None)
    @given(report_tables(), st.integers(0, 2))
    def test_tables_at_any_depth(self, table, depth):
        value = table
        for _ in range(depth):
            value = {"result": value, "x": 1}
        assert json_text(value) == reference_json(ref._json(value))

    def test_edge_values(self):
        for value in (
            {},
            [],
            [{}],
            [[]],
            {"a": {}, "b": []},
            [{"a": 1}, {}],
            [{"a": 1}, [1, 2], {"b": "},\n    {"}],
            {"},\n    {": [{"],\n  [": "\n"}, {"q": '"é"'}]},
            [-0.0, 5e-324, 1e308, 2**63, 2**64, True, 1, None],
            [{"t": True, "one": 1, "f": 0.0}],
            {1: [1], 2: {"x": None}},
            "é\n",
            2**100,
        ):
            assert json_text(value) == reference_json(value)


@st.composite
def report_documents(draw):
    """Every report kind, built from a random instance with odd metadata."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    m, labels, selection, rule = random_instance(rng, n_min=6, n_max=20)
    metadata = {
        "input": draw(strings),
        "threshold": labels.threshold.value,
        "quorum": rule.q,
        draw(strings): draw(scalars),
    }
    kind = draw(st.sampled_from(("fit", "classify", "backtest", "sweep")))
    eps = draw(st.sampled_from((0.0, 0.25)))
    profile = build_profile(m, labels, selection, widen_eps=eps)
    if kind == "fit":
        replay = BacktestConfig(rule, labels.threshold, eval_mode="in_sample", widen_eps=eps)
        result = rolling_backtest(m, labels, selection, replay)
        return fit_report(metadata, m, profile, rule, result)
    if kind == "classify":
        lanes = membership_lanes([m.columns[name] for name in m.factor_names], profile=profile)
        scored = tuple(zip(m.years, lanes.counts(sum(lanes.factors))))
        return classify_report(metadata, profile, rule, scored)
    config = BacktestConfig(
        rule=rule,
        threshold=labels.threshold,
        eval_mode=draw(st.sampled_from(("rolling", "leave_one_out", "in_sample"))),
    )
    if kind == "backtest":
        return backtest_report(metadata, rolling_backtest(m, labels, selection, config), rule)
    axis, grid = draw(
        st.sampled_from(
            (
                ("factor_subset", None),
                ("quorum", (0.25, 0.5, 1.0)),
                ("threshold", (labels.threshold.value, 99.0)),
                ("lag", (0, 1)),
                ("row_length", (5, 8, 30)),
            )
        )
    )
    report = run_sweep(m, labels, SweepSpec(axis, selection, config, grid))
    return sweep_report_document(metadata, report)


class TestReports:
    @settings(max_examples=200, deadline=None)
    @given(report_documents())
    def test_json_and_text_match_references(self, doc):
        assert emit_report(doc, "json") == reference_json(ref.json_body(doc))
        assert emit_report(doc, "text") == ref.render_text(doc)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from((0.0, 0.125, 1e-300)))
    def test_profile_matches_reference(self, seed, eps):
        m, labels, selection, rule = random_instance(random.Random(seed), n_max=20)
        profile = build_profile(m, labels, selection, widen_eps=eps)
        doc = {
            "format": "factorcast-profile",
            "version": 1,
            "quorum": rule.q,
            "profile": {
                "n_critical_train": profile.n_critical_train,
                "intervals": [
                    {"factor": iv.factor, "lo": iv.lo, "hi": iv.hi, "widen_eps": iv.widen_eps}
                    for iv in profile.intervals
                ],
            },
        }
        assert profile_to_json(profile, rule) == reference_json(doc)


def text_doc(*tables, metadata=None):
    return ReportDocument(
        kind="test",
        metadata={"input": "x.csv", "quorum": 0.75} if metadata is None else metadata,
        tables=tables,
        result={},
    )


cells = st.one_of(
    st.sampled_from(("", " ", "-", "undefined", " pad ", "{}", "{0}", "%s", "%%", "%-3s")),
    st.text(max_size=12),
)


@st.composite
def text_tables(draw):
    n_columns = draw(st.integers(1, 5))
    columns = tuple(draw(cells) for _ in range(n_columns))
    rows = tuple(
        tuple(draw(cells) for _ in range(n_columns)) for _ in range(draw(st.integers(0, 6)))
    )
    return ReportTable(draw(st.text(max_size=10)), columns, rows)


class TestRenderText:
    def test_edge_tables(self):
        doc = text_doc(
            ReportTable("no rows", ("year", "p"), ()),
            ReportTable("empty trailing cells", ("year", "note"), (("2001", ""), ("2002", ""))),
            ReportTable(
                "wide cells",
                ("x", "y", "note"),
                (("123456", "-", "a long note"), ("1", "", ""), ("", "7", "n")),
            ),
            ReportTable("one column", ("year",), (("2001",), ("",))),
            metadata={},
        )
        assert emit_report(doc, "text") == ref.render_text(doc)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(text_tables(), max_size=3))
    def test_matches_reference(self, tables):
        doc = text_doc(*tables)
        assert emit_report(doc, "text") == ref.render_text(doc)
