"""Report rendering: canonical bytes, undefined-p handling, profile persistence."""

import json

import pytest

from factorcast import (
    BacktestConfig,
    CriticalThreshold,
    FactorSelection,
    QuorumRule,
    build_profile,
    label_critical,
    rolling_backtest,
)
from factorcast import report as report_module
from factorcast.backtest import Verdict
from factorcast.errors import ProfileError
from factorcast.matrix import TemporalMatrix
from factorcast.report import (
    backtest_report,
    classify_report,
    emit_report,
    fit_report,
    profile_from_json,
    profile_to_json,
    sweep_report_document,
)
from factorcast.sweeps import SweepReport, SweepRow, SweepSpec, threshold_sensitivity


def fixture():
    m = TemporalMatrix(
        tuple(range(2000, 2006)),
        (10.0, 3.0, 9.0, 2.0, 8.0, 4.0),
        ("f",),
        {"f": (5.0, 4.0, 6.0, 1.0, 7.0, 5.5)},
    )
    labels = label_critical(m, CriticalThreshold(8.0))
    return m, labels


META = {"tool": "factorcast", "version": "test"}


def fit_doc(rule=QuorumRule(1.0)):
    m, labels = fixture()
    selection = FactorSelection(("f",))
    profile = build_profile(m, labels, selection)
    replay = BacktestConfig(rule, labels.threshold, eval_mode="in_sample")
    return fit_report(META, m, profile, rule, rolling_backtest(m, labels, selection, replay))


class TestEmission:
    @pytest.mark.parametrize("fmt", ["text", "json", "plot_csv"])
    def test_same_document_same_bytes(self, fmt):
        assert emit_report(fit_doc(), fmt) == emit_report(fit_doc(), fmt)

    def test_text_contains_counts(self):
        text = emit_report(fit_doc(), "text")
        assert "x  y  p" in text
        assert "3  1  0.75" in text

    def test_json_is_canonical(self):
        out = emit_report(fit_doc(), "json")
        body = json.loads(out)
        assert body["report"] == "fit"
        assert body["result"]["x"] == 3
        assert body["result"]["p"] == 0.75
        assert list(body["metadata"].keys()) == sorted(body["metadata"].keys())

    def test_plot_csv_two_columns(self):
        out = emit_report(fit_doc(), "plot_csv")
        lines = out.splitlines()
        assert lines[0] == "configuration,p"
        assert lines[1] == "q=1.0,0.75"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(fit_doc(), "yaml")


class TestFormatLaziness:
    def results(self):
        m, labels = fixture()
        rule = QuorumRule(1.0)
        selection = FactorSelection(("f",))
        cfg = BacktestConfig(rule=rule, threshold=labels.threshold, min_train_years=3)
        spec = SweepSpec("threshold", selection, cfg, (8.0, 99.0))
        return rule, rolling_backtest(m, labels, selection, cfg), threshold_sensitivity(m, spec)

    def test_only_text_formats_cells(self, monkeypatch):
        calls = []
        cell = report_module._cell
        monkeypatch.setattr(report_module, "_cell", lambda v: calls.append(v) or cell(v))
        m, labels = fixture()
        rule, backtest, sweep = self.results()
        profile = build_profile(m, labels, FactorSelection(("f",)))
        docs = [
            fit_doc(),
            classify_report(META, profile, rule, ((2000, 1), (2001, 0))),
            backtest_report(META, backtest, rule),
            sweep_report_document(META, sweep),
        ]
        assert calls == []
        for doc in docs:
            emit_report(doc, "json")
            emit_report(doc, "plot_csv")
        assert calls == []
        for doc in docs:
            emit_report(doc, "text")
        assert calls

    def test_result_tuples_are_the_table_rows(self):
        rule, backtest, sweep = self.results()
        (verdicts,) = backtest_report(META, backtest, rule).tables
        assert verdicts.rows is backtest.verdicts and verdicts.columns == Verdict._fields
        (rows,) = sweep_report_document(META, sweep).tables
        assert rows.rows is sweep.rows and rows.columns == SweepRow._fields


class TestUndefinedPrecision:
    def doc(self):
        # Criticals only in the final two years: every verdict is
        # no_forecast, so p is undefined.
        m = TemporalMatrix(
            tuple(range(2000, 2008)),
            (1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 9.0, 9.0),
            ("f",),
            {"f": tuple(float(i) for i in range(8))},
        )
        labels = label_critical(m, CriticalThreshold(9.0))
        cfg = BacktestConfig(rule=QuorumRule(1.0), threshold=CriticalThreshold(9.0))
        result = rolling_backtest(m, labels, FactorSelection(("f",)), cfg)
        assert result.p is None
        return backtest_report(META, result, QuorumRule(1.0))

    def test_text_renders_undefined(self):
        assert "undefined" in emit_report(self.doc(), "text")

    def test_json_renders_null(self):
        body = json.loads(emit_report(self.doc(), "json"))
        assert body["result"]["p"] is None

    def test_plot_csv_renders_empty(self):
        lines = emit_report(self.doc(), "plot_csv").splitlines()
        assert lines[1].endswith(",")


class TestSkippedRows:
    def doc(self):
        m, labels = fixture()
        cfg = BacktestConfig(
            rule=QuorumRule(1.0), threshold=CriticalThreshold(8.0), eval_mode="in_sample"
        )
        spec = SweepSpec(
            axis="threshold",
            selection=FactorSelection(("f",)),
            config=cfg,
            grid=(8.0, 99.0),
        )
        report = threshold_sensitivity(m, spec)
        assert report.rows[1].status == "skipped"
        return sweep_report_document(META, report)

    def test_skipped_row_present_everywhere(self):
        doc = self.doc()
        text = emit_report(doc, "text")
        assert "skipped" in text
        body = json.loads(emit_report(doc, "json"))
        assert body["result"]["rows"][1]["status"] == "skipped"
        lines = emit_report(doc, "plot_csv").splitlines()
        assert len(lines) == 3
        assert lines[2] == "99.0,"


class TestUndefinedCells:
    @pytest.mark.parametrize("configuration", ["skipped", "no_forecast"])
    def test_ok_row_with_undefined_p_renders_undefined(self, configuration):
        # The cell rule reads values, not text: a subset named like a status
        # still gets "undefined" for a p beside integer counts.
        rows = (
            SweepRow(configuration, "ok", 0, 0, None, 2),
            SweepRow("a+b", "skipped", None, None, None, None, "nothing applies"),
        )
        doc = sweep_report_document(META, SweepReport("factor_subset", rows))
        lines = emit_report(doc, "text").splitlines()
        assert lines[-2].split() == [configuration, "ok", "0", "0", "undefined", "2"]
        assert lines[-1].split() == ["a+b", "skipped", "-", "-", "-", "-", "nothing", "applies"]


class TestProfilePersistence:
    def test_round_trip(self):
        m, labels = fixture()
        profile = build_profile(m, labels, FactorSelection(("f",)), widen_eps=0.125)
        rule = QuorumRule(0.75)
        text = profile_to_json(profile, rule)
        loaded_profile, loaded_rule = profile_from_json(text)
        assert loaded_profile == profile
        assert loaded_rule == rule

    def test_missing_widen_eps_reads_as_zero(self):
        m, labels = fixture()
        profile = build_profile(m, labels, FactorSelection(("f",)))
        doc = json.loads(profile_to_json(profile, QuorumRule(0.75)))
        del doc["profile"]["intervals"][0]["widen_eps"]
        loaded_profile, _ = profile_from_json(json.dumps(doc))
        assert loaded_profile == profile
        assert loaded_profile.intervals[0].widen_eps == 0.0

    def test_rejects_garbage(self):
        with pytest.raises(ProfileError):
            profile_from_json("not json at all")
        with pytest.raises(ProfileError):
            profile_from_json(json.dumps({"format": "something-else"}))
        with pytest.raises(ProfileError):
            profile_from_json(
                json.dumps({"format": "factorcast-profile", "version": 99})
            )
        with pytest.raises(ProfileError):
            profile_from_json(
                json.dumps({"format": "factorcast-profile", "version": 1, "quorum": 0.5})
            )

    # A misspelled interval key once loaded silently with its default (widen_eps 0).
    @pytest.mark.parametrize(
        "path, key, where",
        [
            (("profile", "intervals", 0), "widen_esp", "interval"),
            ((), "quorom", "top-level"),
            (("profile",), "n_critical", "profile"),
        ],
    )
    def test_rejects_unknown_keys(self, path, key, where):
        m, labels = fixture()
        profile = build_profile(m, labels, FactorSelection(("f",)), widen_eps=0.5)
        doc = json.loads(profile_to_json(profile, QuorumRule(0.75)))
        target = doc
        for parent in path:
            target = target[parent]
        target[key] = 0.5
        with pytest.raises(ProfileError, match=f"unknown {where} key '{key}'"):
            profile_from_json(json.dumps(doc))

    @pytest.mark.parametrize("version", [1.0, True, "1"])
    def test_rejects_a_version_that_only_equals_1(self, version):
        m, labels = fixture()
        profile = build_profile(m, labels, FactorSelection(("f",)))
        doc = json.loads(profile_to_json(profile, QuorumRule(0.75)))
        doc["version"] = version
        with pytest.raises(ProfileError, match="unsupported profile version"):
            profile_from_json(json.dumps(doc))

    @pytest.mark.parametrize("field", ["lo", "hi", "widen_eps"])
    def test_rejects_non_finite_interval_numbers(self, field):
        m, labels = fixture()
        profile = build_profile(m, labels, FactorSelection(("f",)))
        doc = json.loads(profile_to_json(profile, QuorumRule(0.75)))
        doc["profile"]["intervals"][0][field] = float("nan")
        # json.dumps writes NaN, which json.loads reads back as a float NaN.
        with pytest.raises(ProfileError):
            profile_from_json(json.dumps(doc))

    # fit never writes these types here; none is coerced (2.7 to 2, 5 to "5", true to 1.0).
    @pytest.mark.parametrize(
        "path, value",
        [
            (("profile", "n_critical_train"), 2.7),
            (("profile", "n_critical_train"), 1e300),
            (("profile", "n_critical_train"), 3.0),
            (("profile", "n_critical_train"), True),
            (("profile", "n_critical_train"), "3"),
            (("profile", "intervals", 0, "factor"), 5),
            (("profile", "intervals", 0, "factor"), None),
            (("profile", "intervals", 0, "lo"), "1.5"),
            (("profile", "intervals", 0, "hi"), True),
            (("profile", "intervals", 0, "widen_eps"), None),
            (("quorum",), True),
            (("quorum",), "0.75"),
        ],
    )
    def test_rejects_fields_of_another_json_type(self, path, value):
        m, labels = fixture()
        profile = build_profile(m, labels, FactorSelection(("f",)))
        doc = json.loads(profile_to_json(profile, QuorumRule(0.75)))
        *parents, key = path
        target = doc
        for parent in parents:
            target = target[parent]
        target[key] = value
        with pytest.raises(ProfileError, match=f"{key} must be "):
            profile_from_json(json.dumps(doc))

    def test_integer_numbers_load_as_floats(self):
        m, labels = fixture()
        profile = build_profile(m, labels, FactorSelection(("f",)))
        doc = json.loads(profile_to_json(profile, QuorumRule(1.0)))
        doc["quorum"] = 1
        doc["profile"]["intervals"][0].update(lo=5, hi=10, widen_eps=0)
        loaded_profile, loaded_rule = profile_from_json(json.dumps(doc))
        (interval,) = loaded_profile.intervals
        numbers = (interval.lo, interval.hi, interval.widen_eps, loaded_rule.q)
        assert numbers == (5.0, 10.0, 0.0, 1.0)
        assert {type(v) for v in numbers} == {float}

    def test_rejects_infinite_training_count(self):
        m, labels = fixture()
        profile = build_profile(m, labels, FactorSelection(("f",)))
        doc = json.loads(profile_to_json(profile, QuorumRule(0.75)))
        doc["profile"]["n_critical_train"] = float("inf")
        with pytest.raises(ProfileError):
            profile_from_json(json.dumps(doc))
