"""CLI behavior: exit codes, determinism, and committed golden outputs.

Regenerate the golden files after an intentional output change with::

    REGEN_GOLDEN=1 pytest tests/test_cli.py

and review the diff before committing.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcast.cli import build_parser, main
from factorcast.matrix import TemporalMatrix

from _support import (
    FIXTURES,
    GOLDEN,
    GOLDEN_CASES,
    lagged_matrix,
    run_cli_to_file,
    setup_cli_workdir,
)

REGEN = os.environ.get("REGEN_GOLDEN") == "1"


@pytest.fixture
def workdir(tmp_path, capsys):
    path = setup_cli_workdir(tmp_path)
    capsys.readouterr()
    return path


def we_args(workdir, *extra):
    return ["--input", str(workdir / "worked_example.csv"), *extra]


class TestGolden:
    @pytest.mark.parametrize("name,argv_for", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
    def test_matches_golden_and_reruns_identically(self, workdir, name, argv_for):
        argv = argv_for(workdir)
        first = run_cli_to_file(argv, workdir / f"first_{name}")
        second = run_cli_to_file(argv, workdir / f"second_{name}")
        assert first == second
        golden_path = GOLDEN / name
        if REGEN:
            golden_path.write_bytes(first)
        assert first == golden_path.read_bytes()

    @pytest.mark.parametrize("name,argv_for", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
    def test_fresh_process_matches_golden(self, workdir, name, argv_for):
        """A fresh process, which builds the parser for the first time, prints the golden.

        Runs ``python -m factorcast``, and the ``factorcast`` script when one is on PATH.
        """
        paths = (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        script = shutil.which("factorcast")
        commands = [[sys.executable, "-m", "factorcast"], *([[script]] if script else [])]
        for command in commands:
            done = subprocess.run(
                [*command, *argv_for(workdir)], capture_output=True, env=env, check=True
            )
            assert done.stdout == (GOLDEN / name).read_bytes(), command

    def test_every_golden_file_is_compared(self):
        """Each file under ``golden/`` is read by a test above, so none is left unchecked."""
        compared = {name for name, _ in GOLDEN_CASES}
        compared |= {"profile.json", "synth.csv", "synth_truth.csv"}
        assert {path.name for path in GOLDEN.iterdir()} == compared

    def test_profile_document_matches_golden(self, workdir):
        produced = (workdir / "profile.json").read_bytes()
        golden_path = GOLDEN / "profile.json"
        if REGEN:
            golden_path.write_bytes(produced)
        assert produced == golden_path.read_bytes()

    def test_synth_files_match_golden(self, workdir):
        out = workdir / "synthetic_small.csv"
        argv = [
            "synth",
            "--seed", "7",
            "--years", "10",
            "--factors", "3",
            "--output", str(out),
        ]
        assert main(argv) == 0
        data = out.read_bytes()
        truth = (workdir / "synthetic_small_truth.csv").read_bytes()
        for name, produced in (("synth.csv", data), ("synth_truth.csv", truth)):
            golden_path = GOLDEN / name
            if REGEN:
                golden_path.write_bytes(produced)
            assert produced == golden_path.read_bytes()


class TestBehavior:
    def test_fit_reports_worked_example_counts(self, workdir, capsys):
        code = main(
            ["fit", *we_args(workdir, "--threshold", "8", "--quorum", "1.0", "--format", "json")]
        )
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        assert body["result"]["x"] == 3
        assert body["result"]["y"] == 1
        assert body["result"]["p"] == 0.75

    def test_percent_quorum_normalized(self, workdir, capsys):
        base = ["fit", *we_args(workdir, "--threshold", "8", "--format", "json")]
        assert main([*base, "--quorum", "75%"]) == 0
        with_percent = capsys.readouterr().out
        assert main([*base, "--quorum", "0.75"]) == 0
        with_fraction = capsys.readouterr().out
        assert with_percent == with_fraction

    @pytest.mark.parametrize("fmt", ["plot_csv", "text", "json"])
    def test_percent_quorum_grid_normalized(self, workdir, capsys, fmt):
        base = ["sweep", *we_args(workdir, "--threshold", "8", "--axis", "quorum", "--format", fmt)]
        assert main([*base, "--grid", "50%,100%"]) == 0
        with_percent = capsys.readouterr().out
        assert main([*base, "--grid", "0.5,1.0"]) == 0
        with_fraction = capsys.readouterr().out
        # The metadata echoes --grid as typed; every other byte is the same.
        if fmt == "text":
            with_percent = with_percent.replace("grid: 50%,100%\n", "grid: 0.5,1.0\n", 1)
        if fmt == "json":
            with_percent = with_percent.replace('"grid": "50%,100%"', '"grid": "0.5,1.0"', 1)
        assert with_percent == with_fraction

    def test_threshold_grid_points_sharing_a_labeling_keep_their_labels(self, workdir, capsys):
        # 8 and 8.0 are one value, and 7.5 flags the same years as 8: no incidence
        # lies in [7.5, 8). Each row is the one its grid value gives alone.
        base = ["sweep", *we_args(workdir, "--axis", "threshold", "--format", "json")]
        assert main([*base, "--grid", "8,8.0,-0.0,7.5"]) == 0
        rows = json.loads(capsys.readouterr().out)["result"]["rows"]
        assert [row["configuration"] for row in rows] == ["8.0", "8.0", "-0.0", "7.5"]
        for value, row in zip(["8", "8.0", "-0.0", "7.5"], rows):
            assert main([*base, "--grid", value]) == 0
            assert json.loads(capsys.readouterr().out)["result"]["rows"] == [row]

    def test_out_of_range_percent_quorum_grid_is_data_error(self, workdir, capsys):
        argv = ["sweep", *we_args(workdir, "--threshold", "8", "--axis", "quorum")]
        assert main([*argv, "--grid", "50%,150%"]) == 2
        assert capsys.readouterr().err == "error: quorum must be a fraction in (0, 1], got 1.5\n"

    def test_factor_subset_grid_names_are_stripped(self, workdir, capsys):
        base = ["sweep", *we_args(workdir, "--threshold", "8", "--axis", "factor_subset")]
        assert main([*base, "--grid", "may_temp , may_temp"]) == 0
        spaced = capsys.readouterr().out
        assert main([*base, "--grid", "may_temp,may_temp"]) == 0
        unspaced = capsys.readouterr().out
        # The metadata echoes --grid as typed; every other byte is the same.
        spaced = spaced.replace("grid: may_temp , may_temp\n", "grid: may_temp,may_temp\n", 1)
        assert spaced == unspaced

    def test_classify_round_trip(self, workdir, capsys):
        code = main(
            [
                "classify",
                "--input", str(workdir / "worked_example.csv"),
                "--profile", str(workdir / "profile.json"),
                "--format", "json",
            ]
        )
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        predictions = {row["year"]: row["prediction"] for row in body["result"]["predictions"]}
        assert predictions[2001] == "critical"
        assert predictions[2002] == "non_critical"
        assert predictions[2006] == "critical"

    def test_classify_accepts_factor_only_csv(self, workdir, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text("year,may_temp\n2031,6.5\n2032,1.0\n", encoding="utf-8")
        code = main(
            [
                "classify",
                "--input", str(rows),
                "--profile", str(workdir / "profile.json"),
                "--format", "json",
            ]
        )
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        predictions = {row["year"]: row["prediction"] for row in body["result"]["predictions"]}
        assert predictions == {2031: "critical", 2032: "non_critical"}

    def test_classify_reads_a_factor_named_year_after_the_year_column(self, tmp_path, capsys):
        train, rows, profile = tmp_path / "train.csv", tmp_path / "rows.csv", tmp_path / "p.json"
        train.write_text(
            "year,incidence,year,g\n1990,12,50,1.0\n1991,3,40,0.2\n1992,15,55,1.2\n1993,2,60,3\n",
            encoding="utf-8",
        )
        rows.write_text("year,year,g\n2000,51,1.1\n", encoding="utf-8")
        fit = ["fit", "--input", str(train), "--threshold", "10", "--save-profile", str(profile)]
        assert main(fit) == 0
        intervals = json.loads(profile.read_text(encoding="utf-8"))["profile"]["intervals"]
        assert [(i["factor"], i["lo"], i["hi"]) for i in intervals[:1]] == [("year", 50.0, 55.0)]
        capsys.readouterr()
        classify = ["classify", "--input", str(rows), "--profile", str(profile), "--format", "json"]
        assert main(classify) == 0
        predictions = json.loads(capsys.readouterr().out)["result"]["predictions"]
        assert predictions == [{"membership": 2, "prediction": "critical", "year": 2000}]

    @pytest.mark.parametrize("name", ["fit.txt", "fit.json", "classify.txt"])
    def test_byte_order_mark_is_ignored(self, workdir, name):
        """A UTF-8 input with a leading BOM reports as without one, but for its digest."""
        plain_path = workdir / "worked_example.csv"
        bom_path = workdir / "bom" / "worked_example.csv"
        bom_path.parent.mkdir()
        bom_path.write_bytes(b"\xef\xbb\xbf" + plain_path.read_bytes())
        argv = dict(GOLDEN_CASES)[name](workdir)
        plain = run_cli_to_file(argv, workdir / "plain.out")
        with_bom = run_cli_to_file(
            [str(bom_path) if arg == str(plain_path) else arg for arg in argv], workdir / "bom.out"
        )
        digests = [hashlib.sha256(p.read_bytes()).hexdigest().encode() for p in (plain_path, bom_path)]
        assert plain.count(digests[0]) == 1
        assert with_bom == plain.replace(*digests)

    def test_profile_byte_order_mark_is_ignored(self, workdir):
        """A saved profile that an editor re-saved with a BOM classifies as without one."""
        plain_path = workdir / "profile.json"
        bom_path = workdir / "bom" / "profile.json"
        bom_path.parent.mkdir()
        bom_path.write_bytes(b"\xef\xbb\xbf" + plain_path.read_bytes())
        argv = ["classify", *we_args(workdir, "--profile")]
        plain = run_cli_to_file([*argv, str(plain_path)], workdir / "plain.out")
        with_bom = run_cli_to_file([*argv, str(bom_path)], workdir / "bom.out")
        assert with_bom == plain

    def test_synth_twice_is_identical(self, tmp_path, capsys):
        args = ["synth", "--seed", "7", "--years", "30", "--factors", "8"]
        assert main([*args, "--output", str(tmp_path / "a.csv")]) == 0
        assert main([*args, "--output", str(tmp_path / "b.csv")]) == 0
        capsys.readouterr()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a_truth.csv").read_bytes() == (tmp_path / "b_truth.csv").read_bytes()

    def test_lag_flag_drops_leading_rows(self, workdir, capsys):
        assert (
            main(
                [
                    "fit",
                    *we_args(
                        workdir,
                        "--threshold", "8",
                        "--quorum", "1.0",
                        "--lag", "1",
                        "--format", "json",
                    ),
                ]
            )
            == 0
        )
        body = json.loads(capsys.readouterr().out)
        assert body["metadata"]["lag"] == 1
        assert len(body["result"]["per_year"]) == 5


class TestParserReuse:
    """``main`` reuses one parser per process; no call may leak into the next."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_fit_usage_error_classify_in_one_process(self, workdir, capsys):
        cases = dict(GOLDEN_CASES)
        fit = run_cli_to_file(cases["fit.txt"](workdir), workdir / "fit.txt")
        assert fit == (GOLDEN / "fit.txt").read_bytes()
        with pytest.raises(SystemExit) as err:
            main(["fit", *we_args(workdir, "--threshold", "8", "--quorum", "2.0")])
        assert err.value.code == 1
        assert capsys.readouterr().err.startswith("usage: factorcast fit ")
        classify = run_cli_to_file(cases["classify.txt"](workdir), workdir / "classify.txt")
        assert classify == (GOLDEN / "classify.txt").read_bytes()

    def test_flags_do_not_carry_over(self, workdir):
        parser = build_parser()
        first = parser.parse_args(
            ["fit", *we_args(workdir, "--threshold", "8", "--factors", "may_temp", "--lag", "1")]
        )
        assert (first.factors, first.lag) == ("may_temp", 1)
        second = parser.parse_args(["fit", *we_args(workdir, "--threshold", "8")])
        assert (second.factors, second.lag) == (None, 0)
        third = parser.parse_args(["classify", *we_args(workdir, "--profile", "p.json")])
        assert not hasattr(third, "factors") and not hasattr(third, "lag")

    def test_help_width_follows_columns_on_every_call(self, monkeypatch, capsys):
        widths = {}
        for columns in ("40", "200", "40"):
            monkeypatch.setenv("COLUMNS", columns)
            with pytest.raises(SystemExit) as err:
                main(["fit", "--help"])
            assert err.value.code == 0
            widths.setdefault(columns, set()).add(
                max(map(len, capsys.readouterr().out.splitlines()))
            )
        assert len(widths["40"]) == 1 and len(widths["200"]) == 1
        assert max(widths["40"]) < 80 < max(widths["200"]) <= 200


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["fit"])  # missing --input and threshold flags
        assert err.value.code == 1

    def test_unknown_subcommand_is_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_bad_quorum_is_usage_error(self, workdir, capsys):
        with pytest.raises(SystemExit) as err:
            main(["fit", *we_args(workdir, "--threshold", "8", "--quorum", "2.0")])
        assert err.value.code == 1

    def test_data_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("year,incidence,f\n1990,1,2\n1990,3,4\n1991,5,6\n")
        assert main(["fit", "--input", str(bad), "--threshold", "1"]) == 2
        assert "duplicate year" in capsys.readouterr().err

    def test_missing_file_is_two(self, tmp_path, capsys):
        assert main(["fit", "--input", str(tmp_path / "nope.csv"), "--threshold", "1"]) == 2

    def test_insufficient_criticals_is_two(self, workdir, capsys):
        code = main(["fit", *we_args(workdir, "--threshold", "99", "--min-critical", "2")])
        assert code == 2
        assert "critical years" in capsys.readouterr().err

    def test_rolling_backtest_without_a_forecast_origin_is_two(self, tmp_path, capsys):
        data, report = tmp_path / "s.csv", tmp_path / "report.txt"
        assert main(["synth", "--years", "12", "--output", str(data)]) == 0
        capsys.readouterr()
        argv = ["backtest", "--input", str(data), "--threshold", "10", "--output", str(report)]
        assert main([*argv, "--min-train-years", "50"]) == 2
        assert capsys.readouterr().err == "error: series has 12 years, at least 51 required\n"
        assert not report.exists()
        # The rows left after --lag are what the first origin needs.
        assert main([*argv, "--min-train-years", "11", "--lag", "1"]) == 2
        assert capsys.readouterr().err == "error: series has 11 years, at least 12 required\n"
        assert main([*argv, "--min-train-years", "11"]) == 0

    def test_rolling_sweep_without_a_forecast_origin_is_two(self, tmp_path, capsys):
        data, report = tmp_path / "s.csv", tmp_path / "report.txt"
        assert main(["synth", "--years", "12", "--output", str(data)]) == 0
        capsys.readouterr()
        sweep = ["sweep", "--input", str(data), "--mode", "rolling", "--output", str(report)]
        quorum = ["--threshold", "10", "--axis", "quorum", "--grid", "0.5,1.0"]
        threshold = ["--axis", "threshold", "--grid", "10,12"]
        for flags, n_years, required in (
            ([*quorum, "--min-train-years", "50"], 12, 51),
            ([*threshold, "--min-train-years", "50"], 12, 51),
            # The rows left after --lag are what the first origin needs.
            ([*quorum, "--min-train-years", "9", "--lag", "3"], 9, 10),
        ):
            assert main([*sweep, *flags]) == 2, flags
            error = f"error: series has {n_years} years, at least {required} required\n"
            assert capsys.readouterr() == ("", error)
            assert not report.exists()
        assert main([*sweep, *quorum, "--min-train-years", "9"]) == 0

    def test_lag_over_a_year_gap_is_two(self, tmp_path, capsys):
        data, report = tmp_path / "gappy.csv", tmp_path / "report.txt"
        years = (1990, 1991, 1995, 1996, 1997, 1998)
        rows = [f"{year},{10.0 + 3 * (k % 2)},{k},{2 * k}" for k, year in enumerate(years)]
        data.write_text("\n".join(["year,incidence,a,b", *rows, ""]), encoding="utf-8")
        base = ["--input", str(data), "--threshold", "9", "--output", str(report)]
        fit, backtest = ["fit", *base], ["backtest", *base, "--min-train-years", "3"]
        sweep = ["sweep", *base, "--axis", "lag"]
        for argv, lag in (
            ([*fit, "--lag", "1"], 1),
            ([*backtest, "--lag", "2"], 2),
            # The first nonzero lag of the grid is named.
            ([*sweep, "--grid", "0,3,1"], 3),
        ):
            assert main(argv) == 2, argv
            error = f"error: lag {lag} needs consecutive years, but 1995 follows 1991\n"
            assert capsys.readouterr() == ("", error)
            assert not report.exists()
        # Lag 0 reads the series as it is.
        for argv in (fit, [*fit, "--lag", "0"], [*sweep, "--grid", "0,0"]):
            assert main(argv) == 0, argv
            report.unlink()

    def test_sweep_requires_threshold_for_non_threshold_axes(self, workdir, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sweep", *we_args(workdir, "--axis", "quorum", "--grid", "0.5,1.0")])
        assert err.value.code == 1


class TestBadInput:
    """Each bad input gives one ``error:`` line and exit 2, or a usage error."""

    def classify(self, workdir, path, profile=None):
        return main(
            [
                "classify",
                "--input", str(path),
                "--profile", str(profile or workdir / "profile.json"),
            ]
        )

    def test_classify_non_utf8_input(self, workdir, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_bytes(b"year,may_temp\n2031,6.5\xff\n")
        assert self.classify(workdir, rows) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8" in err
        assert err.count("\n") == 1

    def test_classify_non_utf8_profile(self, workdir, tmp_path, capsys):
        profile = tmp_path / "bad_profile.json"
        profile.write_bytes(b"\xff\xfe{}")
        assert self.classify(workdir, workdir / "worked_example.csv", profile) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read profile") and err.count("\n") == 1

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_classify_rejects_non_finite_cells(self, workdir, tmp_path, capsys, cell):
        rows = tmp_path / "rows.csv"
        rows.write_text(f"year,may_temp\n2031,6.5\n2032,{cell}\n", encoding="utf-8")
        assert self.classify(workdir, rows) == 2
        err = capsys.readouterr().err
        assert err == f"error: non-numeric value in row 3, column 'may_temp' ({cell!r})\n"

    def test_classify_rejects_duplicate_years(self, workdir, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text("year,may_temp\n2031,6.5\n2031,1.0\n", encoding="utf-8")
        assert self.classify(workdir, rows) == 2
        assert capsys.readouterr().err == "error: duplicate year 2031\n"

    def test_classify_rejects_profile_with_nan_bound(self, workdir, tmp_path, capsys):
        doc = json.loads((workdir / "profile.json").read_text(encoding="utf-8"))
        doc["profile"]["intervals"][0]["lo"] = float("nan")
        profile = tmp_path / "nan_profile.json"
        profile.write_text(json.dumps(doc), encoding="utf-8")
        assert self.classify(workdir, workdir / "worked_example.csv", profile) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed profile document") and err.count("\n") == 1

    def test_classify_rejects_profile_with_string_quorum(self, workdir, tmp_path, capsys):
        doc = json.loads((workdir / "profile.json").read_text(encoding="utf-8"))
        doc["quorum"] = "1.0"
        profile = tmp_path / "string_quorum_profile.json"
        profile.write_text(json.dumps(doc), encoding="utf-8")
        assert self.classify(workdir, workdir / "worked_example.csv", profile) == 2
        err = capsys.readouterr().err
        assert err == "error: malformed profile document: quorum must be int or float, got str\n"

    def test_classify_rejects_profile_with_misspelled_key(self, workdir, tmp_path, capsys):
        doc = json.loads((workdir / "profile.json").read_text(encoding="utf-8"))
        doc["profile"]["intervals"][0]["widen_esp"] = 0.5
        profile = tmp_path / "misspelled_profile.json"
        profile.write_text(json.dumps(doc), encoding="utf-8")
        assert self.classify(workdir, workdir / "worked_example.csv", profile) == 2
        err = capsys.readouterr().err
        assert err == "error: malformed profile document: unknown interval key 'widen_esp'\n"

    def test_classify_rejects_deeply_nested_profile(self, workdir, tmp_path, capsys):
        profile = tmp_path / "nested_profile.json"
        profile.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
        assert self.classify(workdir, workdir / "worked_example.csv", profile) == 2
        err = capsys.readouterr().err
        assert err == "error: profile document is nested too deeply\n"

    def test_sweep_lag_axis_rejects_lag_flag(self, workdir, capsys):
        base = ["sweep", *we_args(workdir, "--threshold", "8", "--axis", "lag", "--grid", "0,1")]
        with pytest.raises(SystemExit) as err:
            main([*base, "--lag", "1"])
        assert err.value.code == 1
        assert "--lag cannot be combined with --axis lag" in capsys.readouterr().err
        assert main([*base, "--lag", "0"]) == 0

    @pytest.mark.parametrize("flag", [["--threshold", "99"], ["--select-threshold"]])
    def test_sweep_threshold_axis_rejects_threshold_flags(self, workdir, capsys, flag):
        base = ["sweep", *we_args(workdir, "--axis", "threshold", "--grid", "5,10")]
        with pytest.raises(SystemExit) as err:
            main([*base, *flag])
        assert err.value.code == 1
        err = capsys.readouterr().err
        assert "--threshold and --select-threshold cannot be combined with --axis threshold" in err
        assert main(base) == 0

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_widen_eps_is_usage_error(self, workdir, capsys, value):
        with pytest.raises(SystemExit) as err:
            main(["fit", *we_args(workdir, "--threshold", "8", "--widen-eps", value)])
        assert err.value.code == 1

    @pytest.mark.parametrize("grid", ["-1", "0,-2"])
    def test_sweep_negative_lag_is_usage_error(self, workdir, capsys, grid):
        with pytest.raises(SystemExit) as err:
            main(["sweep", *we_args(workdir, "--threshold", "8", "--axis", "lag", "--grid", grid)])
        assert err.value.code == 1
        err = capsys.readouterr().err
        expected = f"factorcast sweep: error: lags must be non-negative, got --grid '{grid}'\n"
        assert err.splitlines(keepends=True)[-1] == expected
        assert "Traceback" not in err

    def test_sweep_empty_grid_item_is_usage_error(self, workdir, capsys):
        argv = ["sweep", *we_args(workdir, "--threshold", "8", "--axis", "quorum")]
        with pytest.raises(SystemExit) as err:
            main([*argv, "--grid", "0.5,,1"])
        assert err.value.code == 1
        expected = "factorcast sweep: error: empty value in --grid '0.5,,1'\n"
        assert capsys.readouterr().err.splitlines(keepends=True)[-1] == expected

    @pytest.mark.parametrize("axis,grid", [("lag", "1.5"), ("quorum", "x"), ("row_length", "ten")])
    def test_sweep_invalid_grid_value_is_usage_error(self, workdir, capsys, axis, grid):
        argv = ["sweep", *we_args(workdir, "--threshold", "8", "--axis", axis, "--grid", grid)]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        stderr = capsys.readouterr().err
        assert stderr.startswith("usage: factorcast sweep ")
        expected = f"factorcast sweep: error: invalid --grid value in '{grid}'\n"
        assert stderr.splitlines(keepends=True)[-1] == expected

    # Cross-flag checks run in their subcommand: its usage line, exit 1, no input read.
    CROSS_FLAG_CASES = {
        "threshold_axis_with_threshold": [
            "sweep", "--axis", "threshold", "--grid", "5,10", "--threshold", "8"
        ],
        "threshold_axis_with_select_threshold": [
            "sweep", "--axis", "threshold", "--grid", "5,10", "--select-threshold"
        ],
        "other_axis_without_threshold": ["sweep", "--axis", "quorum", "--grid", "0.5"],
        "lag_axis_with_lag": [
            "sweep", "--threshold", "8", "--axis", "lag", "--grid", "0,1", "--lag", "1"
        ],
        "empty_grid": ["sweep", "--threshold", "8", "--axis", "quorum", "--grid", ","],
        **{
            f"{axis}_grid_empty_item_{i}": [*argv, "--axis", axis, "--grid", grid]
            for axis, argv, grids in (
                ("quorum", ["sweep", "--threshold", "8"], (",0.5", "0.5,,1", "0.5,")),
                ("threshold", ["sweep"], (",8", "8,,9", "8,")),
                ("lag", ["sweep", "--threshold", "8"], (",0", "0,,1", "1,")),
                ("row_length", ["sweep", "--threshold", "8"], (",5", "5,,6", "6,")),
            )
            for i, grid in enumerate(grids)
        },
        **{
            f"subset_grid_empty_name_{i}": [
                "sweep", "--threshold", "8", "--axis", "factor_subset", "--grid", grid
            ]
            for i, grid in enumerate([",", "may_temp+", "may_temp,,may_temp"])
        },
        "subset_grid_repeated_name": [
            "sweep", "--threshold", "8", "--axis", "factor_subset", "--grid", "may_temp+may_temp"
        ],
        "subset_grid_outside_factors": [
            "sweep", "--threshold", "8", "--factors", "may_temp", "--lag", "2",
            "--axis", "factor_subset", "--grid", "may_temp,f02,may_temp+f02",
        ],
        **{
            f"{argv[0]}_factors_empty_name_{i}": [*argv, "--factors", factors]
            for argv in (
                ["fit", "--threshold", "8"],
                ["backtest", "--threshold", "8"],
                ["sweep", "--threshold", "8", "--axis", "quorum", "--grid", "0.5"],
            )
            for i, factors in enumerate(["", " , ", "may_temp,"])
        },
        "fit_select_threshold_min_critical_1": ["fit", "--select-threshold", "--min-critical", "1"],
        "fit_output_is_save_profile": [
            "fit", "--threshold", "8", "--output", "r.txt", "--save-profile", "./r.txt"
        ],
    }

    @pytest.mark.parametrize("case", CROSS_FLAG_CASES)
    def test_cross_flag_check_is_subcommand_usage_error(self, workdir, tmp_path, capsys, case):
        command, *flags = self.CROSS_FLAG_CASES[case]
        for path in (workdir / "worked_example.csv", tmp_path / "missing.csv"):
            with pytest.raises(SystemExit) as err:
                main([command, "--input", str(path), *flags])
            assert err.value.code == 1, path
            stderr = capsys.readouterr().err
            assert stderr.startswith(f"usage: factorcast {command} ")
            assert stderr.splitlines()[-1].startswith(f"factorcast {command}: error: ")

    # A path a command writes may not be the same file as another of its paths.
    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--output", "a.csv", "--truth-output", "./a.csv"],
            ["fit", "--input", "data.csv", "--threshold", "8", "--output", "data.csv"],
        ],
    )
    def test_clashing_paths_are_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        shutil.copy(FIXTURES / "worked_example.csv", "data.csv")
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        assert capsys.readouterr().err.startswith(f"usage: factorcast {argv[0]} ")
        assert os.listdir() == ["data.csv"]
        assert Path("data.csv").read_bytes() == WORKED_EXAMPLE

    # One cell over the csv module's default 131072-character field limit.
    HUGE_CELL = "1" * 131073

    def test_fit_oversized_cell_is_data_error(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text(f"year,incidence,f\n1990,1,{self.HUGE_CELL}\n", encoding="utf-8")
        assert main(["fit", "--input", str(rows), "--threshold", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed CSV at line 2: field larger than field limit")
        assert err.count("\n") == 1

    def test_classify_oversized_cell_is_data_error(self, workdir, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text(f"year,may_temp\n2031,{self.HUGE_CELL}\n", encoding="utf-8")
        assert self.classify(workdir, rows) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed CSV at line 2: field larger than field limit")
        assert err.count("\n") == 1

    # Each size is rejected from the spec's arithmetic, before any allocation.
    @pytest.mark.parametrize(
        "sizes",
        [
            ["--years", "100000000000000000000"],
            ["--years", "1000000"],
            ["--factors", "100000000000000000000"],
            ["--years", "1000", "--factors", "1000"],
        ],
    )
    def test_synth_over_cell_limit_is_data_error(self, tmp_path, capsys, sizes):
        output = tmp_path / "x.csv"
        assert main(["synth", "--output", str(output), *sizes]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "more than the limit of 1000000" in err
        assert err.count("\n") == 1
        assert not output.exists()

    # Critical incidence reaches twice the threshold, which overflows here.
    def test_synth_threshold_too_large_is_data_error(self, tmp_path, capsys):
        output = tmp_path / "x.csv"
        assert main(["synth", "--output", str(output), "--threshold", "1e308"]) == 2
        err = capsys.readouterr().err
        assert err == "error: incidence_threshold must be at most half the largest float\n"
        assert not output.exists()


WORKED_EXAMPLE = (FIXTURES / "worked_example.csv").read_bytes()


def run_main(argv):
    """``(exit code, stdout, stderr)`` of one in-process ``main`` call, usage errors included."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


# Byte runs that CSV, number and JSON readers treat specially.
SPECIAL_BYTES = [b"\r", b"\n", b",", b'"', b"\x00", b"\xff", b" ", b"-", b"nan", b"1e999", b"{"]


@st.composite
def mangled(draw, seed: bytes):
    """Arbitrary bytes, or ``seed`` with a few byte runs replaced, inserted or cut."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=200))
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 3))
        data[at : at + cut] = draw(st.one_of(st.sampled_from(SPECIAL_BYTES), st.binary(max_size=4)))
    return bytes(data)


# Numbers that some synth flag refuses (not finite, out of range, not an int); others take them.
BAD_NUMBERS = ("nan", "inf", "1e308", "-1", "1.5", str(2**70))


@st.composite
def synth_argv(draw):
    """``synth`` argv whose accepted specs stay within 40 years x 16 factors.

    ``{tmp}`` stands for a fresh directory; ``{tmp}/missing`` does not exist.
    """
    def pick(*pool):
        # One value in four is drawn from BAD_NUMBERS, so most runs reach generate().
        return draw(st.sampled_from(BAD_NUMBERS if draw(st.integers(0, 3)) == 0 else pool))

    years = pick("5", "40", "1000001")
    factors = pick("1", "16", "200000")
    above_factors = str(int(factors) + 1) if factors.isdigit() else factors
    flags = {
        "--years": years,
        "--factors": factors,
        "--seed": pick("0", "7"),
        "--critical-fraction": pick("0", "0.3", "1"),
        "--noise": pick("0", "0.1", "1"),
        "--threshold": pick("10", "0.3"),
        "--lag-shift": pick("0", "3", years),
        "--adversarial": pick("0", "1", factors, above_factors),
        "--regime-change-year": pick("1990", "2000"),
        "--start-year": pick("1", "1990"),
        "--truth-output": draw(
            st.sampled_from(("{tmp}/truth.csv", "{tmp}/missing/truth.csv", "{tmp}/data.csv"))
        ),
    }
    argv = ["synth", "--output", "{tmp}/data.csv"]
    for flag, value in flags.items():
        if draw(st.booleans()):
            argv += [flag, value]
    return argv


class TestFuzz:
    """Arbitrary input, profile bytes and synth flags end in exit 0, 1 or 2, never a traceback.

    A data error (exit 2) prints exactly one line, which starts with ``error: ``.
    """

    def run(self, argv, files):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {"tmp": tmp}
            for name, data in files.items():
                paths[name] = Path(tmp, name)
                paths[name].write_bytes(data)
            code, _, err = run_main([arg.format(**paths) for arg in argv])
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--input", "{data}", "--threshold", "8"],
            ["fit", "--input", "{data}", "--select-threshold", "--quorum", "0.5"],
            ["backtest", "--input", "{data}", "--select-threshold", "--min-train-years", "3"],
            ["classify", "--input", "{data}", "--profile", "{profile}"],
            ["fit", "--input", "{data}", "--threshold", "8", "--lag", "1"],
            ["backtest", "--input", "{data}", "--threshold", "8", "--lag", "1",
             "--min-train-years", "3"],
            ["sweep", "--input", "{data}", "--threshold", "8", "--axis", "quorum",
             "--grid", "0.5,1"],
            ["sweep", "--input", "{data}", "--axis", "threshold", "--grid", "3,8,9.5"],
            ["sweep", "--input", "{data}", "--threshold", "8", "--axis", "lag", "--grid", "0,1",
             "--mode", "rolling", "--min-train-years", "3"],
            ["sweep", "--input", "{data}", "--threshold", "8", "--axis", "factor_subset",
             "--grid", "all", "--lag", "1"],
            ["sweep", "--input", "{data}", "--threshold", "8", "--axis", "row_length",
             "--grid", "3,5", "--mode", "leave_one_out", "--min-train-years", "3", "--lag", "1"],
            ["backtest", "--input", "{data}", "--threshold", "8", "--mode", "in_sample",
             "--lag", "1"],
        ],
        ids=[
            "fit", "fit-select", "backtest", "classify", "fit-lag", "backtest-lag",
            "sweep-quorum", "sweep-threshold", "sweep-lag", "sweep-subset-lag",
            "sweep-row-length-lag", "backtest-in-sample-lag",
        ],
    )
    @settings(max_examples=60, deadline=None)
    @given(data=mangled(WORKED_EXAMPLE))
    def test_input_bytes(self, argv, data):
        profile = (GOLDEN / "profile.json").read_bytes()
        self.run(argv, {"data": data, "profile": profile})

    @settings(max_examples=60, deadline=None)
    @given(profile=mangled((GOLDEN / "profile.json").read_bytes()))
    def test_profile_bytes(self, profile):
        argv = ["classify", "--input", "{data}", "--profile", "{profile}"]
        self.run(argv, {"data": WORKED_EXAMPLE, "profile": profile})

    @settings(max_examples=150, deadline=None)
    @given(argv=synth_argv())
    def test_synth_flags(self, argv):
        self.run(argv, {})


class TestInvariance:
    """Reports do not move under rewrites of the input that the rule cannot see.

    The rule compares a factor's values only with each other, so a strictly
    increasing map of a column (with no widening) changes no membership, and
    the parser sorts rows by year, so row order is invisible. With the
    factors named by ``--factors``, the order of the columns in the file is
    invisible too. Shifting a half-unit column by a whole number moves every
    widened edge with it exactly, so ``--widen-eps 0.5`` sees no change.
    Each rewritten input's report must equal the original's except for the
    two lines that name and digest the input file.
    """

    INPUT_KEYS = ("input", "input_sha256")
    MAPS = {"f01": lambda v: 2 * v + 1, "f02": lambda v: v**3}
    HALF_UNITS = {"f03": lambda v: round(2 * v) / 2}
    SHIFT = {"f03": lambda v: v + 7}

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """``(original, rewritten, flags)``: two inputs whose reports agree under ``flags``."""
        d = tmp_path_factory.mktemp("invariance")
        base = d / "base.csv"
        argv = ["synth", "--seed", "5", "--years", "60", "--factors", "5", "--noise", "0.1"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--critical-fraction", "0.4", "--output", str(base)]) == 0
        header, *rows = base.read_text(encoding="utf-8").splitlines()
        names = header.split(",")
        table = [row.split(",") for row in rows]

        def mapped(table, maps):
            index = {names.index(name): f for name, f in maps.items()}
            return [
                [repr(index[i](float(c))) if i in index else c for i, c in enumerate(cells)]
                for cells in table
            ]

        def write(name, table, order=range(len(names))):
            lines = [[cells[i] for i in order] for cells in [names, *table]]
            path = d / name
            path.write_text("\n".join(map(",".join, lines)) + "\n", encoding="utf-8")
            return path

        permuted = [0, 1, *reversed(range(2, len(names)))]
        rounded = mapped(table, self.HALF_UNITS)
        cases = [
            (base, write("monotone.csv", mapped(table, self.MAPS)), []),
            (base, write("reversed.csv", table[::-1]), []),
            (base, write("permuted.csv", table, permuted), ["--factors", ",".join(names[2:])]),
            (
                write("rounded.csv", rounded),
                write("shifted.csv", mapped(rounded, self.SHIFT)),
                ["--widen-eps", "0.5"],
            ),
        ]
        for original, rewritten, _ in cases:
            assert original.read_bytes() != rewritten.read_bytes(), rewritten.name
        return cases

    def report_lines(self, argv, path, fmt):
        out = path.with_name(f"{path.stem}.{fmt}.out")
        text = run_cli_to_file([*argv, "--input", str(path), "--format", fmt], out)
        return text.decode("utf-8").splitlines()

    def is_input_line(self, line, fmt):
        line = line.strip()
        if fmt == "json":
            return any(line.startswith(f'"{key}": ') for key in self.INPUT_KEYS)
        return any(line.startswith(f"{key}: ") for key in self.INPUT_KEYS)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("mode", ["rolling", "leave_one_out", "in_sample"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["backtest", "--threshold", "10", "--quorum", "0.6"],
            ["sweep", "--threshold", "10", "--axis", "quorum", "--grid", "0.2,0.6,1"],
            ["sweep", "--axis", "threshold", "--grid", "4,10,14"],
            ["sweep", "--threshold", "10", "--axis", "factor_subset", "--grid", "all"],
            ["sweep", "--threshold", "10", "--axis", "lag", "--grid", "0,2,5"],
            ["sweep", "--threshold", "10", "--axis", "row_length", "--grid", "20,40,60"],
        ],
        ids=[
            "backtest", "sweep-quorum", "sweep-threshold", "sweep-subset", "sweep-lag",
            "sweep-row-length",
        ],
    )
    def test_report_differs_only_in_input_lines(self, inputs, argv, mode, fmt):
        argv = [*argv, "--mode", mode, "--min-train-years", "5"]
        for original, path, flags in inputs:
            want = self.report_lines([*argv, *flags], original, fmt)
            got = self.report_lines([*argv, *flags], path, fmt)
            assert len(got) == len(want), path.name
            changed = [a for a, b in zip(want, got) if a != b]
            assert len(changed) == 2, path.name
            assert all(self.is_input_line(line, fmt) for line in changed), path.name


@st.composite
def lag_cases(draw):
    """A matrix of consecutive years, a lag L with n - L >= 3, and shared flags."""
    n = draw(st.integers(4, 10))
    lag = draw(st.integers(1, n - 3))
    names = tuple(f"f{j}" for j in range(1, draw(st.integers(1, 3)) + 1))
    cells = st.lists(st.sampled_from((0.0, 1.0, 1.5, 2.0, 3.0, 5.0)), min_size=n, max_size=n)
    m = TemporalMatrix(
        range(2000, 2000 + n),
        draw(st.lists(st.integers(0, 12).map(float), min_size=n, max_size=n)),
        names,
        {name: draw(cells) for name in names},
    )
    selected, flags = names, []
    if draw(st.booleans()):
        selected = draw(st.permutations(names))[: draw(st.integers(1, len(names)))]
        flags = ["--factors", ",".join(selected)]
    values = sorted(set(m.incidence[lag:]))
    value = draw(st.sampled_from(values))
    threshold = ["--threshold", repr(value)] if draw(st.integers(0, 3)) else ["--select-threshold"]
    flags += ["--quorum", draw(st.sampled_from(("0.5", "0.75", "1.0")))]
    flags += ["--widen-eps", draw(st.sampled_from(("0", "0.5")))]
    grid = ",".join(map(repr, draw(st.lists(st.sampled_from(values), min_size=1, max_size=3))))
    mode = ["--mode", draw(st.sampled_from(("rolling", "leave_one_out", "in_sample")))]
    rows = ["--min-train-years", "3"]
    commands = [
        ["fit", *threshold],
        *(["backtest", *threshold, *rows, "--mode", each]
          for each in ("rolling", "leave_one_out", "in_sample")),
        ["sweep", *threshold, *rows, *mode, "--axis", "quorum", "--grid", "0.5,1"],
        ["sweep", *threshold, *rows, *mode, "--axis", "factor_subset", "--grid", "all"],
        ["sweep", *threshold, *rows, *mode, "--axis", "row_length", "--grid", f"3,{n - lag}"],
        ["sweep", *rows, *mode, "--axis", "threshold", "--grid", grid],
    ]
    return m, lag, selected, flags, commands


class TestLagFlag:
    """``--lag L`` on a file reports what no lag reports on the file lagged by hand.

    The lagged file keeps incidence and years from row L on, pairs them with
    the selected factors from row 0 on, and takes any other factor at its own
    year. The two runs share the exit code, stderr and every report line but
    the ones that name the input and the lag.
    """

    SKIP = ("input: ", "input_sha256: ", "lag: ")

    def run(self, argv):
        code, out, err = run_main(argv)
        return code, err, [line for line in out.splitlines() if not line.startswith(self.SKIP)]

    @settings(max_examples=60, deadline=None)
    @given(case=lag_cases())
    def test_lag_equals_the_file_lagged_by_hand(self, case):
        m, lag, selected, flags, commands = case
        lagged = lagged_matrix(m, selected, lag)
        with tempfile.TemporaryDirectory() as tmp:
            original, shifted = Path(tmp, "original.csv"), Path(tmp, "lagged.csv")
            original.write_text(m.to_csv(), encoding="utf-8")
            shifted.write_text(lagged.to_csv(), encoding="utf-8")
            for command in commands:
                argv = [*command, *flags]
                want = self.run([*argv, "--input", str(shifted)])
                got = self.run([*argv, "--input", str(original), "--lag", str(lag)])
                assert got == want, argv
