"""Command-line interface: subcommands, formats, exit codes."""

import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from myetrends import __main__ as entry
from myetrends import cli
from myetrends.analysis import synthetic_series
from myetrends.cli import main
from myetrends.filterdesign import FilterSet
from myetrends.myeseries import IMPUTED, load_csv, write_csv

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
# the package under test, whether installed or on PYTHONPATH
SRC = str(Path(cli.__file__).resolve().parents[1])
INCOME_ARGS = ["--in", "income", "--targets", "3:2006,5:2006,5:2007"]
ALL_COMMANDS = ("design", "impute", "trends", "compat", "compare", "simulate", "demo")


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--format", "json"])
    return code, json.loads(out), out


def child(*args):
    """Run ``python -X dev -W error *args`` on the package under test.

    The child's import path is the package's source, then the caller's path.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, *filter(None, sys.path)])}
    return subprocess.run([sys.executable, "-X", "dev", "-W", "error", *args],
                          capture_output=True, text=True, env=env)


class TestDesign:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, ["design", "--degree", "1", "--periods", "1,3,5"])
        assert code == 0
        assert "phi" in out and "psi[3]" in out and "common" in out
        assert "29/25 (1.16)" in out
        assert "all checks passed" in out

    def test_json_round_trips_filters(self, capsys):
        code, payload, _ = run_json(capsys, ["design", "--degree", "2", "--periods", "1,3,5"])
        assert code == 0
        assert payload["verification"]["passed"] is True
        fs = FilterSet.from_dict(payload["filters"])
        assert fs.spec.degree == 2 and fs.spec.periods == (1, 3, 5)

    def test_json_is_key_sorted(self, capsys):
        code, payload, raw = run_json(capsys, ["design", "--degree", "1", "--periods", "1,3"])
        assert raw == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_bad_degree_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["design", "--degree", "-1", "--periods", "1,3"])
        assert exc.value.code == 2

    def test_bad_periods_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["design", "--degree", "1", "--periods", "1,x"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_variance_inflation_beyond_the_float_range_is_named(self, capsys, fmt):
        # psi[3]'s variance inflation is about 10**310; floating it raised a
        # bare OverflowError
        code, out, err = run(capsys, ["design", "--degree", "673", "--periods", "1,3,5",
                                      "--format", fmt])
        assert code == 1 and out == ""
        assert err.splitlines()[-1] == "error: variance inflation psi[3] is beyond the float range"

    HIGH_DEGREE_WARNING = ("warning: trend degree 12 yields extreme filter weights; "
                           "results are exact but amplify noise enormously\n")

    def test_high_degree_warning_is_one_stderr_line(self):
        # under -W error the design's UserWarning escaped as a traceback
        proc = child("-m", "myetrends", "design", "--degree", "12", "--periods", "1,3,5")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == self.HIGH_DEGREE_WARNING
        assert "all checks passed" in proc.stdout

    def test_high_degree_warning_obeys_ignore(self):
        argv = ["design", "--degree", "12", "--periods", "1,3,5"]
        proc = subprocess.run(
            [sys.executable, "-W", "ignore", "-m", "myetrends", *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert "all checks passed" in proc.stdout

    @pytest.mark.parametrize("argv, want", [
        (["design", "--periods", "1,3,5"], 0),
        (["simulate", "--trend", "0,1", "--mode", "proper", "--t0", "100",
          "--replicates", "50"], 0),
        # the bundled sample is too short for a degree-12 window
        (["trends", "--in", "income", "--t0", "2007"], 1),
        (["compare", "--in-a", "income", "--in-b", "income", "--mode", "proper",
          "--t0", "2007"], 1),
    ])
    def test_every_design_warns_on_stderr(self, capsys, argv, want):
        # the warning line comes before the command's own result or error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, argv + ["--degree", "12"])
        assert code == want
        assert err.startswith(self.HIGH_DEGREE_WARNING)

    DESIGNING = [
        ["design", "--periods", "1,3,5"],
        ["trends", "--in", "{csv}", "--t0", "2020"],
        ["compare", "--in-a", "{csv}", "--in-b", "{csv}", "--mode", "proper", "--t0", "2020"],
        ["simulate", "--trend", "0,1", "--mode", "proper", "--t0", "100", "--replicates", "50"],
    ]

    @pytest.fixture
    def long_csv(self, tmp_path):
        # 5y values from 1990 on: enough for a degree-12 window at 2020
        path = tmp_path / "long.csv"
        write_csv(synthetic_series((100, 1), (1, 3, 5), 1990, 2020), path)
        return str(path)

    @pytest.mark.parametrize("argv", DESIGNING, ids=lambda argv: argv[0])
    def test_design_warning_reaches_json(self, capsys, long_csv, argv):
        argv = [a.format(csv=long_csv) for a in argv]
        code, out, err = run(capsys, argv + ["--degree", "12", "--format", "json"])
        assert code == 0
        # the stderr line stays, and the JSON carries the same message
        assert err == self.HIGH_DEGREE_WARNING
        assert json.loads(out)["warnings"] == [self.HIGH_DEGREE_WARNING[len("warning: "):-1]]

    @pytest.mark.parametrize("argv", DESIGNING, ids=lambda argv: argv[0])
    def test_no_warnings_key_without_a_warning(self, capsys, long_csv, argv):
        argv = [a.format(csv=long_csv) for a in argv]
        code, payload, _ = run_json(capsys, argv + ["--degree", "1"])
        assert code == 0
        assert "warnings" not in payload


class TestImpute:
    def test_emits_csv_with_imputed_rows(self, capsys):
        code, out, _ = run(capsys, ["impute", *INCOME_ARGS])
        assert code == 0
        assert out.startswith("variable,unit,period,end_year,value,provenance")
        assert "income,dollars,3,2006,42395.0,imputed" in out

    def test_output_parses_back(self, capsys, tmp_path):
        target = tmp_path / "filled.csv"
        code, out, _ = run(capsys, ["impute", *INCOME_ARGS, "--out", str(target)])
        assert code == 0
        assert out == ""  # everything went to the file
        series = load_csv(target)
        assert series.value(5, 2007) == 42600.0
        assert series.provenance(5, 2007) == IMPUTED

    def test_already_present_target_fails(self, capsys):
        code, out, err = run(capsys, ["impute", "--in", "income", "--targets", "3:2005"])
        assert code == 1
        assert "error:" in err

    def test_missing_file_exits_one(self, capsys):
        code, out, err = run(capsys, ["impute", "--in", "/nonexistent.csv",
                                      "--targets", "3:2006"])
        assert code == 1
        assert "error:" in err

    def test_format_flag_rejected(self):
        # impute writes CSV whatever the format, so it takes no --format
        with pytest.raises(SystemExit) as exc:
            main(["impute", *INCOME_ARGS, "--format", "json"])
        assert exc.value.code == 2

    def test_malformed_targets_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["impute", "--in", "income", "--targets", "3-2006"])
        assert exc.value.code == 2


class TestTrends:
    def test_text_output(self, capsys, tmp_path):
        filled = tmp_path / "income.csv"
        assert main(["impute", *INCOME_ARGS, "--out", str(filled)]) == 0
        code, out, _ = run(capsys, ["trends", "--in", str(filled), "--t0", "2007"])
        assert code == 0
        assert "43570" in out and "45223" in out and "45320" in out

    def test_json_output(self, capsys, tmp_path):
        filled = tmp_path / "age.csv"
        assert main(["impute", "--in", "age",
                     "--targets", "3:2006,5:2006,5:2007", "--out", str(filled)]) == 0
        code, payload, _ = run_json(
            capsys, ["trends", "--in", str(filled), "--t0", "2007"]
        )
        assert code == 0
        assert payload["rendered"] == {"1": "37.59", "3": "37.59", "5": "38.25"}
        assert payload["unit"] == "years"

    def test_missing_window_exits_one(self, capsys):
        # bundled sample without imputation lacks the 2007 5y window
        code, out, err = run(capsys, ["trends", "--in", "income", "--t0", "2007"])
        assert code == 1
        assert "error:" in err


class TestCompat:
    def test_text_output(self, capsys, tmp_path):
        filled = tmp_path / "income.csv"
        assert main(["impute", *INCOME_ARGS, "--out", str(filled)]) == 0
        code, out, _ = run(capsys, ["compat", "--in", str(filled)])
        assert code == 0
        assert "C(3y) = 0.017" in out
        assert "C(5y) = 0.020" in out
        assert "2002-2007" in out and "2004-2007" in out

    def test_exclude_imputed_and_log_base(self, capsys, tmp_path):
        filled = tmp_path / "divorce.csv"
        assert main(["impute", "--in", "divorce",
                     "--targets", "3:2006,5:2006,5:2007", "--out", str(filled)]) == 0
        code, payload, _ = run_json(
            capsys, ["compat", "--in", str(filled), "--exclude-imputed"]
        )
        assert code == 0
        assert payload["include_imputed"] is False
        assert payload["periods"]["5"]["c"] < 0.005

        code, payload, _ = run_json(
            capsys, ["compat", "--in", str(filled), "--log-base", "e"]
        )
        assert payload["log_base"] == "e"

    def test_sample_without_longer_periods_needs_flag(self, capsys, tmp_path):
        one = tmp_path / "one.csv"
        one.write_text(
            "variable,unit,period,end_year,value\n"
            "x,count,1,2000,1.0\n"
            "x,count,1,2001,2.0\n"
        )
        with pytest.raises(SystemExit) as exc:
            main(["compat", "--in", str(one)])
        assert exc.value.code == 2


class TestCompare:
    @pytest.fixture()
    def filled(self, tmp_path):
        path = tmp_path / "divorce.csv"
        assert main(["impute", "--in", "divorce",
                     "--targets", "3:2006,5:2006,5:2007", "--out", str(path)]) == 0
        return str(path)

    def test_inapt_text(self, capsys, filled):
        code, out, _ = run(capsys, [
            "compare", "--in-a", filled, "--in-b", filled,
            "--mode", "inapt", "--t0", "2007", "--other-period", "3",
        ])
        assert code == 0
        assert "discrepancy = -13.7%" in out
        assert "a(1y) = 21844" in out and "b(3y) = 18852" in out

    def test_proper_json(self, capsys, filled):
        # the reference value uses the three-period design, so ask for it;
        # the default would be the two-period family {1, 5}
        code, payload, _ = run_json(capsys, [
            "compare", "--in-a", filled, "--in-b", filled,
            "--mode", "proper", "--t0", "2007", "--other-period", "5",
            "--periods", "1,3,5",
        ])
        assert code == 0
        assert payload["mode"] == "proper"
        assert payload["percent"] == "-13.6"

    def test_proper_default_periods_are_those_involved(self, capsys, filled):
        # without --periods the design covers just the two periods compared
        code, payload, _ = run_json(capsys, [
            "compare", "--in-a", filled, "--in-b", filled,
            "--mode", "proper", "--t0", "2007", "--other-period", "5",
        ])
        assert code == 0
        assert payload["percent"] != ""  # runs fine on the {1, 5} family

    def test_untimely_defaults_reference_to_other(self, capsys, filled):
        code, payload, _ = run_json(capsys, [
            "compare", "--in-a", filled, "--in-b", filled,
            "--mode", "untimely", "--t0", "2005", "--other-period", "3",
        ])
        assert code == 0
        assert payload["discrepancy"] == 0.0

    def test_invalid_mode_pairing_usage_error(self, filled):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--in-a", filled, "--in-b", filled,
                  "--mode", "inapt", "--t0", "2007", "--reference-period", "3"])
        assert exc.value.code == 2

    def test_flags_checked_before_inputs_load(self, tmp_path):
        missing = str(tmp_path / "absent.csv")
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--in-a", missing, "--in-b", missing,
                  "--mode", "inapt", "--t0", "2007", "--reference-period", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_overflowing_discrepancy_exits_one(self, capsys, tmp_path, fmt):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("variable,unit,period,end_year,value\nx,count,1,2000,1e-300\n")
        b.write_text("variable,unit,period,end_year,value\nx,count,3,2000,1e300\n")
        code, out, err = run(capsys, [
            "compare", "--in-a", str(a), "--in-b", str(b),
            "--mode", "inapt", "--t0", "2000", "--format", fmt,
        ])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "not a finite number" in err

    def test_proper_design_missing_period_is_usage_error(self, capsys, filled):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--in-a", filled, "--in-b", filled,
                  "--mode", "proper", "--t0", "2007",
                  "--other-period", "5", "--periods", "1,3"])
        assert exc.value.code == 2
        assert "has no period 5" in capsys.readouterr().err


class TestFloatOverflow:
    """Values near the float limit whose filtered or averaged sums overflow."""

    @pytest.fixture
    def big(self, tmp_path):
        rows = [f"big,count,{k},{t},1.7e308" for k in (1, 3, 5) for t in range(1980, 2003)]
        path = tmp_path / "big.csv"
        path.write_text("\n".join(["variable,unit,period,end_year,value", *rows]) + "\n")
        return str(path)

    @pytest.mark.parametrize("argv,where", [
        (["trends", "--t0", "2002", "--degree", "1", "--periods", "3,5"],
         "big: 3y filter ending 2002"),
        (["trends", "--t0", "2002", "--degree", "2", "--periods", "3,5"],
         "big: 3y filter ending 2002"),
        (["compat"], "big: sum of the 1y values in the window of 3 ending 1982"),
    ], ids=["trends-degree-1", "trends-degree-2", "compat"])
    def test_exits_one_naming_the_window(self, capsys, big, argv, where):
        code, out, err = run(capsys, [*argv, "--in", big])
        assert code == 1 and out == ""
        assert err == f"error: {where} overflows the float range\n"

    def test_renders_values_past_28_digits(self, capsys, big):
        # degree 0 needs no sum that overflows, only long fixed-point output
        code, out, err = run(capsys, ["trends", "--t0", "2002", "--degree", "0",
                                      "--periods", "1,3,5", "--in", big])
        assert code == 0 and err == ""
        assert f"  1y: 17{'0' * 307}\n" in out


class TestSimulate:
    ARGS = ["simulate", "--trend", "0,1", "--mode", "inapt",
            "--t0", "100", "--other-period", "5", "--replicates", "50"]

    def test_zero_noise_matches_analytic(self, capsys):
        code, payload, _ = run_json(capsys, self.ARGS + ["--seed", "7"])
        assert code == 0
        assert payload["bias"] == 2.0
        assert payload["expected_bias"] == 2.0

    def test_reproducible_bytes(self, capsys):
        argv = ["simulate", "--trend", "1,2", "--noise", "1:0.5,3:0.5",
                "--mode", "proper", "--t0", "50", "--replicates", "500",
                "--seed", "123", "--format", "json"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_text_mentions_both_biases(self, capsys):
        code, out, _ = run(capsys, self.ARGS)
        assert code == 0
        assert "bias" in out and "expected bias" in out
        assert "2.0" in out

    def test_fractional_trend_coefficients(self, capsys):
        code, payload, _ = run_json(
            capsys,
            ["simulate", "--trend", "0,3/2", "--mode", "inapt",
             "--t0", "10", "--replicates", "10"],
        )
        assert code == 0
        assert payload["expected_bias"] == 1.5

    def test_bad_trend_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--trend", "a,b", "--mode", "inapt", "--t0", "1"])
        assert exc.value.code == 2

    def test_bad_noise_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--trend", "0,1", "--noise", "3:x",
                  "--mode", "inapt", "--t0", "1"])
        assert exc.value.code == 2

    def test_repeated_noise_period_usage_error(self, capsys):
        # the later SD used to replace the earlier one without a word
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--trend", "0,1", "--noise", "1:0.5,1:0",
                  "--mode", "inapt", "--t0", "2010"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert "noise period 1 is repeated" in err

    def test_negative_replicates_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--trend", "0,1", "--mode", "inapt",
                  "--t0", "1", "--replicates", "-3"])
        assert exc.value.code == 2

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_huge_noise_runs_to_completion(self, capsys):
        # float ** raises on overflow where * gives inf
        code, out, _ = run(capsys, ["simulate", "--trend", "0,1", "--noise", "1e200",
                                    "--mode", "inapt", "--t0", "2010", "--replicates", "10"])
        assert code == 0
        assert "std error" in out


    def test_trend_beyond_the_float_range_exits_one(self, capsys):
        code, out, err = run(capsys, ["simulate", "--trend", "1e400,1", "--noise", "1",
                                      "--mode", "inapt", "--t0", "2010", "--replicates", "10"])
        assert (code, out) == (1, "")
        assert err == "error: region A's noise-free 1y value at 2010 is beyond the float range\n"

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_json_is_strict(self, capsys):
        # NaN and infinities go out as null, which every JSON parser accepts
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        code, out, _ = run(capsys, ["simulate", "--trend", "0,1", "--noise", "1e200",
                                    "--mode", "inapt", "--t0", "2010", "--replicates", "10",
                                    "--format", "json"])
        assert code == 0
        payload = json.loads(out, parse_constant=reject)
        assert payload["var_a"] is None
        assert payload["expected_bias"] == 1.0


class TestDemo:
    def test_all_rows_reproduce(self, capsys):
        code, out, _ = run(capsys, ["demo"])
        assert code == 0
        assert "36/36 values reproduce" in out

    def test_json_summary(self, capsys):
        code, payload, _ = run_json(capsys, ["demo"])
        assert code == 0
        assert payload["total"] == 36
        assert payload["failed"] == 0
        assert payload["passed"] is True
        assert all(r["pass"] for r in payload["rows"])


class TestExitContract:
    """``main`` returns 0 or 1; every usage error raises ``SystemExit(2)``."""

    SIM = ["simulate", "--trend", "0,1", "--mode", "inapt", "--t0", "2010"]
    SAME = ["compare", "--in-a", "income", "--in-b", "income", "--t0", "2007"]
    # with the input missing, a bad flag must still be reported as a usage error
    NONE = ["compare", "--in-a", "MISSING", "--in-b", "MISSING", "--t0", "2007"]

    @pytest.fixture()
    def one_period(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text(
            "variable,unit,period,end_year,value\n"
            "x,count,1,2000,1.0\n"
            "x,count,1,2001,2.0\n"
        )
        return str(path)

    # flag values a type parser rejects, or argparse accepts and the library
    # then rejects
    @pytest.mark.parametrize("argv", [
        ["design", "--degree", "x", "--periods", "1"],
        ["impute", "--in", "income", "--targets", "3:x"],
        SIM + ["--noise", ""],
        SIM + ["--noise", "x:1"],
        SIM + ["--noise", "1,2"],
        ["design", "--degree", "-1", "--periods", "1,3"],
        ["trends", "--in", "income", "--t0", "2007", "--periods", "1,1"],
        ["compat", "--in", "income", "--periods", "0"],
        ["compat", "--in", "ONE_PERIOD"],
        SAME + ["--mode", "inapt", "--reference-period", "3"],
        SAME + ["--mode", "proper", "--other-period", "5", "--periods", "1,3"],
        SIM + ["--replicates", "0"],
        SIM + ["--seed", "-1"],
        SIM + ["--noise", "0:1"],
        ["impute", "--in", "income", "--targets", "0:2006"],
        ["trends", "--in", "MISSING", "--t0", "2007", "--degree", "-1"],
        ["trends", "--in", "MISSING", "--t0", "2007", "--periods", "1,1"],
        ["trends", "--in", "MISSING", "--t0", "2007", "--periods", "0,3"],
        ["compat", "--in", "MISSING", "--periods", "0"],
        ["compat", "--in", "MISSING", "--periods", "3,3"],
        NONE + ["--mode", "proper", "--degree", "-1"],
        NONE + ["--mode", "proper", "--periods", "1,5,5"],
        SIM + ["--degree", "-2"],
        ["simulate", "--trend", "0,x", "--mode", "inapt", "--t0", "2010"],
        SIM + ["--noise", "3:x"],
        SIM + ["--noise", "abc"],
    ], ids=lambda argv: " ".join(argv))
    def test_library_rejected_flag_exits_two(self, capsys, one_period, tmp_path, argv):
        subs = {"ONE_PERIOD": one_period, "MISSING": str(tmp_path / "missing.csv")}
        argv = [subs.get(a, a) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        # the usage line is the subcommand's, whoever rejected the flag
        assert err.splitlines()[0].startswith(f"usage: myetrends {argv[0]} [-h]")
        assert f"myetrends {argv[0]}: error:" in err
        assert "Traceback" not in err

    def test_missing_input_with_good_flags_returns_one(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.csv")
        code, out, err = run(capsys, ["trends", "--in", missing, "--t0", "2007", "--degree", "2"])
        assert code == 1 and out == ""
        assert err.startswith("error: [Errno 2]")

    def test_data_error_returns_one(self, capsys):
        code, out, err = run(capsys, ["trends", "--in", "income", "--t0", "2030"])
        assert code == 1 and out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_undecodable_input_returns_one(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("variable,unit,period,end_year,value\ncaf\u00e9,count,1,2000,5\n"
                         .encode("latin-1"))
        code, out, err = run(capsys, ["impute", "--in", str(path), "--targets", "1:2001"])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: not utf-8 text")
        assert "usage:" not in err and "Traceback" not in err


class TestFormatsAndPlumbing:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "design.json"
        code, out, _ = run(capsys, [
            "design", "--degree", "1", "--periods", "1,3",
            "--format", "json", "--out", str(target),
        ])
        assert code == 0 and out == ""
        json.loads(target.read_text())

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.fixture()
    def built_commands(self, monkeypatch):
        """The subcommands of each parser ``main`` builds, one list per parser."""
        built = []
        build = cli.build_parser

        def spy(*args):
            parser = build(*args)
            sub, = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            built.append(list(sub.choices))
            return parser

        monkeypatch.setattr(cli, "build_parser", spy)
        return built

    def test_a_run_builds_only_its_own_subparser(self, capsys, built_commands):
        code, out, _ = run(capsys, ["design", "--degree", "1", "--periods", "1,3"])
        assert code == 0 and "all checks passed" in out
        assert built_commands == [["design"]]

    @pytest.mark.parametrize("argv", [["--help"], ["-h", "design"], [], ["nosuch"]],
                             ids=lambda argv: " ".join(argv) or "none")
    def test_help_and_unknown_commands_get_the_full_parser(self, capsys, built_commands, argv):
        with pytest.raises(SystemExit):
            main(argv)
        out, err = capsys.readouterr()
        assert built_commands == [list(ALL_COMMANDS)]
        if argv[:1] == ["nosuch"]:
            # newer Pythons may quote the choices differently
            line = err.splitlines()[-1]
            assert line.startswith("myetrends: error: argument COMMAND: invalid choice: 'nosuch'")
            assert all(name in line for name in ALL_COMMANDS)
        elif argv:
            listed = [line.split()[0] for line in out.splitlines() if line.startswith("    ")]
            assert listed == list(ALL_COMMANDS)

    SIMULATE = ["simulate", "--trend", "0,1", "--noise", "1:1.0,5:2.0", "--mode", "proper",
                "--t0", "100", "--other-period", "5", "--replicates", "300", "--seed", "7",
                "--format", "json"]

    @pytest.mark.parametrize("argv, code", [
        (["demo"], 0),
        (SIMULATE, 0),
        (["trends", "--in", "income", "--t0", "2030"], 1),
        (["nosuch"], 2),
    ], ids=["demo", "simulate", "data-error", "usage-error"])
    def test_module_entry_point(self, capsys, argv, code):
        # the exit status is main's return value, or argparse's usage code;
        # simulate's child exits with NumPy and SciPy loaded
        proc = child("-m", "myetrends", *argv)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if argv == self.SIMULATE:
            assert proc.stderr == ""
            assert json.loads(proc.stdout) == run_json(capsys, argv[:-2])[1]
        elif code == 0:
            assert "36/36" in proc.stdout
        elif code == 1:
            assert proc.stderr.splitlines()[0].startswith("error: ")
        else:
            line = proc.stderr.splitlines()[-1]
            assert line.startswith("myetrends: error: argument COMMAND: invalid choice: 'nosuch'")
            assert all(name in line for name in ALL_COMMANDS)

    @pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                             ids=lambda path: path.name)
    def test_narrative_demo_runs_clean(self, demo):
        proc = child(str(demo))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_console_script(self):
        # Run the [project.scripts] target from source the way pip's generated
        # wrapper does, and also any installed `myetrends` executable on PATH.
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        with open(PYPROJECT, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["myetrends"]
        module, _, attr = target.partition(":")
        wrapper = (
            f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = 'myetrends'; sys.exit({attr}())"
        )
        argv = ["design", "--degree", "1", "--periods", "1,3,5"]
        commands = [[sys.executable, "-c", wrapper, *argv]]
        if shutil.which("myetrends"):
            commands.append(["myetrends", *argv])
        for cmd in commands:
            proc = subprocess.run(cmd, capture_output=True, text=True)
            assert proc.returncode == 0, f"{cmd}: {proc.stderr}"
            assert "all checks passed" in proc.stdout


class TestRun:
    """``__main__.run``, the process entry point, freezes the heap; ``cli.main``
    does not."""

    @pytest.fixture
    def unfreeze(self):
        yield
        gc.unfreeze()

    def test_atexit_handlers_still_run(self, tmp_path):
        # the exit must stay a normal one: an os._exit would skip this handler
        # and the flush of stdout
        stamp = tmp_path / "stamp"
        wrapper = (
            "import atexit, runpy\n"
            f"atexit.register(lambda: open({str(stamp)!r}, 'w').write('ran'))\n"
            "runpy.run_module('myetrends', run_name='__main__', alter_sys=True)\n"
        )
        proc = child("-c", wrapper, "design", "--degree", "1", "--periods", "1,3,5")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("all checks passed\n")
        assert stamp.read_text() == "ran"

    def test_main_leaves_the_heap_unfrozen(self, capsys):
        before = gc.get_freeze_count()
        code, out, _ = run(capsys, ["design", "--degree", "1", "--periods", "1,3,5"])
        assert code == 0 and "all checks passed" in out
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv, code", [
        (["design", "--degree", "1", "--periods", "1,3,5"], 0),
        (["trends", "--in", "income", "--t0", "2030"], 1),
    ])
    def test_run_returns_mains_code(self, capsys, monkeypatch, unfreeze, argv, code):
        monkeypatch.setattr(sys, "argv", ["myetrends", *argv])
        assert entry.run() == code
        assert gc.get_freeze_count() > 0

    def test_run_lets_a_usage_error_pass(self, capsys, monkeypatch, unfreeze):
        monkeypatch.setattr(sys, "argv", ["myetrends", "nosuch"])
        with pytest.raises(SystemExit) as exc:
            entry.run()
        assert exc.value.code == 2
        assert gc.get_freeze_count() > 0


class TestImportGuard:
    """Each command loads only the modules it runs.

    Each case runs in a fresh ``python -S`` interpreter and checks which
    modules it loaded, by name and not by how long that took, so a busy
    machine cannot make it fail. ``-S`` skips ``site``, whose ``.pth`` files
    may preload standard modules (such as ``importlib.resources``) and so
    hide a regression; the caller's import path is passed on instead.
    ``-X dev -W error`` turns every warning into a failure. The probe lists
    the modules before it imports ``json`` to print them.
    """

    PROBE = (
        "import sys\n"
        "{body}\n"
        "modules = sorted(sys.modules)\n"
        "import json\n"
        "print(json.dumps([code, modules]))\n"
    )
    MAIN = "from myetrends.cli import main\ncode = main(sys.argv[1:])"
    HEAVY = ("numpy", "scipy")
    # standard modules no command but simulate needs: the records are plain
    # classes, annotations are strings, only JSON output imports json, and a
    # bundled sample is read from its path, not through importlib.resources
    # (which loads pathlib, tempfile, zipfile and typing)
    UNUSED = {"dataclasses", "inspect", "typing", "json", "importlib.resources", "pathlib",
              "tempfile", "zipfile"}
    # the package modules each command loads, beside the package itself
    LOADS = {
        "design": {"cli", "exceptions", "filterdesign", "ratpoly"},
        "impute": {"cli", "datasets", "exceptions", "myeseries"},
        "trends": {"analysis", "cli", "datasets", "exceptions", "filterdesign", "myeseries",
                   "ratpoly"},
        "compat": {"analysis", "cli", "datasets", "exceptions", "myeseries", "ratpoly"},
        "compare": {"analysis", "cli", "datasets", "exceptions", "filterdesign", "myeseries",
                    "ratpoly"},
        "demo": {"analysis", "cli", "datasets", "demo", "exceptions", "filterdesign",
                 "myeseries", "ratpoly"},
        "simulate": {"analysis", "cli", "exceptions", "ratpoly", "simulation"},
    }

    def probe(self, body, *argv):
        """Exit code of ``body`` and every module loaded by then."""
        proc = child("-S", "-c", self.PROBE.format(body=body), *argv)
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout.splitlines()[-1])
        return code, set(modules)

    @staticmethod
    def package(modules):
        return {m.partition(".")[2] for m in modules if m.startswith("myetrends.")}

    def heavy(self, modules):
        return {m for m in modules if m.partition(".")[0] in self.HEAVY}

    @pytest.mark.parametrize("module", ["myetrends", "myetrends.cli"])
    def test_import(self, module):
        code, modules = self.probe(f"import {module}\ncode = 0")
        loads = {"myetrends": set(), "myetrends.cli": {"cli", "exceptions"}}[module]
        assert self.package(modules) == loads
        assert not self.heavy(modules)
        assert not self.UNUSED & modules

    def test_submodule_read_as_a_package_attribute(self):
        # ``myetrends.analysis`` with no import of it first: the package's
        # __getattr__ imports the submodule and keeps it, and loads only it
        # and what it imports
        code, modules = self.probe(
            "import myetrends\n"
            "assert 'myetrends.analysis' not in sys.modules\n"
            "mod = myetrends.analysis\n"
            "assert mod is sys.modules['myetrends.analysis'] is vars(myetrends)['analysis']\n"
            "assert mod.nsr is myetrends.nsr\n"
            "code = 0")
        assert code == 0
        assert self.package(modules) == {"analysis", "exceptions", "ratpoly"}
        assert not self.heavy(modules)

    @pytest.mark.parametrize(
        "command", ["design", "impute", "trends", "compat", "compare", "demo"]
    )
    def test_non_simulate_command(self, command, tmp_path):
        filled = tmp_path / "income.csv"
        assert main(["impute", *INCOME_ARGS, "--out", str(filled)]) == 0
        f = str(filled)
        argv = {
            "design": ["design", "--degree", "1", "--periods", "1,3,5"],
            "impute": ["impute", "--in", "income", "--targets", "3:2006"],
            "trends": ["trends", "--in", f, "--t0", "2007"],
            "compat": ["compat", "--in", f],
            "compare": ["compare", "--in-a", f, "--in-b", f, "--mode", "proper",
                        "--t0", "2007", "--other-period", "5"],
            "demo": ["demo"],
        }[command]
        out = tmp_path / "out"
        code, modules = self.probe(self.MAIN, *argv, "--out", str(out))
        assert code == 0
        assert out.read_text()
        assert self.package(modules) == self.LOADS[command]
        assert not self.heavy(modules)
        assert not self.UNUSED & modules
        if command == "design":
            assert "csv" not in modules
        if command == "impute":
            # an interior target is a float midpoint; only a trailing one
            # forms its value exactly
            assert "fractions" not in modules

    def test_json_output_loads_json(self, tmp_path):
        code, modules = self.probe(self.MAIN, "design", "--degree", "1", "--periods", "1,3,5",
                                   "--format", "json", "--out", str(tmp_path / "out"))
        assert code == 0
        assert json.loads((tmp_path / "out").read_text())["filters"]["degree"] == 1
        assert "json" in modules
        assert not (self.UNUSED - {"json"}) & modules

    def test_inapt_compare_designs_nothing(self, tmp_path):
        f = str(tmp_path / "income.csv")
        assert main(["impute", *INCOME_ARGS, "--out", f]) == 0
        code, modules = self.probe(self.MAIN, "compare", "--in-a", f, "--in-b", f, "--mode",
                                   "inapt", "--t0", "2007", "--out", str(tmp_path / "out"))
        assert code == 0
        assert self.package(modules) == self.LOADS["compare"] - {"filterdesign"}

    def test_simulate_loads_them(self, tmp_path):
        argv = ["simulate", "--trend", "0,1", "--noise", "1", "--mode", "inapt",
                "--t0", "10", "--replicates", "10", "--out", str(tmp_path / "out")]
        code, modules = self.probe(self.MAIN, *argv)
        assert code == 0
        assert self.package(modules) == self.LOADS["simulate"]
        assert {"numpy", "scipy.special"} <= modules

    def test_simulate_loads_no_csv_of_its_own(self):
        # scipy.special loads csv (through importlib.metadata), so the
        # command's own imports are probed up to simulate_bias's NumPy import
        code, modules = self.probe("from myetrends.analysis import expected_bias\n"
                                   "from myetrends.simulation import SimulationSpec, simulate_bias\n"
                                   "code = 0")
        assert self.package(modules) == self.LOADS["simulate"] - {"cli"}
        assert not self.heavy(modules)
        assert "csv" not in modules
