"""The pairs tool's statistics and argument checks, without running a benchmark."""

import importlib.util
import re
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_PATH = _ROOT / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

HIGHER = {"unit": "1/s", "better": "higher", "bound": 0.2}
LOWER = {"unit": "ms", "better": "lower", "bound": 0.2}
BASE = ["--parent", "HEAD~1", "--pr", "8"]


def claim(spec, parent, change):
    return bench_pairs.judge_claim(bench_pairs.summarize(spec, parent, change))


class TestSummarize:
    def test_ties_count_for_neither_side(self):
        m = bench_pairs.summarize(HIGHER, [1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 3.0, 4.0])
        assert m["change_better_pairs"] == "1/4"
        m = bench_pairs.summarize(LOWER, [1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 3.0, 4.0])
        assert m["change_better_pairs"] == "0/4"

    def test_lower_is_better_counts_smaller_values(self):
        m = bench_pairs.summarize(LOWER, [10.0] * 4, [9.0, 9.0, 11.0, 9.0])
        assert m["change_better_pairs"] == "3/4"
        assert m["median_change_pct"] == -10.0

    def test_quartiles_and_spread(self):
        m = bench_pairs.summarize(HIGHER, [float(i) for i in range(10)], [5.0] * 10)
        assert m["parent"] == {"median": 4.5, "q1": 2.25, "q3": 6.75, "min": 0.0, "max": 9.0}
        assert m["parent_quartile_spread"] == 4.5

    @pytest.mark.parametrize("spec,median,within", [
        (LOWER, 12.0, True), (LOWER, 12.5, False), (LOWER, 7.0, True),
        (HIGHER, 8.0, True), (HIGHER, 7.5, False), (HIGHER, 13.0, True),
    ])
    def test_within_bound(self, spec, median, within):
        # parent median 10 and bound 0.2: lower may rise to 12, higher may fall to 8
        m = bench_pairs.summarize(spec, [10.0] * 3, [median] * 3)
        assert m["within_bound"] is within


class TestJudgeClaim:
    def test_lower_is_better_flips_the_gain(self):
        assert claim(LOWER, [10.0] * 10, [6.0] * 10)["median_gain"] == 4.0
        assert claim(HIGHER, [10.0] * 10, [6.0] * 10)["median_gain"] == -4.0
        assert claim(LOWER, [10.0] * 10, [6.0] * 10)["met"]
        assert not claim(HIGHER, [10.0] * 10, [6.0] * 10)["met"]

    def test_nine_of_ten_pairs_meet_the_claim(self):
        result = claim(HIGHER, [10.0] * 10, [12.0] * 9 + [9.0])
        assert result["change_better_pairs"] == "9/10"
        assert result["met"]

    def test_eight_of_ten_pairs_do_not(self):
        result = claim(HIGHER, [10.0] * 10, [12.0] * 8 + [9.0] * 2)
        assert result["change_better_pairs"] == "8/10"
        assert result["median_gain"] == 2.0
        assert not result["met"]

    def test_gain_equal_to_the_quartile_spread_does_not_meet(self):
        parent = [float(i) for i in range(10)]  # quartile spread 4.5
        result = claim(HIGHER, parent, [v + 4.5 for v in parent])
        assert result["change_better_pairs"] == "10/10"
        assert result["median_gain"] == result["parent_quartile_spread"] == 4.5
        assert not result["met"]
        assert claim(HIGHER, parent, [v + 5.0 for v in parent])["met"]


def traced(**metrics):
    """One traced run's ``metrics`` object from name=(value, unit) pairs."""
    return {name: {"value": v, "unit": u, "n": 1} for name, (v, u) in metrics.items()}


class TestAggregateTraces:
    def test_timings_median_min_max_and_counts_once(self):
        runs = {
            "parent": [traced(a_ms=(3.0, "ms"), draws=(240, "count"), bits=(59, "bits")),
                       traced(a_ms=(1.0, "ms"), draws=(240, "count"), bits=(59, "bits")),
                       traced(a_ms=(8.0, "ms"), draws=(240, "count"), bits=(59, "bits"))],
            "change": [traced(a_ms=(2.0, "ms"), draws=(120, "count"), bits=(59, "bits")),
                       traced(a_ms=(0.5, "ms"), draws=(120, "count"), bits=(59, "bits")),
                       traced(a_ms=(1.0, "ms"), draws=(120, "count"), bits=(59, "bits"))],
        }
        assert bench_pairs.aggregate_traces(runs) == {
            "a_ms": {"unit": "ms", "parent": {"median": 3.0, "min": 1.0, "max": 8.0},
                     "change": {"median": 1.0, "min": 0.5, "max": 2.0}, "ranges_overlap": True},
            # the two sides may differ; one side's runs may not
            "draws": {"unit": "count", "parent": 240, "change": 120},
            "bits": {"unit": "bits", "parent": 59, "change": 59},
        }

    @pytest.mark.parametrize("parent,change,overlap", [
        ((1.0, 2.0, 3.0), (4.0, 5.0, 6.0), False),
        ((4.0, 5.0, 6.0), (1.0, 2.0, 3.0), False),
        ((1.0, 2.0, 3.0), (3.0, 4.0, 5.0), True),
        ((1.0, 5.0, 9.0), (4.0, 4.5, 6.0), True),
    ])
    def test_ranges_overlap(self, parent, change, overlap):
        runs = {"parent": [traced(a_ms=(v, "ms")) for v in parent],
                "change": [traced(a_ms=(v, "ms")) for v in change]}
        assert bench_pairs.aggregate_traces(runs)["a_ms"]["ranges_overlap"] is overlap

    def test_a_metric_missing_from_any_run_is_left_out(self):
        runs = {"parent": [traced(a_ms=(1.0, "ms"), b_ms=(1.0, "ms"))] * 3,
                "change": [traced(a_ms=(1.0, "ms"), b_ms=(1.0, "ms"))] * 2
                + [traced(a_ms=(1.0, "ms"))]}
        assert list(bench_pairs.aggregate_traces(runs)) == ["a_ms"]

    def test_a_count_that_differs_between_one_sides_runs_fails(self):
        runs = {"parent": [traced(draws=(240, "count"))] * 3,
                "change": [traced(draws=(240, "count"))] * 2 + [traced(draws=(241, "count"))]}
        with pytest.raises(SystemExit, match=r"draws differs between the change's traced "
                                             r"runs: \[240, 240, 241\]"):
            bench_pairs.aggregate_traces(runs)

    def test_ratios_cancel_a_uniform_slowdown_of_one_side(self):
        # the change side's host runs 20% slower on every layer: the raw
        # ranges fall apart, the ratios to the reference layer do not
        parent = [(1.00, 2.00, 0.30), (1.05, 2.10, 0.31), (1.10, 2.20, 0.32)]
        runs = {side: [traced(ref_ms=(r * f, "ms"), a_ms=(a * f, "ms"), b_ms=(b * f, "ms"),
                              draws=(240, "count"), cover_pct=(90.0, "%"))
                       for r, a, b in parent]
                for side, f in (("parent", 1.0), ("change", 1.2))}
        out = bench_pairs.aggregate_traces(runs, "ref_ms")
        for name, ratios in (("a_ms", (2.0, 2.0, 2.0)), ("b_ms", (0.3, 0.31 / 1.05, 0.32 / 1.1))):
            assert out[name]["ranges_overlap"] is False
            assert out[name]["ratio"]["ranges_overlap"] is True
            assert out[name]["ratio"]["parent"] == pytest.approx(
                {"median": sorted(ratios)[1], "min": min(ratios), "max": max(ratios)})
        # the reference layer, the counts and other units get no ratio
        assert not any("ratio" in out[name] for name in ("ref_ms", "draws", "cover_pct"))
        assert "ratio" not in bench_pairs.aggregate_traces(runs)["a_ms"]

    @pytest.mark.parametrize("layer", ["nope_ms", "draws"])
    def test_a_reference_layer_that_is_not_a_timing_fails(self, layer):
        runs = {side: [traced(a_ms=(1.0, "ms"), draws=(240, "count"))] * 3
                for side in ("parent", "change")}
        with pytest.raises(SystemExit, match=f"--trace-relative-to {layer}: not a timing"):
            bench_pairs.aggregate_traces(runs, layer)


class TestParseArgs:
    def test_defaults(self):
        args = bench_pairs.parse_args(BASE + ["--claim", "series_audit:work_per_s"])
        assert (args.pairs, args.seed, args.change) == (10, 841, "HEAD")
        assert args.claim == "series_audit:work_per_s"

    @pytest.mark.parametrize("pairs", ["1", "0", "-3"])
    def test_rejects_fewer_than_two_pairs(self, pairs, capsys):
        with pytest.raises(SystemExit) as exc:
            bench_pairs.parse_args(BASE + ["--pairs", pairs])
        assert exc.value.code == 2
        assert "--pairs must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("pairs", ["2", "9"])
    def test_rejects_a_claim_on_fewer_than_ten_pairs(self, pairs, capsys):
        with pytest.raises(SystemExit) as exc:
            bench_pairs.parse_args(BASE + ["--pairs", pairs, "--claim", "series_audit:work_per_s"])
        assert exc.value.code == 2
        assert f"--claim needs at least 10 pairs, got --pairs {pairs}" in capsys.readouterr().err
        assert bench_pairs.parse_args(BASE + ["--pairs", pairs]).pairs == int(pairs)

    def test_relative_timings_need_a_traced_workload(self, capsys):
        layer = ["--trace-relative-to", "analysis.trend_estimates_ms"]
        with pytest.raises(SystemExit) as exc:
            bench_pairs.parse_args(BASE + layer)
        assert exc.value.code == 2
        assert "--trace-relative-to needs --trace" in capsys.readouterr().err
        args = bench_pairs.parse_args(BASE + layer + ["--trace", "series_audit"])
        assert args.trace_relative_to == "analysis.trend_estimates_ms"

    @pytest.mark.parametrize("claim", ["series_audit", ":work_per_s", "series_audit:",
                                       "series_audit:work_per_s:x", ""])
    def test_rejects_a_claim_not_workload_colon_metric(self, claim, capsys):
        with pytest.raises(SystemExit) as exc:
            bench_pairs.parse_args(BASE + ["--claim", claim])
        assert exc.value.code == 2
        assert "--claim must be WORKLOAD:METRIC" in capsys.readouterr().err


class TestCompareChecksNamesFirst:
    """A misspelt name fails before the first run, not after the last."""

    @pytest.fixture
    def trees(self, monkeypatch):
        def run_once(*args):
            raise AssertionError(f"a run started: {args}")

        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        return {"parent": _ROOT, "change": _ROOT}

    @pytest.mark.parametrize("extra,message", [
        (["--trace", "series_audti"], "--trace series_audti: not a workload"),
        # a misspelt second workload used to fail only after the first one's pairs
        (["--workload", "monte_carol"], "--workload monte_carol: not a workload"),
        (["--trace", "series_audit", "--trace-relative-to", "myeseries.load_csv"],
         "--trace-relative-to myeseries.load_csv: not a per-layer timing in ms"),
        # a per-layer entry, but a count, not a timing
        (["--trace", "series_audit", "--trace-relative-to", "analysis.quantile_draws"],
         "--trace-relative-to analysis.quantile_draws: not a per-layer timing in ms"),
    ])
    def test_a_bad_trace_name_fails_before_any_run(self, trees, extra, message):
        args = bench_pairs.parse_args(BASE + ["--workload", "series_audit"] + extra)
        with pytest.raises(SystemExit, match=message):
            bench_pairs.compare(args, trees)

    def test_good_trace_names_reach_the_first_run(self, trees):
        args = bench_pairs.parse_args(BASE + [
            "--workload", "series_audit", "--trace", "series_audit",
            "--trace-relative-to", "myeseries.load_csv_ms"])
        with pytest.raises(AssertionError, match="a run started"):
            bench_pairs.compare(args, trees)


# canned -X importtime output: the floor loads encodings and site, the
# command adds argparse (and its submodule), numpy and the package
FLOOR_IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       187 |        187 |   _io
import time:       900 |       1087 | encodings
import time:      1200 |       1200 | site
"""
COMMAND_IMPORTTIME = FLOOR_IMPORTTIME + """\
import time:      1500 |       1500 |     argparse
import time:       250 |        250 |       email.utils
import time:      4000 |       4000 |   numpy
import time:       900 |       2650 | myetrends
import time:      6800 |       6800 |   myetrends.cli
import time:      3800 |       3800 |     myetrends.ratpoly
"""


class TestColdProbe:
    def test_self_times_per_module(self):
        times = bench_pairs.import_self_us(COMMAND_IMPORTTIME + "a stray warning\n")
        assert times == {"_io": 187, "encodings": 900, "site": 1200, "argparse": 1500,
                         "email.utils": 250, "numpy": 4000, "myetrends": 900,
                         "myetrends.cli": 6800, "myetrends.ratpoly": 3800}

    def test_package_and_extra_standard_library(self):
        floor = set(bench_pairs.import_self_us(FLOOR_IMPORTTIME))
        # numpy is neither; _io, encodings and site are in the floor
        package, stdlib = bench_pairs.import_split(COMMAND_IMPORTTIME, floor)
        assert package == pytest.approx(11.5)
        assert stdlib == pytest.approx(1.75)

    def test_exit_stamp(self):
        stderr = "warning: something\nexit-stamp 1234.5\n"
        assert bench_pairs.parse_exit_stamp(stderr) == 1234.5
        with pytest.raises(SystemExit, match="no exit stamp"):
            bench_pairs.parse_exit_stamp("warning: something\n")

    def test_the_wrapper_stamps_the_exit(self, tmp_path):
        # a real child: the stamp is written from atexit, before the reap
        started = bench_pairs.time.perf_counter()
        ms, reaped, stderr = bench_pairs.timed_child(
            ["-c", bench_pairs.STAMP_WRAPPER, "--version"], _ROOT, tmp_path)
        assert started < bench_pairs.parse_exit_stamp(stderr) < reaped
        assert 0 < ms < 1e3 * (reaped - started)

    def test_probes_report_each_key_as_a_timing(self, monkeypatch, tmp_path):
        samples = iter([1.0, 2.0, 3.0, 4.0])

        def cold_probe(tree, work, filled):
            assert filled.parent == work
            value = next(samples)
            return {"cold.floor_ms": value, "cold.exit_ms.design": 10 * value if tree == "c"
                    else value}

        monkeypatch.setattr(bench_pairs, "timed_child", lambda *args: None)
        monkeypatch.setattr(bench_pairs, "cold_probe", cold_probe)
        affinity = bench_pairs.os.sched_getaffinity(0)
        out = bench_pairs.cold_probes({"parent": "p", "change": "c"}, 2, 1)
        assert bench_pairs.os.sched_getaffinity(0) == affinity
        # seed 1 runs the change first, seed 2 the parent
        assert out == {
            "cold.floor_ms": {"unit": "ms", "parent": {"median": 2.5, "min": 2.0, "max": 3.0},
                              "change": {"median": 2.5, "min": 1.0, "max": 4.0},
                              "ranges_overlap": True},
            "cold.exit_ms.design": {"unit": "ms",
                                    "parent": {"median": 2.5, "min": 2.0, "max": 3.0},
                                    "change": {"median": 25.0, "min": 10.0, "max": 40.0},
                                    "ranges_overlap": False},
        }


class TestOutputFile:
    @pytest.mark.parametrize("extra,name", [
        ([], "BENCH_8.json"),
        (["--workload", "series_audit"], "BENCH_8_series_audit.json"),
        (["--workload", "cli_cold", "--workload", "series_audit"],
         "BENCH_8_cli_cold-series_audit.json"),
    ])
    def test_named_by_pr_and_workloads(self, extra, name, tmp_path):
        args = bench_pairs.parse_args(BASE + extra)
        assert bench_pairs.output_path(tmp_path, args) == tmp_path / name

    @pytest.mark.parametrize("extra,name", [
        ([], "BENCH_8.json"),
        (["--workload", "monte_carlo"], "BENCH_8_monte_carlo.json"),
    ])
    def test_an_existing_file_stops_the_tool_before_any_export(self, extra, name, tmp_path,
                                                               monkeypatch):
        # a second run for the same PR used to overwrite the first one's file
        def git(*args, cwd):
            return str(tmp_path) if args[:1] == ("rev-parse",) else "subject"

        def export(*args):
            raise AssertionError(f"an export started: {args}")

        monkeypatch.setattr(bench_pairs, "git", git)
        monkeypatch.setattr(bench_pairs, "export", export)
        (tmp_path / name).write_text("{}\n")
        with pytest.raises(SystemExit, match=f"^{re.escape(str(tmp_path / name))} already exists"):
            bench_pairs.main(BASE + extra)
        assert (tmp_path / name).read_text() == "{}\n"
        # the other name is free, so that run reaches its first export
        other = [] if extra else ["--workload", "monte_carlo"]
        with pytest.raises(AssertionError, match="an export started"):
            bench_pairs.main(BASE + other)
