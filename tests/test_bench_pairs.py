"""The pairs tool's statistics and argument checks, without running a benchmark."""

import importlib.util
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
