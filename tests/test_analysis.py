"""Filtered trends, NSR/compatibility, comparisons, and expected bias.

The NSR base-10 choice is confirmed here by a brute-force oracle over raw
value arrays, entirely outside the library code path, before the library's
own numbers are trusted.
"""

import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myetrends.analysis import (
    ComparisonResult,
    ComparisonSpec,
    apply_filter,
    compare,
    compatibility,
    expected_bias,
    nsr,
    sma_of_base,
    synthetic_series,
    trend_estimates,
)
from myetrends.datasets import STANDARD_TARGETS, load_sample
from myetrends.exceptions import DomainError, MissingDataError
from myetrends.filterdesign import DesignSpec, FilterSet, design_filters
from myetrends.myeseries import (
    IMPUTED,
    PUBLISHED,
    MyeSeries,
    ObservedValue,
    RegionPair,
    impute_random_walk,
    render_value,
)
from myetrends.ratpoly import RatPoly, sma
from myetrends.simulation import SimulationSpec

LINEAR = design_filters(DesignSpec((1, 3, 5), 1))
QUADRATIC = design_filters(DesignSpec((1, 3, 5), 2))


def full_sample(name):
    return impute_random_walk(load_sample(name), STANDARD_TARGETS)


# ---------------------------------------------------------------------------
# independent NSR oracle over raw arrays (no library types involved)

# Published values, keyed by end year.
RAW = {
    "income": {
        1: {2000: 35223, 2001: 35615, 2002: 37638, 2003: 37818,
            2004: 38800, 2005: 41521, 2006: 42984, 2007: 43546},
        3: {2001: 35956, 2002: 36780, 2003: 37373, 2004: 38739,
            2005: 40404, 2007: 44386},
        5: {2003: 37510, 2004: 38608, 2005: 40055},
    },
    "age": {
        1: {2000: 36.40, 2001: 37.30, 2002: 37.00, 2003: 37.10,
            2004: 37.20, 2005: 37.40, 2006: 37.40, 2007: 37.60},
        3: {2001: 36.80, 2002: 36.80, 2003: 37.00, 2004: 37.10,
            2005: 37.30, 2007: 37.40},
        5: {2003: 36.70, 2004: 36.90, 2005: 37.20},
    },
}


def _extend_raw(table):
    """Fill 3y 2006 and 5y 2006/2007 by the random-walk formulas, inline."""
    y3, y5 = dict(table[3]), dict(table[5])
    y3[2006] = (y3[2005] + y3[2007]) / 2
    y5[2006] = y5[2005] + (y5[2005] - y5[2003]) / 2
    y5[2007] = y5[2005] + (y5[2005] - y5[2003])
    return {1: dict(table[1]), 3: y3, 5: y5}


def _oracle_c(table, k, log):
    vals = []
    for t, y in table[k].items():
        window = [table[1].get(t - i) for i in range(k)]
        if any(v is None for v in window):
            continue
        vals.append(abs(log(y) - log(sum(window) / k)))
    return max(vals)


class TestNsrBaseOracle:
    """Brute-force confirmation that base 10 reproduces the reference C
    values and natural log does not, on two different variables."""

    def test_base_ten_reproduces_income_and_age(self):
        for name, expected in (("income", ("0.017", "0.020")), ("age", ("0.002", "0.004"))):
            table = _extend_raw(RAW[name])
            got = tuple(render_value(_oracle_c(table, k, math.log10), 3) for k in (3, 5))
            assert got == expected, name

    def test_natural_log_does_not(self):
        table = _extend_raw(RAW["income"])
        c3_ln = _oracle_c(table, 3, math.log)
        assert render_value(c3_ln, 3) == "0.039"
        assert c3_ln == pytest.approx(math.log(10) * _oracle_c(table, 3, math.log10))

    def test_library_matches_oracle(self):
        for name in ("income", "age"):
            table = _extend_raw(RAW[name])
            report = compatibility(full_sample(name), (3, 5))
            for k in (3, 5):
                assert report.c(k) == pytest.approx(_oracle_c(table, k, math.log10), rel=1e-12)


# ---------------------------------------------------------------------------
# apply_filter and trend estimates


class TestApplyFilter:
    def test_income_one_year_trend(self):
        got = apply_filter(LINEAR.psi[1], full_sample("income"), 1, 2007)
        assert got == pytest.approx(653547 / 15, rel=1e-15)
        assert render_value(got) == "43570"

    def test_income_three_year_trend(self):
        got = apply_filter(LINEAR.psi[3], full_sample("income"), 3, 2007)
        assert got == pytest.approx(45223.0, rel=1e-15)

    def test_age_five_year_trend(self):
        got = apply_filter(LINEAR.psi[5], full_sample("age"), 5, 2007)
        assert got == pytest.approx((4 * 37.70 + 37.45 + 37.20 - 3 * 36.90) / 3, rel=1e-14)
        assert render_value(got, 2) == "38.25"

    def test_identity_filter_returns_raw_value(self):
        fs0 = design_filters(DesignSpec((1,), 0))
        s = load_sample("income")
        assert apply_filter(fs0.psi[1], s, 1, 2004) == s.value(1, 2004)

    def test_missing_window_lists_pairs(self):
        s = load_sample("income")
        with pytest.raises(MissingDataError, match=r"\(5, 2002\)"):
            apply_filter(LINEAR.psi[5], s, 5, 2005)

    def test_uses_exactly_the_window(self):
        # deg(psi5)=3: years 2004-2007 suffice; keep only those.
        full = full_sample("income")
        trimmed = {
            (5, t): full.value(5, t) for t in (2004, 2005, 2006, 2007)
        }
        s = MyeSeries("income", "dollars", trimmed)
        expect = apply_filter(LINEAR.psi[5], full, 5, 2007)
        assert apply_filter(LINEAR.psi[5], s, 5, 2007) == expect

    def test_reads_each_window_key_once(self):
        # the window's values are one slice read, with no tags sliced; no
        # key is looked up on its own
        reads = []

        class Counting(MyeSeries):
            def _window_values(self, period, end_year, length):
                reads.append((period, end_year, length))
                return super()._window_values(period, end_year, length)

            def get(self, *args):
                raise AssertionError("get(), has(), value() or window() called")

            has = value = window = get

        s = Counting("income", "dollars", dict(full_sample("income").items()))
        assert apply_filter(LINEAR.psi[5], s, 5, 2007) == apply_filter(
            LINEAR.psi[5], full_sample("income"), 5, 2007)
        assert reads == [(5, 2007, 4)]
        with pytest.raises(MissingDataError) as err:
            apply_filter(LINEAR.psi[5], s, 5, 2005)
        assert str(err.value) == (
            "income: filter window needs missing observations [(5, 2002)]")

    @pytest.mark.parametrize(
        "weights",
        [(1, 1), (2, -2), (2,)],
        ids=["overflowing-sum", "inf-minus-inf", "overflowing-product"],
    )
    def test_overflow_is_a_domain_error(self, weights):
        s = MyeSeries("big", "count", {(3, 2001): 1.7e308, (3, 2002): 1.7e308})
        with pytest.raises(DomainError, match="big: 3y filter ending 2002 overflows"):
            apply_filter(RatPoly(weights), s, 3, 2002)


class TestTrendEstimates:
    EXPECT = {
        "income": ("43570", "45223", "45320", 0),
        "divorce": ("19331", "19217", "16695", 0),
        "age": ("37.59", "37.59", "38.25", 2),
    }

    @pytest.mark.parametrize("name", ["income", "divorce", "age"])
    def test_reference_trend_rows(self, name):
        te = trend_estimates(full_sample(name), LINEAR, 2007)
        e1, e3, e5, dec = self.EXPECT[name]
        assert render_value(te.values[1], dec) == e1
        assert render_value(te.values[3], dec) == e3
        assert render_value(te.values[5], dec) == e5

    def test_earliest_observations_unused(self):
        # dropping the first 3y and 5y values changes nothing at t0=2007.
        full = full_sample("income")
        pruned = {
            key: ov.value
            for key, ov in full.items()
            if key not in ((3, 2001), (5, 2003))
        }
        s = MyeSeries("income", "dollars", pruned)
        a = trend_estimates(full, LINEAR, 2007)
        b = trend_estimates(s, LINEAR, 2007)
        assert a.values == b.values

    def test_unknown_period_rejected(self):
        # a hand-built family that lacks one of its design's filters
        psi = {k: p for k, p in LINEAR.psi.items() if k != 5}
        fs = FilterSet(spec=LINEAR.spec, phi=LINEAR.phi, psi=psi, common=LINEAR.common)
        with pytest.raises(ValueError, match="no period 5"):
            trend_estimates(full_sample("income"), fs, 2007)

    @pytest.mark.parametrize("t0", [True, 2007.0])
    def test_t0_that_is_not_an_int_is_rejected(self, t0):
        with pytest.raises(ValueError) as err:
            trend_estimates(full_sample("income"), LINEAR, t0)
        assert str(err.value) == f"t0 must be an integer, got {t0!r}"

    def test_to_dict(self):
        te = trend_estimates(full_sample("age"), LINEAR, 2007)
        d = te.to_dict()
        assert d["at"] == 2007
        assert d["degree"] == 1
        assert set(d["values"]) == {"1", "3", "5"}


# ---------------------------------------------------------------------------
# NSR and compatibility


class TestNsr:
    def test_income_2007(self):
        got = nsr(full_sample("income"), 3, 2007)
        window_mean = (41521 + 42984 + 43546) / 3
        assert got == pytest.approx(math.log10(44386 / window_mean), rel=1e-14)
        assert round(got, 5) == 0.01698

    def test_divorce_2006_full_precision(self):
        # imputed 3y value 17370.5 enters unrounded
        got = nsr(full_sample("divorce"), 3, 2006)
        direct = math.log10(17370.5) - math.log10((15632 + 14591 + 20941) / 3)
        assert got == direct
        assert got == pytest.approx(
            math.log10(17370.5 / ((15632 + 14591 + 20941) / 3)), rel=1e-12
        )
        assert render_value(got, 3) == "0.008"

    def test_synthetic_non_finite_trend_names_the_coefficient(self):
        with pytest.raises(ValueError, match="coefficient 0 must be a finite number"):
            synthetic_series((math.inf, 1), (1, 3), 2000, 2010)

    def test_zero_when_value_equals_window_mean(self):
        s = synthetic_series((5,), (1, 3), 2000, 2010)
        assert nsr(s, 3, 2005) == pytest.approx(0.0, abs=1e-15)

    def test_natural_log_flag(self):
        s = full_sample("income")
        assert nsr(s, 3, 2007, log_base="e") == pytest.approx(
            math.log(10) * nsr(s, 3, 2007), rel=1e-12
        )

    def test_bad_base_rejected(self):
        with pytest.raises(ValueError, match="log_base"):
            nsr(full_sample("income"), 3, 2007, log_base=2)

    @pytest.mark.parametrize("period", [0, -3, 3.0, True, "3", None])
    def test_bad_period_named_before_any_read(self, period):
        want = rf"period must be an integer >= 1, got {re.escape(repr(period))}$"
        with pytest.raises(ValueError, match=want):
            nsr(_unreadable(full_sample("income")), period, 2007)

    def test_nonpositive_value_named(self):
        s = MyeSeries("x", "count", {(1, 2000): 5.0, (3, 2000): -1.0,
                                     (1, 1999): 5.0, (1, 1998): 5.0})
        with pytest.raises(DomainError, match="3y value"):
            nsr(s, 3, 2000)

    def test_nonpositive_window_mean_named(self):
        s = MyeSeries("x", "count", {(1, 2000): -5.0, (3, 2000): 1.0,
                                     (1, 1999): 5.0, (1, 1998): -5.0})
        with pytest.raises(DomainError, match="window mean"):
            nsr(s, 3, 2000)

    def test_rescaling_invariance(self):
        s = full_sample("income")
        scaled = MyeSeries(
            s.name, s.unit, {key: 7.3 * ov.value for key, ov in s.items()}
        )
        assert nsr(scaled, 3, 2007) == pytest.approx(nsr(s, 3, 2007), abs=1e-12)


# Every reader of a series' observations: the shared lookup and each
# reader built on it or on the runs.
_READERS = ("_find", "window", "_window_values", "_base_windows", "column")


def _unreadable(series):
    """A copy of ``series`` that fails any read of its observations."""

    def refuse(reader):
        def read(self, *args):
            raise AssertionError(f"{reader}() called")
        return read

    Unreadable = type("Unreadable", (MyeSeries,), {r: refuse(r) for r in _READERS})
    return Unreadable(series.name, series.unit, dict(series.items()))


@pytest.mark.parametrize("read", [
    lambda s: s.has(3, 2007), lambda s: (3, 2007) in s, lambda s: s.value(3, 2007),
    lambda s: s.provenance(3, 2007), lambda s: s.years(3), lambda s: sma_of_base(s, 3, 2007),
    lambda s: nsr(s, 3, 2007), lambda s: compatibility(s, [3]),
    lambda s: apply_filter(LINEAR.psi[3], s, 3, 2007),
], ids=["has", "in", "value", "provenance", "years", "sma_of_base", "nsr", "compatibility",
        "apply_filter"])
def test_an_unreadable_series_refuses_every_read(read):
    # so the "before any read" tests above and below check what they say
    full = full_sample("income")
    read(full)
    with pytest.raises(AssertionError, match=r"\(\) called$"):
        read(_unreadable(full))


class TestCompatibility:
    def test_reference_values(self):
        expected = {
            "income": ("0.017", "0.020"),
            "divorce": ("0.008", "0.042"),
            "age": ("0.002", "0.004"),
        }
        for name, (c3, c5) in expected.items():
            report = compatibility(full_sample(name), (3, 5))
            assert render_value(report.c(3), 3) == c3
            assert render_value(report.c(5), 3) == c5

    def test_valid_year_ranges(self):
        report = compatibility(full_sample("income"), (3, 5))
        assert sorted(report.entries[3].nsr) == list(range(2002, 2008))
        assert sorted(report.entries[5].nsr) == list(range(2004, 2008))

    def test_c_is_max_abs_nsr(self):
        report = compatibility(full_sample("divorce"), (3,))
        entry = report.entries[3]
        assert entry.c == max(abs(v) for v in entry.nsr.values())

    def test_exclude_imputed_shrinks_divorce_c5(self):
        # most of the 5y incompatibility lives in the forecast extension
        full = full_sample("divorce")
        with_imp = compatibility(full, (5,))
        without = compatibility(full, (5,), include_imputed=False)
        assert sorted(without.entries[5].nsr) == [2004, 2005]
        assert without.c(5) < 0.1 * with_imp.c(5)

    def test_exclude_imputed_drops_exactly_the_windows_touching_it(self):
        # 1y runs 2000-2009 (2004 imputed) and 2012-2020 (all published); a
        # run with no imputed value has no window dropped
        obs = {(1, t): ObservedValue(10.0 + t % 7, IMPUTED if t == 2004 else PUBLISHED)
               for t in [*range(2000, 2010), *range(2012, 2021)]}
        obs.update({(3, t): 11.0 + t % 5 for t in range(2002, 2021)})
        obs[(3, 2015)] = ObservedValue(12.0, IMPUTED)
        s = MyeSeries("x", "count", obs)
        everything = compatibility(s, (3,)).entries[3].nsr
        published = compatibility(s, (3,), include_imputed=False).entries[3].nsr
        assert sorted(everything) == [*range(2002, 2010), *range(2014, 2021)]
        # the windows ending 2004-2006 hold the imputed 2004; the 3y value
        # ending 2015 is imputed itself
        assert published == {t: v for t, v in everything.items()
                             if t not in (2004, 2005, 2006, 2015)}

    def test_reads_one_window_per_end_year(self):
        # each period's k-year values and their 1y windows come from one
        # walk over the runs; no end year is looked up on its own
        reads = []

        class Counting(MyeSeries):
            def _base_windows(self, period, published_only):
                reads.append((period, published_only))
                return super()._base_windows(period, published_only)

            def get(self, *args):
                raise AssertionError("a per-year lookup or a column walk")

            has = value = window = _window_values = _find = column = get

        full = full_sample("divorce")
        s = Counting(full.name, full.unit, dict(full.items()))
        for include in (True, False):
            reads.clear()
            assert compatibility(s, (5, 1, 3), include_imputed=include) == compatibility(
                full, (1, 3, 5), include_imputed=include)
            assert reads == [(k, not include) for k in (1, 3, 5)]

    @pytest.mark.parametrize("periods", [[], (), iter([])], ids=["list", "tuple", "iterator"])
    def test_empty_periods_raise_before_any_read(self, periods):
        # an empty request returned an empty report, on which every c(k) failed
        with pytest.raises(ValueError, match=r"^periods must be nonempty$"):
            compatibility(_unreadable(full_sample("income")), periods)

    @pytest.mark.parametrize("period", [0, -3, 3.0, True, "3", None])
    def test_bad_period_named_before_any_read(self, period):
        want = rf"period must be an integer >= 1, got {re.escape(repr(period))}$"
        with pytest.raises(ValueError, match=want):
            compatibility(_unreadable(full_sample("income")), [3, period])

    def test_no_valid_years_errors(self):
        s = MyeSeries("x", "count", {(1, 2000): 1.0, (3, 2005): 1.0})
        with pytest.raises(MissingDataError, match="complete 1y window"):
            compatibility(s, (3,))

    def test_to_dict_shape(self):
        d = compatibility(full_sample("age"), (3, 5)).to_dict()
        assert d["series"] == "age"
        assert d["log_base"] == "10"
        assert d["include_imputed"] is True
        assert set(d["periods"]) == {"3", "5"}
        assert "c" in d["periods"]["3"] and "nsr" in d["periods"]["3"]


# ---------------------------------------------------------------------------
# comparisons


class TestComparisonSpec:
    def test_inapt_requires_reference_one(self):
        with pytest.raises(ValueError, match="reference_period = 1"):
            ComparisonSpec("inapt", 2007, 3, 5)

    def test_inapt_requires_longer_other(self):
        with pytest.raises(ValueError, match="other_period > 1"):
            ComparisonSpec("inapt", 2007, 1, 1)

    def test_inapt_accepts_any_longer_period(self):
        ComparisonSpec("inapt", 2007, 1, 7)

    def test_untimely_requires_equal_periods(self):
        with pytest.raises(ValueError, match="same period"):
            ComparisonSpec("untimely", 2007, 1, 3)
        ComparisonSpec("untimely", 2007, 3, 3)

    def test_untimely_requires_periods_above_one(self):
        # the reference period defaults to the other period, here 1
        with pytest.raises(ValueError, match="untimely comparisons need periods > 1"):
            ComparisonSpec("untimely", 2007, None, 1)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ComparisonSpec("bogus", 2007)

    @pytest.mark.parametrize("mode, other, want", [
        ("untimely", 5, 5), ("untimely", 3, 3), ("inapt", 5, 1), ("proper", 5, 1), ("proper", 1, 1),
    ])
    def test_reference_period_default_follows_the_mode(self, mode, other, want):
        # an untimely comparison used to default to reference_period 1 and fail
        spec = ComparisonSpec(mode, 2007, other_period=other)
        assert spec.reference_period == want
        assert spec == ComparisonSpec(mode, 2007, want, other)
        sim = SimulationSpec(trend=[0, 1], noise_sd={}, mode=mode, t0=2007, replicates=5, seed=0,
                             other_period=other)
        assert sim.reference_period == want
        assert sim.comparison_spec() == spec


class TestCompare:
    def test_divorce_reference_percentages(self):
        pair = RegionPair(full_sample("divorce"), full_sample("divorce"))
        r3 = compare(pair, ComparisonSpec("inapt", 2007, 1, 3))
        assert (r3.value_a, r3.value_b) == (21844.0, 18852.0)
        assert r3.percent() == "-13.7"
        r5 = compare(pair, ComparisonSpec("inapt", 2007, 1, 5))
        assert r5.percent() == "-24.8"
        p3 = compare(pair, ComparisonSpec("proper", 2007, 1, 3), LINEAR)
        assert p3.percent(2) == "-0.59"
        p5 = compare(pair, ComparisonSpec("proper", 2007, 1, 5), LINEAR)
        assert p5.percent() == "-13.6"

    def test_income_reference_percentages(self):
        pair = RegionPair(full_sample("income"), full_sample("income"))
        assert compare(pair, ComparisonSpec("inapt", 2007, 1, 3)).percent() == "1.9"
        assert compare(pair, ComparisonSpec("inapt", 2007, 1, 5)).percent() == "-2.2"
        assert compare(pair, ComparisonSpec("proper", 2007, 1, 3), LINEAR).percent() == "3.8"
        assert compare(pair, ComparisonSpec("proper", 2007, 1, 5), LINEAR).percent() == "4.0"

    def test_untimely_identical_series_zero(self):
        pair = RegionPair(full_sample("age"), full_sample("age"))
        r = compare(pair, ComparisonSpec("untimely", 2005, 3, 3))
        assert r.discrepancy == 0.0

    def test_discrepancy_definition(self):
        pair = RegionPair(full_sample("income"), full_sample("income"))
        r = compare(pair, ComparisonSpec("inapt", 2007, 1, 3))
        assert r.discrepancy == pytest.approx(r.value_b / r.value_a - 1, abs=0)

    def test_swap_maps_discrepancy(self):
        a = full_sample("divorce")
        scaled = MyeSeries(a.name, a.unit, {k: 1.17 * ov.value for k, ov in a.items()})
        spec = ComparisonSpec("untimely", 2005, 3, 3)
        x = compare(RegionPair(a, scaled), spec).discrepancy
        y = compare(RegionPair(scaled, a), spec).discrepancy
        assert y == pytest.approx(1 / (1 + x) - 1, rel=1e-12)

    def test_proper_requires_filter_set(self):
        pair = RegionPair(full_sample("income"), full_sample("income"))
        with pytest.raises(ValueError, match="filter set"):
            compare(pair, ComparisonSpec("proper", 2007, 1, 3))

    def test_proper_unknown_period_rejected(self):
        pair = RegionPair(full_sample("income"), full_sample("income"))
        with pytest.raises(ValueError, match="no period 7"):
            compare(pair, ComparisonSpec("proper", 2007, 1, 7), LINEAR)

    def test_proper_reference_fallback(self):
        # region A without 1y data falls back to its shortest designed period
        full = full_sample("divorce")
        no_1y = MyeSeries(
            full.name, full.unit,
            {key: ov.value for key, ov in full.items() if key[0] != 1},
        )
        pair = RegionPair(no_1y, full)
        r = compare(pair, ComparisonSpec("proper", 2007, 1, 5), LINEAR)
        assert r.reference_period_used == 3
        assert r.value_a == pytest.approx(96083.5 / 5, rel=1e-14)

    def test_proper_no_designed_period_available(self):
        s = MyeSeries("divorce", "persons", {(7, 2007): 1.0})
        pair = RegionPair(s, full_sample("divorce"))
        with pytest.raises(MissingDataError, match="none of the designed periods"):
            compare(pair, ComparisonSpec("proper", 2007, 1, 3), LINEAR)

    def test_zero_reference_rejected(self):
        a = MyeSeries("x", "count", {(1, 2000): 0.0, (3, 2000): 1.0})
        pair = RegionPair(a, a)
        with pytest.raises(DomainError, match="zero"):
            compare(pair, ComparisonSpec("inapt", 2000, 1, 3))

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_percent_of_a_non_finite_discrepancy_names_it(self, x):
        # raised decimal.InvalidOperation, or printed "NaN"
        result = ComparisonResult(ComparisonSpec("inapt", 2000, 1, 3), 1.0, x, x, 1, 3)
        with pytest.raises(DomainError, match=f"cannot render {x!r}"):
            result.percent()

    def test_overflowing_discrepancy_rejected(self):
        a = MyeSeries("x", "count", {(1, 2000): 1e-300})
        b = MyeSeries("x", "count", {(3, 2000): 1e300})
        with pytest.raises(DomainError, match="not a finite number"):
            compare(RegionPair(a, b), ComparisonSpec("inapt", 2000, 1, 3))

    def test_missing_observation_propagates(self):
        pair = RegionPair(full_sample("income"), full_sample("income"))
        with pytest.raises(MissingDataError):
            compare(pair, ComparisonSpec("inapt", 2015, 1, 3))

    def test_result_to_dict(self):
        pair = RegionPair(full_sample("divorce"), full_sample("divorce"))
        d = compare(pair, ComparisonSpec("inapt", 2007, 1, 3)).to_dict()
        assert d["mode"] == "inapt"
        assert d["percent"] == "-13.7"
        assert d["value_a"] == 21844.0


# ---------------------------------------------------------------------------
# expected bias and the delay law


class TestExpectedBias:
    def test_line_inapt_three(self):
        assert expected_bias((0, F(3, 2)), ComparisonSpec("inapt", 50, 1, 3)) == 1.5

    def test_line_inapt_five(self):
        assert expected_bias((0, 1), ComparisonSpec("inapt", 50, 1, 5)) == 2.0

    def test_quadratic_inapt(self):
        # t0^2 minus the 3-window mean: 2*t0 - 5/3 at t0=10
        got = expected_bias((0, 0, 1), ComparisonSpec("inapt", 10, 1, 3))
        assert got == pytest.approx(20 - 5 / 3, abs=1e-12)

    def test_untimely_zero_for_any_trend(self):
        for trend in ((0, 1), (2, -3, F(1, 7)), (1, 0, 0, 5)):
            assert expected_bias(trend, ComparisonSpec("untimely", 50, 3, 3)) == 0.0

    def test_proper_zero_within_degree(self):
        spec = ComparisonSpec("proper", 50, 1, 3)
        assert expected_bias((3, 2), spec, LINEAR) == 0.0
        assert expected_bias((3, 2, 1), spec, QUADRATIC) == 0.0

    def test_proper_zero_beyond_degree_too(self):
        # both sides share the composite weights, so the cancellation is an
        # identity in the trend, not a property of low degree
        spec = ComparisonSpec("proper", 50, 1, 3)
        assert expected_bias((1, -2, 3, F(5, 4)), spec, LINEAR) == 0.0

    def test_proper_without_filter_set(self):
        assert expected_bias((1, 2, 3), ComparisonSpec("proper", 50, 1, 5)) == 0.0

    @pytest.mark.parametrize("mode, ref, other", [("inapt", 1, 3), ("proper", 1, 5)])
    def test_non_finite_trend_names_the_coefficient(self, mode, ref, other):
        # checked in every mode, also where proper mode's zero needs no trend
        with pytest.raises(ValueError, match="coefficient 1 must be a finite number"):
            expected_bias((0, math.inf), ComparisonSpec(mode, 50, ref, other))

    def test_undesigned_period_names_it(self):
        # the same message as compare and simulate_bias, not a bare KeyError
        with pytest.raises(ValueError, match="no period 7"):
            expected_bias((0, 1), ComparisonSpec("proper", 50, 1, 7), LINEAR)

    def test_constant_trend_unbiased_everywhere(self):
        for mode, ref, other in (("inapt", 1, 5), ("untimely", 3, 3), ("proper", 1, 3)):
            spec = ComparisonSpec(mode, 50, ref, other)
            assert expected_bias((42,), spec, LINEAR) == 0.0

    def test_bias_beyond_the_float_range_is_a_domain_error(self):
        with pytest.raises(DomainError, match="inapt bias of 1y against 3y at 2010 is beyond"):
            expected_bias([0, "1e400"], ComparisonSpec("inapt", 2010, 1, 3))

    def test_bias_near_the_float_range_keeps_its_bits(self):
        # a slope of 1e308 biases 1y against 3y by exactly the slope
        got = expected_bias([0, "1e308"], ComparisonSpec("inapt", 2010, 1, 3))
        assert got.hex() == float(F(10) ** 308).hex()


class TestDelayLaw:
    @pytest.mark.parametrize("k", [3, 5])
    def test_sma_delays_line_by_half_window(self, k):
        line = synthetic_series((0, 1), (1,), 1990, 2020)
        for t in range(2000, 2011):
            got = apply_filter(sma(k), line, 1, t)
            assert got == t - (k - 1) / 2  # exact: float ints throughout

    def test_synthetic_k_values_embody_the_delay(self):
        s = synthetic_series((0, 1), (1, 3, 5), 2000, 2010)
        assert s.value(3, 2005) == 2004.0
        assert s.value(5, 2005) == 2003.0


# ---------------------------------------------------------------------------
# polynomial passing on synthetic data


@st.composite
def trend_cases(draw):
    degree = draw(st.integers(min_value=0, max_value=3))
    coeffs = tuple(
        draw(st.integers(min_value=-3, max_value=3)) for _ in range(degree + 1)
    )
    t0 = draw(st.integers(min_value=-10, max_value=2020))
    return coeffs, t0


class TestPolynomialPassing:
    @given(trend_cases())
    @settings(max_examples=80, deadline=None)
    def test_filters_recover_the_trend(self, case):
        coeffs, t0 = case
        degree = len(coeffs) - 1
        fs = design_filters(DesignSpec((1, 3, 5), degree))
        pad = max(p.degree for p in fs.psi.values()) + 1
        s = synthetic_series(coeffs, (1, 3, 5), t0 - pad, t0)
        te = trend_estimates(s, fs, t0)
        mu = float(sum(F(c) * F(t0) ** j for j, c in enumerate(coeffs)))
        tol = 1e-9 * max(1.0, abs(mu))
        for k, v in te.values.items():
            assert abs(v - mu) <= tol, (k, v, mu)

    @given(trend_cases())
    @settings(max_examples=40, deadline=None)
    def test_cross_period_agreement(self, case):
        coeffs, t0 = case
        degree = len(coeffs) - 1
        fs = design_filters(DesignSpec((1, 3, 5), degree))
        pad = max(p.degree for p in fs.psi.values()) + 1
        s = synthetic_series(coeffs, (1, 3, 5), t0 - pad, t0)
        vals = list(trend_estimates(s, fs, t0).values.values())
        scale = max(1.0, max(abs(v) for v in vals))
        assert max(vals) - min(vals) <= 1e-9 * scale


class TestSyntheticSeries:
    def test_window_means_exact(self):
        s = synthetic_series((1, 2), (1, 3), 2000, 2005)
        # mean of mu over 2003..2005 where mu(t) = 1 + 2t
        assert s.value(3, 2005) == float(1 + 2 * 2004)

    def test_padding_supports_diagnostics(self):
        s = synthetic_series((0, 1), (1, 5), 2000, 2005)
        assert s.has(1, 1996)
        compatibility(s, (5,))  # no missing-window error

    def test_value_beyond_the_float_range_names_period_and_year(self):
        with pytest.raises(DomainError, match="synthetic: the 1y value ending 1998 is beyond"):
            synthetic_series(["1e400"], (1, 3), 2000, 2005)
        # finite up to 2000 and past the range from 2001 on
        with pytest.raises(DomainError, match="big: the 1y value ending 2001 is beyond"):
            synthetic_series([0, "8.985e304"], (1, 3), 2000, 2005, name="big")

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_series((1,), (), 2000, 2005)
        with pytest.raises(ValueError):
            synthetic_series((1,), (1,), 2005, 2000)
