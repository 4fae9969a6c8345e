"""Series storage, CSV interchange, imputation, and rendering."""

import csv
import io
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myetrends.datasets import STANDARD_TARGETS, load_sample, sample_names
from myetrends.exceptions import (
    CsvError,
    DataError,
    DomainError,
    ImputationError,
    MissingDataError,
)
from myetrends.myeseries import (
    IMPUTED,
    PUBLISHED,
    MyeSeries,
    ObservedValue,
    RegionPair,
    display_decimals,
    impute_random_walk,
    load_csv,
    render_value,
    round_half_away,
    sma_of_base,
    write_csv,
)

HEADER = "variable,unit,period,end_year,value,provenance\n"


def tiny_series(extra=None):
    obs = {(1, 2000): 10.0, (1, 2001): 12.0, (1, 2002): 14.0, (3, 2002): 11.5}
    obs.update(extra or {})
    return MyeSeries("thing", "count", obs)


class TestObservedValue:
    def test_defaults_to_published(self):
        assert ObservedValue(3.0).provenance == PUBLISHED

    def test_rejects_unknown_provenance(self):
        with pytest.raises(DataError, match="provenance"):
            ObservedValue(3.0, "guessed")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DataError, match="finite"):
            ObservedValue(bad)


class TestMyeSeries:
    def test_basic_accessors(self):
        s = tiny_series()
        assert s.name == "thing"
        assert s.unit == "count"
        assert len(s) == 4
        assert s.periods() == (1, 3)
        assert s.years(1) == (2000, 2001, 2002)
        assert s.value(3, 2002) == 11.5
        assert s.get(3, 1999) is None
        assert s.has(1, 2001)
        assert (1, 2001) in s
        assert s.provenance(1, 2001) == PUBLISHED

    def test_missing_value_raises_with_key(self):
        with pytest.raises(MissingDataError, match="5y.*2001"):
            tiny_series().value(5, 2001)

    def test_equality(self):
        assert tiny_series() == tiny_series()
        assert tiny_series() != tiny_series({(1, 2003): 1.0})

    def test_items_sorted(self):
        keys = [k for k, _ in tiny_series().items()]
        assert keys == sorted(keys)

    @pytest.mark.parametrize(
        "name,unit,obs",
        [
            ("", "count", {(1, 2000): 1.0}),
            ("x", "", {(1, 2000): 1.0}),
            ("x", "count", {}),
            ("x", "count", {(0, 2000): 1.0}),
            ("x", "count", {(1, 2000.5): 1.0}),
            ("x", "count", {("1", 2000): 1.0}),
        ],
    )
    def test_invalid_construction(self, name, unit, obs):
        with pytest.raises(DataError):
            MyeSeries(name, unit, obs)

    def test_with_observations_rejects_collisions(self):
        s = tiny_series()
        with pytest.raises(DataError, match="already present"):
            s.with_observations({(1, 2000): ObservedValue(9.0)})

    def test_repr_mentions_name(self):
        assert "thing" in repr(tiny_series())


def _scan_periods(series):
    return tuple(sorted({k for (k, _), _ in series.items()}))


def _scan_years(series, period):
    return tuple(sorted(t for (k, t), _ in series.items() if k == period))


observation_maps = st.dictionaries(
    st.tuples(st.integers(1, 7), st.integers(1990, 2020)),
    st.builds(ObservedValue, st.floats(-1e6, 1e6), st.sampled_from([PUBLISHED, IMPUTED])),
    min_size=1,
    max_size=60,
)


class TestPeriodIndex:
    """periods() and years(k) equal sorted scans of every observation."""

    @staticmethod
    def assert_matches_scans(s):
        assert type(s.periods()) is tuple
        assert s.periods() == _scan_periods(s)
        for k in range(0, 10):  # present and absent periods
            assert type(s.years(k)) is tuple
            assert s.years(k) == _scan_years(s, k)

    @given(observation_maps)
    @settings(max_examples=100, deadline=None)
    def test_matches_scans(self, obs):
        self.assert_matches_scans(MyeSeries("x", "count", obs))

    @given(observation_maps, observation_maps)
    @settings(max_examples=100, deadline=None)
    def test_matches_scans_after_with_observations(self, obs, extra):
        s = MyeSeries("x", "count", obs)
        merged = s.with_observations({key: ov for key, ov in extra.items() if key not in obs})
        self.assert_matches_scans(merged)
        self.assert_matches_scans(s)

    def test_absent_period_is_empty_tuple(self):
        assert tiny_series().years(5) == ()


class TestLoadCsv:
    def test_samples_load(self):
        for name in sample_names():
            s = load_sample(name)
            assert s.periods() == (1, 3, 5)
            assert len(s.years(1)) == 8

    def test_stream_input(self):
        text = HEADER + "x,count,1,2000,5,published\n"
        s = load_csv(io.StringIO(text))
        assert s.value(1, 2000) == 5.0

    def test_provenance_defaults_to_published(self):
        text = HEADER + "x,count,1,2000,5,\n"
        assert load_csv(io.StringIO(text)).provenance(1, 2000) == PUBLISHED

    def test_provenance_column_optional(self):
        text = "variable,unit,period,end_year,value\nx,count,1,2000,5\n"
        assert load_csv(io.StringIO(text)).provenance(1, 2000) == PUBLISHED

    def test_two_digit_years_normalized(self):
        text = HEADER + "x,count,1,00,5,\nx,count,1,07,6,\nx,count,1,99,7,\n"
        s = load_csv(io.StringIO(text))
        assert s.years(1) == (1999, 2000, 2007)

    def test_whitespace_around_header_names(self):
        text = " variable, unit,period,end_year,value , provenance\nx,count,1,2000,5,imputed\n"
        s = load_csv(io.StringIO(text))
        assert (s.name, s.unit, s.value(1, 2000)) == ("x", "count", 5.0)
        assert s.provenance(1, 2000) == "imputed"

    def test_empty_file(self):
        with pytest.raises(CsvError, match="empty"):
            load_csv(io.StringIO(""))

    def test_header_only(self):
        with pytest.raises(CsvError, match="no observation rows"):
            load_csv(io.StringIO(HEADER))

    def test_missing_column(self):
        with pytest.raises(CsvError, match="value"):
            load_csv(io.StringIO("variable,unit,period,end_year\nx,count,1,2000\n"))

    @pytest.mark.parametrize(
        "row,fragment",
        [
            ("x,count,one,2000,5,", "period"),
            ("x,count,0,2000,5,", "period must be >= 1"),
            ("x,count,1,MMVII,5,", "end_year"),
            ("x,count,1,2000,lots,", "value"),
            ("x,count,1,2000,5,rumor", "provenance"),
            (",count,1,2000,5,", "nonempty"),
        ],
    )
    def test_bad_rows_name_line_two(self, row, fragment):
        with pytest.raises(CsvError, match=f"line 2.*{fragment}"):
            load_csv(io.StringIO(HEADER + row + "\n"))

    def test_duplicate_key_names_line(self):
        text = HEADER + "x,count,1,2000,5,\nx,count,1,2000,6,\n"
        with pytest.raises(CsvError, match="line 3.*duplicate.*period 1.*2000"):
            load_csv(io.StringIO(text))

    def test_mixed_variables_rejected(self):
        text = HEADER + "x,count,1,2000,5,\ny,count,1,2001,6,\n"
        with pytest.raises(CsvError, match="line 3"):
            load_csv(io.StringIO(text))

    def test_mixed_units_rejected(self):
        text = HEADER + "x,count,1,2000,5,\nx,bushels,1,2001,6,\n"
        with pytest.raises(CsvError, match="line 3"):
            load_csv(io.StringIO(text))


class TestWriteCsv:
    def test_round_trip_samples(self):
        for name in sample_names():
            s = load_sample(name)
            assert load_csv(io.StringIO(write_csv(s))) == s

    def test_round_trip_preserves_provenance(self):
        s = impute_random_walk(load_sample("income"), STANDARD_TARGETS)
        again = load_csv(io.StringIO(write_csv(s)))
        assert again == s
        assert again.provenance(5, 2007) == IMPUTED

    def test_write_to_path(self, tmp_path):
        target = tmp_path / "out.csv"
        s = tiny_series()
        write_csv(s, target)
        assert load_csv(target) == s

    def test_round_trip_with_byte_order_mark(self, tmp_path):
        # spreadsheet exports often start with a UTF-8 BOM
        s = load_sample("income")
        target = tmp_path / "bom.csv"
        target.write_bytes(write_csv(s).encode("utf-8-sig"))
        assert target.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_csv(target) == s

    def test_byte_order_mark_in_text_stream(self):
        # a file opened as utf-8, not utf-8-sig, keeps the BOM in the text
        s = load_sample("income")
        text = write_csv(s).encode("utf-8-sig").decode("utf-8")
        assert text.startswith("\ufeff")
        assert load_csv(io.StringIO(text)) == s

    def test_byte_order_mark_before_quoted_header_in_text_stream(self, tmp_path):
        # spreadsheets that quote all text write the BOM before the first quote
        buf = io.StringIO()
        csv.writer(buf, quoting=csv.QUOTE_NONNUMERIC).writerows(
            [["variable", "unit", "period", "end_year", "value"],
             ["x", "count", 1, 2005, 3.5], ["x", "count", 1, 2006, 4.0]])
        target = tmp_path / "quoted.csv"
        target.write_text(buf.getvalue(), encoding="utf-8-sig")
        from_path = load_csv(target)
        with open(target, encoding="utf-8", newline="") as fh:
            assert load_csv(fh) == from_path
        assert len(from_path) == 2

    def test_write_to_stream(self):
        buf = io.StringIO()
        text = write_csv(tiny_series(), buf)
        assert buf.getvalue() == text
        assert text.startswith(HEADER)

    @given(
        st.lists(
            st.floats(
                allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60)
    def test_round_trip_exact_for_arbitrary_floats(self, values):
        obs = {(1, 2000 + i): v for i, v in enumerate(values)}
        s = MyeSeries("x", "count", obs)
        again = load_csv(io.StringIO(write_csv(s)))
        for key, ov in s.items():
            assert again.value(*key) == ov.value


class TestSmaOfBase:
    def test_known_window_mean(self):
        s = load_sample("income")
        expected = (43546 + 42984 + 41521) / 3
        assert sma_of_base(s, 3, 2007) == pytest.approx(expected, rel=1e-15)

    def test_period_one_is_the_value(self):
        s = load_sample("income")
        assert sma_of_base(s, 1, 2004) == s.value(1, 2004)

    def test_missing_years_listed(self):
        s = load_sample("income")
        with pytest.raises(MissingDataError, match=r"\[1998, 1999\]"):
            sma_of_base(s, 3, 2000)

    def test_bad_period(self):
        with pytest.raises(ValueError):
            sma_of_base(load_sample("income"), 0, 2005)

    def test_reads_each_window_year_once(self):
        # the window is one slice read; no year is looked up on its own
        reads = []

        class Counting(MyeSeries):
            def window(self, period, end_year, length):
                reads.append((period, end_year, length))
                return super().window(period, end_year, length)

            def get(self, period, end_year, default=None):
                raise AssertionError("get() called")

            has = value = get

        s = Counting("income", "dollars", dict(load_sample("income").items()))
        assert sma_of_base(s, 3, 2007) == sma_of_base(load_sample("income"), 3, 2007)
        assert reads == [(1, 2007, 3)]
        with pytest.raises(MissingDataError) as err:
            sma_of_base(s, 3, 2000)
        assert str(err.value) == (
            "income: 1y values missing for years [1998, 1999] (window of 3 ending 2000)")

    def test_overflowing_sum_is_a_domain_error(self):
        s = MyeSeries("big", "count", {(1, 2001): 1.7e308, (1, 2002): 1.7e308})
        with pytest.raises(DomainError, match="big: .*window of 2 ending 2002 overflows"):
            sma_of_base(s, 2, 2002)


class TestImputation:
    # Exact pre-rounding values implied by the published data; the rendered
    # forms are checked in the demo/acceptance tests.
    CASES = {
        "income": {(3, 2006): 42395.0, (5, 2006): 41327.5, (5, 2007): 42600.0},
        "divorce": {(3, 2006): 17370.5, (5, 2006): 16181.0, (5, 2007): 16417.0},
    }

    @pytest.mark.parametrize("name", ["income", "divorce"])
    def test_exact_fill_values(self, name):
        full = impute_random_walk(load_sample(name), STANDARD_TARGETS)
        for key, expected in self.CASES[name].items():
            assert full.value(*key) == expected

    def test_age_fill_values(self):
        full = impute_random_walk(load_sample("age"), STANDARD_TARGETS)
        assert full.value(3, 2006) == pytest.approx(37.35, abs=1e-12)
        assert full.value(5, 2006) == pytest.approx(37.45, abs=1e-12)
        assert full.value(5, 2007) == pytest.approx(37.70, abs=1e-12)

    def test_marks_imputed_and_keeps_published(self):
        src = load_sample("income")
        full = impute_random_walk(src, STANDARD_TARGETS)
        for key in STANDARD_TARGETS:
            assert full.provenance(*key) == IMPUTED
        for key, ov in src.items():
            assert full.value(*key) == ov.value
            assert full.provenance(*key) == PUBLISHED

    def test_source_unmodified(self):
        src = load_sample("income")
        before = len(src)
        impute_random_walk(src, STANDARD_TARGETS)
        assert len(src) == before
        assert not src.has(3, 2006)

    def test_existing_target_rejected(self):
        src = load_sample("income")
        with pytest.raises(ImputationError, match="published"):
            impute_random_walk(src, [(3, 2005)])

    def test_double_fill_rejected(self):
        full = impute_random_walk(load_sample("income"), [(3, 2006)])
        with pytest.raises(ImputationError, match="imputed"):
            impute_random_walk(full, [(3, 2006)])

    def test_duplicate_target_in_one_call_rejected(self):
        with pytest.raises(ImputationError):
            impute_random_walk(load_sample("income"), [(3, 2006), (3, 2006)])

    def test_leading_gap_rejected(self):
        with pytest.raises(ImputationError, match="no published"):
            impute_random_walk(load_sample("income"), [(5, 2001)])

    def test_single_anchor_rejected(self):
        s = MyeSeries("x", "count", {(5, 2003): 10.0, (1, 2003): 9.0})
        with pytest.raises(ImputationError, match="only one"):
            impute_random_walk(s, [(5, 2004)])

    def test_imputed_values_never_anchor(self):
        # 3y published at 2005 and 2007 only; imputed 2006 must not turn a
        # 2008 extrapolation into a chain off the forecast.
        s = MyeSeries(
            "x", "count", {(3, 2003): 10.0, (3, 2005): 20.0, (3, 2007): 40.0}
        )
        full = impute_random_walk(s, [(3, 2006), (3, 2008)])
        # 2008 extrapolates from published 2003/2007: 40 + (40-10)/4
        assert full.value(3, 2008) == 47.5
        assert full.value(3, 2006) == 30.0

    def test_order_of_targets_irrelevant(self):
        a = impute_random_walk(load_sample("divorce"), STANDARD_TARGETS)
        b = impute_random_walk(load_sample("divorce"), tuple(reversed(STANDARD_TARGETS)))
        assert a == b

    def test_constant_series_stays_constant(self):
        s = MyeSeries(
            "x",
            "count",
            {(3, t): 7.0 for t in (2000, 2002, 2004)},
        )
        full = impute_random_walk(s, [(3, 2001), (3, 2003), (3, 2005), (3, 2006)])
        for t in range(2001, 2007):
            if full.has(3, t):
                assert full.value(3, t) == 7.0

    def test_interior_midpoint(self):
        s = MyeSeries("x", "count", {(3, 2000): 10.0, (3, 2002): 20.0})
        assert impute_random_walk(s, [(3, 2001)]).value(3, 2001) == 15.0

    @pytest.mark.parametrize("target, what", [
        (("3", "2006"), "period"),
        ((0, 2006), "period"),
        ((-3, 2006), "period"),
        ((True, 2006), "period"),
        ((3.0, 2006), "period"),
        ((3, 2006.0), "end year"),
        ((3, "2006"), "end year"),
        ((3, False), "end year"),
        ((3,), r"must be a \(period, end_year\) pair"),
        ((3, 2006, 1), r"must be a \(period, end_year\) pair"),
        (3, r"must be a \(period, end_year\) pair"),
        (None, r"must be a \(period, end_year\) pair"),
    ])
    def test_malformed_target_named(self, target, what):
        # ("3", "2006") and (0, 2006) reported that no published value
        # precedes them; (3, 2006.0) was filled before MyeSeries refused it
        with pytest.raises(ValueError, match=rf"target {re.escape(repr(target))}: {what}"):
            impute_random_walk(load_sample("income"), [(3, 2006), target])


def _scan_impute(series, targets):
    """impute_random_walk as it was written before the period index: every
    target rescans the series for its published anchors."""
    filled = {}
    for key in targets:
        k, t = key
        if series.has(k, t) or key in filled:
            prov = filled[key].provenance if key in filled else series.provenance(k, t)
            raise ImputationError(
                f"{series.name}: target {k}y ending {t} already has a {prov} value"
            )
        anchors = [yr for yr in _scan_years(series, k) if series.provenance(k, yr) == PUBLISHED]
        before = [yr for yr in anchors if yr < t]
        after = [yr for yr in anchors if yr > t]
        if before and after:
            lo, hi = before[-1], after[0]
            value = (series.value(k, lo) + series.value(k, hi)) / 2.0
        elif len(before) >= 2:
            first, last = before[0], before[-1]
            step = (series.value(k, last) - series.value(k, first)) / (last - first)
            value = series.value(k, last) + (t - last) * step
        elif before:
            raise ImputationError(
                f"{series.name}: cannot extrapolate {k}y ending {t}: only one "
                f"published {k}y value (ending {before[-1]}) precedes it"
            )
        else:
            raise ImputationError(
                f"{series.name}: cannot impute {k}y ending {t}: no published "
                f"{k}y value precedes it"
            )
        filled[key] = ObservedValue(value, IMPUTED)
    return series.with_observations(filled) if filled else series


@st.composite
def gap_patterns(draw):
    """A series over 1990-2019 whose 1y/3y/5y sub-series have random gaps
    after 1991 and some values marked imputed, with targets in random order:
    its gaps, a few years past the end, and at times one target that fails."""
    obs, gaps = {}, []
    for k in draw(st.sets(st.sampled_from([1, 3, 5]), min_size=1)):
        obs[(k, 1990)] = obs[(k, 1991)] = ObservedValue(draw(st.floats(-1e6, 1e6)))
        for t in range(1992, 2020):
            if draw(st.integers(0, 9)) < 3:
                gaps.append((k, t))
            else:
                prov = IMPUTED if draw(st.integers(0, 9)) == 0 else PUBLISHED
                obs[(k, t)] = ObservedValue(draw(st.floats(-1e6, 1e6)), prov)
    targets = draw(st.lists(st.sampled_from(gaps), unique=True)) if gaps else []
    periods = sorted({k for k, _ in obs})
    targets += draw(st.lists(st.tuples(st.sampled_from(periods), st.integers(2020, 2024)),
                             unique=True, max_size=3))
    failing = draw(st.sampled_from(
        [None, None, None, "existing", "repeat", "absent", "early", "lone"]))
    if failing == "existing":
        targets.append(draw(st.sampled_from(sorted(obs))))
    elif failing == "repeat" and targets:
        targets.append(draw(st.sampled_from(targets)))
    elif failing == "absent":
        targets.append((7, draw(st.integers(1980, 2024))))
    elif failing == "early":
        targets.append((draw(st.sampled_from(periods)), draw(st.integers(1980, 1989))))
    elif failing == "lone":
        obs[(9, 2000)] = ObservedValue(1.0)
        targets.append((9, draw(st.integers(2001, 2024))))
    return MyeSeries("x", "count", obs), draw(st.permutations(targets))


def _imputation_outcome(fn, series, targets):
    try:
        out = fn(series, targets)
    except ImputationError as exc:
        return ("error", str(exc))
    return [(key, ov.value.hex(), ov.provenance) for key, ov in out.items()]


class TestImputationReference:
    @given(gap_patterns())
    @settings(max_examples=200, deadline=None)
    def test_matches_scan_implementation(self, case):
        series, targets = case
        assert (_imputation_outcome(impute_random_walk, series, targets)
                == _imputation_outcome(_scan_impute, series, targets))


class TestRendering:
    @pytest.mark.parametrize(
        "x,dec,text",
        [
            (41327.5, 0, "41328"),
            (17370.5, 0, "17371"),
            (-0.5, 0, "-1"),
            (2.5, 0, "3"),
            (-2.5, 0, "-3"),
            (37.345, 2, "37.35"),
            (37.7, 2, "37.70"),
            (0.0, 0, "0"),
            (19331.3333, 0, "19331"),
            (-0.58973, 2, "-0.59"),
        ],
    )
    def test_render_value(self, x, dec, text):
        assert render_value(x, dec) == text

    @pytest.mark.parametrize(
        "x,dec,text",
        [
            (1e28, 0, "1" + "0" * 28),
            (1.7e308, 2, "17" + "0" * 307 + ".00"),
            (-9.5e40, 0, "-95" + "0" * 39),
        ],
    )
    def test_render_value_past_28_digits(self, x, dec, text):
        # more digits than the default decimal context holds
        assert render_value(x, dec) == text

    def test_round_half_away(self):
        assert round_half_away(41327.5) == 41328.0
        assert round_half_away(-41327.5) == -41328.0
        assert round_half_away(37.345, 2) == 37.35

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, x):
        # inf raised decimal.InvalidOperation and nan rendered as "NaN"
        with pytest.raises(DomainError, match=f"cannot render {x!r}: not a finite number"):
            render_value(x)

    def test_negative_decimals_rejected(self):
        with pytest.raises(ValueError):
            render_value(1.0, -1)

    def test_display_decimals(self):
        assert display_decimals("dollars") == 0
        assert display_decimals("persons") == 0
        assert display_decimals("years") == 2
        assert display_decimals("furlongs") == 2


class TestRegionPair:
    def test_same_variable_ok(self):
        a = tiny_series()
        b = tiny_series({(1, 2003): 16.0})
        RegionPair(a, b)

    def test_mismatched_variable_rejected(self):
        a = tiny_series()
        b = MyeSeries("other", "count", {(1, 2000): 1.0})
        with pytest.raises(DataError, match="different"):
            RegionPair(a, b)

    def test_mismatched_unit_rejected(self):
        a = tiny_series()
        b = MyeSeries("thing", "bushels", {(1, 2000): 1.0})
        with pytest.raises(DataError, match="different"):
            RegionPair(a, b)
