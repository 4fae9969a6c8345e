"""Every public integer argument is checked the same way.

Each entry point below takes a period, degree, year or count and routes it
through ``exceptions.check_int``. Each gets the same four bad values: a
``bool``, a float, a numeric string and, where there is a minimum, the
integer just below it. Each must raise ``ValueError`` (``DataError`` for the
``MyeSeries`` constructor) with a message that starts with the argument's name.
A series is read with the keys it stores, so its lookups, and
``apply_filter`` through them, reject the same values.
"""

import re
from enum import IntEnum

import pytest

from myetrends.analysis import (
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
from myetrends.cli import main
from myetrends.datasets import load_sample
from myetrends.exceptions import DataError, DomainError, ImputationError, MissingDataError
from myetrends.filterdesign import DesignSpec, FilterSet, design_filters
from myetrends.myeseries import MyeSeries, RegionPair, impute_random_walk, render_value
from myetrends.ratpoly import RatPoly, sma
from myetrends.simulation import SimulationSpec, simulate_bias

INCOME = load_sample("income")
FAMILY = design_filters(DesignSpec((1, 3, 5), 1))


def simulation(**over):
    fields = dict(trend=(0, 1), noise_sd={1: 1.0}, mode="inapt", t0=2010, replicates=10, seed=0)
    return SimulationSpec(**{**fields, **over})


# (id, call with the bad value, the name the message starts with, minimum, error);
# an imputation target's name holds the target, so it is a format string
ENTRY_POINTS = [
    ("nsr", lambda v: nsr(INCOME, v, 2007), "period", 1, ValueError),
    ("nsr.t", lambda v: nsr(INCOME, 3, v), "t", None, ValueError),
    ("compatibility", lambda v: compatibility(INCOME, [3, v]), "period", 1, ValueError),
    ("sma_of_base", lambda v: sma_of_base(INCOME, v, 2007), "period", 1, ValueError),
    ("sma_of_base.end_year", lambda v: sma_of_base(INCOME, 3, v), "end_year", None, ValueError),
    ("trend_estimates.t0", lambda v: trend_estimates(INCOME, FAMILY, v), "t0", None, ValueError),
    ("synthetic_series.periods", lambda v: synthetic_series((0, 1), (1, v), 2000, 2010),
     "periods", 1, ValueError),
    ("synthetic_series.start_year", lambda v: synthetic_series((0, 1), (1, 3), v, 2010),
     "start_year", None, ValueError),
    ("synthetic_series.end_year", lambda v: synthetic_series((0, 1), (1, 3), 2000, v),
     "end_year", None, ValueError),
    ("ComparisonSpec.t0", lambda v: ComparisonSpec("inapt", v), "t0", None, ValueError),
    ("ComparisonSpec.reference_period", lambda v: ComparisonSpec("proper", 2007, v, 3),
     "reference_period", 1, ValueError),
    ("ComparisonSpec.other_period", lambda v: ComparisonSpec("proper", 2007, 1, v),
     "other_period", 1, ValueError),
    ("SimulationSpec.noise_sd", lambda v: simulation(noise_sd={v: 1.0}), "noise period", 1, ValueError),
    ("SimulationSpec.replicates", lambda v: simulation(replicates=v), "replicates", 1, ValueError),
    ("SimulationSpec.seed", lambda v: simulation(seed=v), "seed", 0, ValueError),
    ("DesignSpec.periods", lambda v: DesignSpec((1, v), 1), "periods", 1, ValueError),
    ("DesignSpec.degree", lambda v: DesignSpec((1, 3), v), "degree", 0, ValueError),
    ("FilterSet.from_dict.periods",
     lambda v: FilterSet.from_dict({**FAMILY.to_dict(), "periods": [1, 3, v]}),
     "periods", 1, ValueError),
    ("FilterSet.from_dict.degree", lambda v: FilterSet.from_dict({**FAMILY.to_dict(), "degree": v}),
     "degree", 0, ValueError),
    ("sma", sma, "k", 1, ValueError),
    ("RatPoly.averaged", lambda v: sma(3).averaged(2, v), "k", 1, ValueError),
    ("RatPoly.derivative_at_one", lambda v: sma(3).derivative_at_one(v), "order", 0, ValueError),
    ("RatPoly.derivatives_at_one", lambda v: sma(3).derivatives_at_one(v), "order", 0, ValueError),
    ("RatPoly.inverse_near_one", lambda v: sma(3).inverse_near_one(v), "degree", 0, ValueError),
    ("render_value", lambda v: render_value(1.25, v), "decimals", 0, ValueError),
    ("impute_random_walk.period", lambda v: impute_random_walk(INCOME, [(v, 2008)]),
     "target ({!r}, 2008): period", 1, ValueError),
    ("impute_random_walk.end_year", lambda v: impute_random_walk(INCOME, [(3, v)]),
     "target (3, {!r}): end year", None, ValueError),
    ("MyeSeries.period", lambda v: MyeSeries("x", "count", {(v, 2000): 1.0}), "period", 1, DataError),
    ("MyeSeries.end_year", lambda v: MyeSeries("x", "count", {(1, v): 1.0}), "end_year", None, DataError),
    ("apply_filter", lambda v: apply_filter(FAMILY.psi[3], INCOME, v, 2007), "period", None, ValueError),
    ("apply_filter.end_year", lambda v: apply_filter(FAMILY.psi[3], INCOME, 3, v),
     "end_year", None, ValueError),
    ("MyeSeries.value", lambda v: INCOME.value(v, 2007), "period", None, ValueError),
    ("MyeSeries.value.end_year", lambda v: INCOME.value(3, v), "end_year", None, ValueError),
    ("MyeSeries.has", lambda v: INCOME.has(v, 2007), "period", None, ValueError),
    ("MyeSeries.has.end_year", lambda v: INCOME.has(3, v), "end_year", None, ValueError),
    ("MyeSeries.provenance", lambda v: INCOME.provenance(v, 2007), "period", None, ValueError),
    ("MyeSeries.provenance.end_year", lambda v: INCOME.provenance(3, v), "end_year", None, ValueError),
    ("MyeSeries.window", lambda v: INCOME.window(v, 2007, 3), "period", None, ValueError),
    ("MyeSeries.window.end_year", lambda v: INCOME.window(3, v, 3), "end_year", None, ValueError),
    ("MyeSeries.window.length", lambda v: INCOME.window(1, 2007, v), "length", 0, ValueError),
]

CASES = [
    pytest.param(call, name, minimum, error, value, id=f"{entry}-{value!r}")
    for entry, call, name, minimum, error in ENTRY_POINTS
    for value in (True, 2.5, "3", *(() if minimum is None else (minimum - 1,)))
]


@pytest.mark.parametrize("call, name, minimum, error, value", CASES)
def test_bad_integer_named(call, name, minimum, error, value):
    bound = "" if minimum is None else f" >= {minimum}"
    want = f"{name.format(value)} must be an integer{bound}, got {value!r}"
    with pytest.raises(error, match=f"^{re.escape(want)}$"):
        call(value)


# the kernels test ``type(x) is int`` inline and call check_int only when
# that fails, so an int subclass, which check_int accepts, must still pass
Count = IntEnum("Count", {"ZERO": 0, "ONE": 1, "THREE": 3})


@pytest.mark.parametrize("call, minimum", [
    (sma, Count.ONE),
    (lambda v: sma(3).averaged(2, v), Count.ONE),
    (lambda v: sma(3).derivatives_at_one(v), Count.ZERO),
    (lambda v: sma(3).inverse_near_one(v), Count.ZERO),
], ids=["sma", "RatPoly.averaged", "RatPoly.derivatives_at_one", "RatPoly.inverse_near_one"])
@pytest.mark.parametrize("at_minimum", [True, False], ids=["minimum", "three"])
def test_int_subclass_accepted_as_its_value(call, minimum, at_minimum):
    value = minimum if at_minimum else Count.THREE
    assert call(value) == call(int(value))


@pytest.mark.parametrize("call, want", [
    (lambda v: DesignSpec((1,), v), "degree must be an integer >= 0"),
    (sma, "k must be an integer >= 1"),
], ids=["DesignSpec.degree", "sma"])
def test_an_integer_too_long_for_str_is_named(call, want):
    # formatting the value raised Python's ValueError "Exceeds the limit
    # (4300 digits) for integer string conversion", which names no argument
    want += ", got <negative int of 16610 bits>"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        call(-10**5000)


HUGE = 10**5000
SHOWN = "<positive int of 16610 bits>"
# series keyed at HUGE: a 2y value of -1 over a 1y window of 1s, 1y windows
# whose sum overflows or whose mean is negative, and a reference value of
# zero or so small that the discrepancy overflows
AT_HUGE = MyeSeries("x", "count", {(1, HUGE - 1): 1.0, (1, HUGE): 1.0, (2, HUGE): -1.0})
OVER = MyeSeries("x", "count", {(1, HUGE - 1): 1e308, (1, HUGE): 1e308})
NEGATIVE = MyeSeries("x", "count", {(1, HUGE - 1): -1.0, (1, HUGE): -1.0, (2, HUGE): 1.0})
ZERO = MyeSeries("x", "count", {(1, HUGE): 0.0})
TINY = MyeSeries("x", "count", {(1, HUGE): 1e-300})
LARGE = MyeSeries("x", "count", {(3, HUGE): 1e300})


@pytest.mark.parametrize("call, error, want", [
    (lambda: simulation(seed=HUGE), ValueError,
     f"seed must be an integer < 2**64, got {SHOWN}"),
    (lambda: INCOME.value(3, HUGE), MissingDataError,
     f"income: no 3y observation ending {SHOWN}"),
    (lambda: impute_random_walk(INCOME, [(3, HUGE)]), DomainError,
     f"income: imputed 3y ending {SHOWN} is beyond the float range"),
    (lambda: impute_random_walk(INCOME, [(0, HUGE)]), ValueError,
     f"target (0, {SHOWN}): period must be an integer >= 1, got 0"),
    (lambda: MyeSeries("x", "u", {(1, HUGE, 3): 1.0}), DataError,
     f"observation key must be (period, end_year), got (1, {SHOWN}, 3)"),
    (lambda: ComparisonSpec(HUGE, 2000), ValueError,
     f"mode must be one of ('inapt', 'untimely', 'proper'), got {SHOWN}"),
    (lambda: DesignSpec((HUGE, HUGE), 1), ValueError,
     f"periods must be distinct, got ({SHOWN}, {SHOWN})"),
    (lambda: ComparisonSpec("untimely", 2000, HUGE, 3), ValueError,
     f"untimely comparisons use the same period on both sides; got {SHOWN} and 3"),
    (lambda: apply_filter(RatPoly([1, 1]), INCOME, 3, HUGE), MissingDataError,
     f"income: filter window needs missing observations [(3, {SHOWN}), (3, {SHOWN})]"),
    (lambda: trend_estimates(INCOME, design_filters(DesignSpec((1,), 0)), HUGE),
     MissingDataError, f"income: filter window needs missing observations [(1, {SHOWN})]"),
    (lambda: compare(RegionPair(INCOME, INCOME), ComparisonSpec("inapt", HUGE)),
     MissingDataError, f"income: filter window needs missing observations [(1, {SHOWN})]"),
    (lambda: apply_filter(RatPoly([1, 1]), OVER, 1, HUGE), DomainError,
     f"x: 1y filter ending {SHOWN} overflows the float range"),
    (lambda: sma_of_base(INCOME, 3, HUGE), MissingDataError,
     f"income: 1y values missing for years [{SHOWN}, {SHOWN}, {SHOWN}] "
     f"(window of 3 ending {SHOWN})"),
    (lambda: sma_of_base(OVER, 2, HUGE), DomainError,
     f"x: sum of the 1y values in the window of 2 ending {SHOWN} overflows the float range"),
    (lambda: nsr(AT_HUGE, 2, HUGE), DomainError,
     f"x: 2y value ending {SHOWN} is -1.0, not positive"),
    (lambda: nsr(NEGATIVE, 2, HUGE), DomainError,
     f"x: 1y window mean ending {SHOWN} is -1.0, not positive"),
    (lambda: nsr(INCOME, 3, 2007, log_base=HUGE), ValueError,
     f"log_base must be 10 or 'e', got {SHOWN}"),
    (lambda: compatibility(INCOME, [HUGE]), MissingDataError,
     f"income: no end year has both a {SHOWN}y value and a complete 1y window"),
    (lambda: compare(RegionPair(ZERO, LARGE), ComparisonSpec("inapt", HUGE)), DomainError,
     f"reference value for x at {SHOWN} is zero; relative discrepancy is undefined"),
    (lambda: compare(RegionPair(TINY, LARGE), ComparisonSpec("inapt", HUGE)), DomainError,
     f"discrepancy of 1e+300 against 1e-300 at {SHOWN} is inf, not a finite number"),
    (lambda: expected_bias([0, 10**400], ComparisonSpec("inapt", HUGE)), DomainError,
     f"expected inapt bias of 1y against 3y at {SHOWN} is beyond the float range"),
    (lambda: synthetic_series([5], [1], 2000, -HUGE), ValueError,
     "end_year <negative int of 16610 bits> precedes start_year 2000"),
    (lambda: synthetic_series([10**400], [1], HUGE, HUGE), DomainError,
     f"synthetic: the 1y value ending {SHOWN} is beyond the float range"),
    (lambda: simulate_bias(SimulationSpec([10**400], {}, "inapt", HUGE, 1, 0)), DomainError,
     f"region A's noise-free 1y value at {SHOWN} is beyond the float range"),
], ids=["SimulationSpec.seed", "MyeSeries.value", "impute_random_walk",
        "impute_random_walk.target", "MyeSeries.key", "ComparisonSpec.mode", "DesignSpec.periods",
        "ComparisonSpec.untimely", "apply_filter", "trend_estimates", "compare",
        "apply_filter.overflow", "sma_of_base", "sma_of_base.overflow", "nsr.value",
        "nsr.window_mean", "nsr.log_base", "compatibility", "compare.zero", "compare.overflow",
        "expected_bias", "synthetic_series.end_year", "synthetic_series.value",
        "simulate_bias"])
def test_a_value_too_long_for_str_is_named_in_its_message(call, error, want):
    # formatting the value raised Python's ValueError "Exceeds the limit
    # (4300 digits) for integer string conversion" in place of this error
    with pytest.raises(error, match=f"^{re.escape(want)}$"):
        call()


def test_a_long_int_in_a_valid_input_is_not_formatted_before_an_error():
    # these messages were formatted before the value they name was known to
    # be out of range, so valid input raised Python's "Exceeds the limit"
    assert expected_bias([5], ComparisonSpec("inapt", HUGE, 1, 3)) == 0.0
    assert synthetic_series([5], [1], HUGE, HUGE).value(1, HUGE) == 5.0
    assert simulate_bias(SimulationSpec([5], {}, "inapt", HUGE, 1, 0)).bias == 0.0


@pytest.mark.parametrize("call, error, want", [
    (lambda: INCOME.value(Count.THREE, 2099), MissingDataError,
     "income: no 3y observation ending 2099"),
    (lambda: impute_random_walk(INCOME, [(Count.THREE, 1990)]), ImputationError,
     "income: cannot impute 3y ending 1990: no published 3y value precedes it"),
], ids=["MyeSeries.value", "impute_random_walk"])
def test_int_subclass_key_is_named_as_its_value(call, error, want):
    # _show gives an IntEnum's repr, <Count.THREE: 3>; these messages show
    # the key's int value
    with pytest.raises(error, match=f"^{re.escape(want)}$"):
        call()


@pytest.mark.parametrize("key", [(1, 2000.0), (True, 2000), (1, "2000")])
def test_malformed_key_is_not_in_a_series(key):
    # ``in`` answers False, as a container does, where a lookup raises
    assert key not in MyeSeries("x", "count", {(1, 2000): 1.0})


def test_from_dict_names_the_bad_coefficient():
    # "1/0" used to escape as a bare ZeroDivisionError
    data = FAMILY.to_dict()
    data["psi"]["3"][1] = "1/0"
    with pytest.raises(ValueError, match=r"^coefficient 1 must be a finite number, got '1/0'$"):
        FilterSet.from_dict(data)


@pytest.mark.parametrize("key, stored, want", [
    ("degree", 1.5, "degree must be an integer >= 0, got 1.5"),
    ("periods", ["1", "3", "5"], "periods must be an integer >= 1, got '1'"),
])
def test_from_dict_keeps_the_stored_integers(key, stored, want):
    # both used to load silently through int(): degree 1.5 as 1, "1" as 1
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        FilterSet.from_dict({**FAMILY.to_dict(), key: stored})


def test_cli_degree_named(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["design", "--degree", "-1", "--periods", "1,3"])
    assert exc.value.code == 2
    assert "degree must be an integer >= 0, got -1" in capsys.readouterr().err
