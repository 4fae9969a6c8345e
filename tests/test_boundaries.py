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

import pytest

from myetrends.analysis import (
    ComparisonSpec,
    SimulationSpec,
    apply_filter,
    compatibility,
    nsr,
    synthetic_series,
    trend_estimates,
)
from myetrends.cli import main
from myetrends.datasets import load_sample
from myetrends.exceptions import DataError
from myetrends.filterdesign import DesignSpec, FilterSet, design_filters
from myetrends.myeseries import MyeSeries, impute_random_walk, render_value, sma_of_base
from myetrends.ratpoly import sma

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
