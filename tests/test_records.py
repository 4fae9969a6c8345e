"""The package's frozen record types: printing, equality, hashing, immutability, copying."""

import copy
import pickle

import pytest

from myetrends import (
    PUBLISHED,
    CompatibilityReport,
    ComparisonResult,
    ComparisonSpec,
    DesignSpec,
    ObservedValue,
    RegionPair,
    SimulationSpec,
    SimulationSummary,
    TrendEstimates,
    VerificationReport,
    design_filters,
    load_sample,
)
from myetrends.analysis import CompatibilityEntry
from myetrends.filterdesign import VerificationCheck


def _spec():
    return ComparisonSpec("proper", 2007, 3, 5)


def _entry():
    return CompatibilityEntry(nsr={2005: -0.01, 2007: 0.02}, c=0.02)


def _check():
    return VerificationCheck("sum", True, "0")


# each record type, built from fresh objects on every call
MAKE = {
    "TrendEstimates": lambda: TrendEstimates(
        at=2007, values={1: 1.5, 3: 2.25}, design=DesignSpec(periods=(5, 1, 3), degree=1)
    ),
    "CompatibilityEntry": _entry,
    "CompatibilityReport": lambda: CompatibilityReport("income", "log10", True, {3: _entry()}),
    "ComparisonSpec": _spec,
    "ComparisonResult": lambda: ComparisonResult(_spec(), 100.0, 90.5, -0.095, 3, 5),
    "DesignSpec": lambda: DesignSpec(periods=(5, 1, 3), degree=1),
    "FilterSet": lambda: design_filters(DesignSpec((1, 3), 0)),
    "VerificationCheck": _check,
    "VerificationReport": lambda: VerificationReport(
        (_check(), VerificationCheck("trend", False, "1/2"))
    ),
    "ObservedValue": lambda: ObservedValue(2, "imputed"),
    "RegionPair": lambda: RegionPair(load_sample("income"), load_sample("income")),
    "SimulationSpec": lambda: SimulationSpec(
        [0, "1/2"], {5: 2, 1: 1.5}, "inapt", 2010, 1000, 7, 1, 5
    ),
    "SimulationSummary": lambda: SimulationSummary(
        "inapt", 1000, 7, 0.25, 0.01, 10.0, 9.75, 1.5, 0.5
    ),
}

# what each record printed while the types were frozen dataclasses
REPRS = {
    "TrendEstimates": "TrendEstimates(at=2007, values={1: 1.5, 3: 2.25}, "
                      "design=DesignSpec(periods=(1, 3, 5), degree=1))",
    "CompatibilityEntry": "CompatibilityEntry(nsr={2005: -0.01, 2007: 0.02}, c=0.02)",
    "CompatibilityReport": "CompatibilityReport(series='income', log_base='log10', "
                           "include_imputed=True, entries={3: CompatibilityEntry("
                           "nsr={2005: -0.01, 2007: 0.02}, c=0.02)})",
    "ComparisonSpec": "ComparisonSpec(mode='proper', t0=2007, reference_period=3, "
                      "other_period=5)",
    "ComparisonResult": "ComparisonResult(spec=ComparisonSpec(mode='proper', t0=2007, "
                        "reference_period=3, other_period=5), value_a=100.0, value_b=90.5, "
                        "discrepancy=-0.095, reference_period_used=3, other_period_used=5)",
    "DesignSpec": "DesignSpec(periods=(1, 3, 5), degree=1)",
    "FilterSet": "FilterSet(spec=DesignSpec(periods=(1, 3), degree=0), phi=RatPoly(['1']), "
                 "psi={1: RatPoly(['1/3', '1/3', '1/3']), 3: RatPoly(['1'])}, "
                 "common=RatPoly(['1/3', '1/3', '1/3']))",
    "VerificationCheck": "VerificationCheck(name='sum', passed=True, residual='0')",
    "VerificationReport": "VerificationReport(checks=(VerificationCheck(name='sum', "
                          "passed=True, residual='0'), VerificationCheck(name='trend', "
                          "passed=False, residual='1/2')))",
    "ObservedValue": "ObservedValue(value=2.0, provenance='imputed')",
    "RegionPair": "RegionPair(a=<MyeSeries 'income' [dollars] 1y:8, 3y:6, 5y:3>, "
                  "b=<MyeSeries 'income' [dollars] 1y:8, 3y:6, 5y:3>)",
    "SimulationSpec": "SimulationSpec(trend=(Fraction(0, 1), Fraction(1, 2)), "
                      "noise_sd=((1, 1.5), (5, 2.0)), mode='inapt', t0=2010, replicates=1000, "
                      "seed=7, reference_period=1, other_period=5)",
    "SimulationSummary": "SimulationSummary(mode='inapt', replicates=1000, seed=7, bias=0.25, "
                         "std_error=0.01, mean_a=10.0, mean_b=9.75, var_a=1.5, var_b=0.5)",
}

# a dict or a MyeSeries field makes a record unhashable
UNHASHABLE = {"TrendEstimates", "CompatibilityEntry", "CompatibilityReport", "FilterSet",
              "RegionPair"}

NAMES = sorted(MAKE)


def test_every_record_type_is_covered():
    assert set(MAKE) == set(REPRS)
    assert len(MAKE) == 13


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    assert repr(MAKE[name]()) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_equal_records(name):
    a, b = MAKE[name](), MAKE[name]()
    assert a is not b
    assert a == b
    assert not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", NAMES)
def test_never_equal_to_a_tuple_or_another_type(name):
    record = MAKE[name]()
    assert record != tuple(vars(record).values())
    for other in NAMES:
        if other != name:
            assert record != MAKE[other]()


def test_a_changed_field_breaks_equality():
    assert ComparisonSpec("inapt", 2007) != ComparisonSpec("inapt", 2008)
    assert ObservedValue(2.0) != ObservedValue(2.0, "imputed")


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_raise(name):
    record = MAKE[name]()
    for field in vars(record):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1
    assert repr(record) == REPRS[name]


def test_keywords_and_defaults():
    spec = ComparisonSpec(mode="inapt", t0=2007, other_period=5)
    assert spec.reference_period == 1
    assert spec == ComparisonSpec("inapt", 2007, 1, 5)
    assert ObservedValue(2.0).provenance == PUBLISHED
    sim = SimulationSpec(trend=[0, 1], noise_sd={}, mode="inapt", t0=10, replicates=5, seed=0)
    assert (sim.reference_period, sim.other_period) == (1, 3)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal(name, duplicate):
    record = MAKE[name]()
    twin = duplicate(record)
    assert type(twin) is type(record)
    assert twin == record
    assert repr(twin) == repr(record)
    with pytest.raises(AttributeError):
        twin.extra = 1


def test_simulation_summary_to_dict_keeps_the_field_order():
    summary = MAKE["SimulationSummary"]()
    assert summary.to_dict() == vars(summary)
    assert list(summary.to_dict()) == ["mode", "replicates", "seed", "bias", "std_error",
                                       "mean_a", "mean_b", "var_a", "var_b"]
