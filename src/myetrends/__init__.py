"""Trend-preserving concurrent filters for rolling multi-year estimates.

Overlapping multi-year survey estimates of different window lengths are not
directly comparable at a common end year: longer windows lag a moving
signal further. This package designs exact-rational concurrent filter
families that align them (reproducing polynomial trends and giving every
window length identical composite weights), models the estimate series
themselves (CSV interchange, random-walk gap filling), and quantifies
comparability through NSR diagnostics, discrepancy comparisons, and seeded
Monte Carlo bias experiments. The ``myetrends`` command exposes all of it
for batch use.

Quick start::

    from myetrends import DesignSpec, design_filters, verify_filter_set

    fs = design_filters(DesignSpec(periods=(1, 3, 5), degree=1))
    print(fs.psi[5])            # (4 + z + z^2 - 3z^3)/3
    assert verify_filter_set(fs).passed
"""

from .analysis import (
    MODES,
    ComparisonResult,
    ComparisonSpec,
    CompatibilityReport,
    SimulationSpec,
    SimulationSummary,
    TrendEstimates,
    apply_filter,
    compare,
    compatibility,
    expected_bias,
    nsr,
    simulate_bias,
    synthetic_series,
    trend_estimates,
)
from .datasets import STANDARD_TARGETS, load_sample, sample_names
from .exceptions import (
    CsvError,
    DataError,
    DesignInfeasibleError,
    DomainError,
    ImputationError,
    MissingDataError,
    MyeTrendsError,
)
from .filterdesign import (
    DesignSpec,
    FilterSet,
    VerificationReport,
    design_filters,
    variance_inflation,
    verify_filter_set,
)
from .myeseries import (
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
from .ratpoly import RatPoly, sma

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # algebra
    "RatPoly",
    "sma",
    # design
    "DesignSpec",
    "FilterSet",
    "VerificationReport",
    "design_filters",
    "variance_inflation",
    "verify_filter_set",
    # series
    "MyeSeries",
    "ObservedValue",
    "RegionPair",
    "PUBLISHED",
    "IMPUTED",
    "load_csv",
    "write_csv",
    "impute_random_walk",
    "sma_of_base",
    "display_decimals",
    "render_value",
    "round_half_away",
    # bundled data
    "load_sample",
    "sample_names",
    "STANDARD_TARGETS",
    # analysis
    "MODES",
    "TrendEstimates",
    "CompatibilityReport",
    "ComparisonSpec",
    "ComparisonResult",
    "SimulationSpec",
    "SimulationSummary",
    "apply_filter",
    "trend_estimates",
    "nsr",
    "compatibility",
    "compare",
    "expected_bias",
    "simulate_bias",
    "synthetic_series",
    # errors
    "MyeTrendsError",
    "DesignInfeasibleError",
    "DataError",
    "CsvError",
    "MissingDataError",
    "ImputationError",
    "DomainError",
]
