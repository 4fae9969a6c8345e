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

Every public name is loaded on first use (PEP 562), so importing the package
is cheap and a command pays only for the modules it runs. ``__all__``,
``dir()`` and ``from myetrends import *`` list every name without loading it.
"""

import sys

__version__ = "0.1.0"

# Each public name, by the submodule that defines it; ``__all__`` keeps this order.
_EXPORTS = {
    # algebra
    "ratpoly": ("RatPoly", "sma"),
    # design
    "filterdesign": (
        "DesignSpec",
        "FilterSet",
        "VerificationReport",
        "design_filters",
        "variance_inflation",
        "verify_filter_set",
    ),
    # series
    "myeseries": (
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
    ),
    # bundled data
    "datasets": ("load_sample", "sample_names", "STANDARD_TARGETS"),
    # analysis
    "analysis": (
        "TrendEstimates",
        "CompatibilityReport",
        "ComparisonSpec",
        "ComparisonResult",
        "apply_filter",
        "trend_estimates",
        "nsr",
        "compatibility",
        "compare",
        "expected_bias",
        "synthetic_series",
    ),
    "simulation": ("SimulationSpec", "SimulationSummary", "simulate_bias"),
    # errors, and the comparison modes
    "exceptions": (
        "MODES",
        "MyeTrendsError",
        "DataError",
        "CsvError",
        "MissingDataError",
        "ImputationError",
        "DomainError",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SOURCE]


def _submodule(module: str):
    qualified = f"{__name__}.{module}"
    # the import statement's own path, unlike importlib.import_module, so
    # ``python -X importtime`` lists the submodule and its self time
    __import__(qualified)
    return sys.modules[qualified]


def __getattr__(name: str):
    """Import the submodule that defines ``name`` (or is ``name``), and keep
    the value here, so the next read is a plain attribute lookup."""
    if name in _SOURCE:
        value = getattr(_submodule(_SOURCE[name]), name)
    elif name in _EXPORTS:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
