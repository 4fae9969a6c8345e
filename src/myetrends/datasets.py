"""Bundled sample series: three county-level variables, 2000 through 2007.

Each sample carries 1y estimates for 2000-2007, 3y estimates for 2001-2005
and 2007, and 5y estimates for 2003-2005, so the 3y value ending 2006 and
the 5y values ending 2006 and 2007 are natural imputation targets.

========  ==================================  =======
key       variable                            unit
========  ==================================  =======
income    median household income (Pima AZ)   dollars
divorce   divorced males (Lake IL)            persons
age       median age (Hampden MA)             years
========  ==================================  =======
"""

from __future__ import annotations

from .myeseries import MyeSeries, load_csv

__all__ = ["sample_names", "load_sample", "STANDARD_TARGETS"]

_SAMPLES = {
    "income": "income_pima_az.csv",
    "divorce": "divorce_lake_il.csv",
    "age": "age_hampden_ma.csv",
}

# The (period, end_year) keys every bundled sample is missing.
STANDARD_TARGETS = ((3, 2006), (5, 2006), (5, 2007))


def sample_names() -> tuple[str, ...]:
    """Keys accepted by :func:`load_sample`."""
    return tuple(_SAMPLES)


def load_sample(name: str) -> MyeSeries:
    """Load one bundled sample series by key."""
    try:
        fname = _SAMPLES[name]
    except KeyError:
        raise KeyError(
            f"unknown sample {name!r}; available: {', '.join(_SAMPLES)}"
        ) from None
    from importlib import resources

    path = resources.files("myetrends").joinpath("data", fname)
    with path.open("r", encoding="utf-8") as fh:
        return load_csv(fh)
