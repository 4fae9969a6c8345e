"""Filtered trends, cross-period compatibility, and comparison bias.

This module applies designed filter families to series data and quantifies
the three ways an analyst might compare estimates of different window
lengths:

``inapt``
    Region A's single-year value against region B's longer-window value at
    the same end year. An averaging window lags a moving signal (a k-year
    window delays a line by (k-1)/2 years), so this comparison is biased
    whenever the underlying signal trends.
``untimely``
    Both regions' equal-length windows at the same end year. The delay is
    shared, so equal trends cancel, but the comparison describes an earlier
    effective date than its end year suggests.
``proper``
    Both sides filtered with a designed family, so each side estimates the
    *same* present-day trend value and polynomial trends produce no bias at
    all.

Also here: the noise-to-signal ratio (NSR) diagnostic comparing a k-year
estimate against the k-year average of single-year estimates
(:func:`sma_of_base`), its summary ``C`` (the max absolute NSR over time),
and analytic expected comparison bias under a polynomial trend.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .exceptions import (
    MODES,
    DomainError,
    MissingDataError,
    Record,
    _set,
    _show,
    _to_float,
    check_int,
)
from .ratpoly import ONE, RatPoly, sma

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Iterable, Optional, Sequence, Union

    from .filterdesign import DesignSpec, FilterSet
    from .myeseries import MyeSeries, RegionPair

    TrendCoefficients = Sequence[Union[int, str, float, Fraction]]

__all__ = [
    "TrendEstimates",
    "CompatibilityEntry",
    "CompatibilityReport",
    "ComparisonSpec",
    "ComparisonResult",
    "apply_filter",
    "trend_estimates",
    "sma_of_base",
    "nsr",
    "compatibility",
    "compare",
    "expected_bias",
    "synthetic_series",
]


# ---------------------------------------------------------------------------
# filter application and trend estimates


def apply_filter(weights: RatPoly, series: MyeSeries, period: int, end_year: int) -> float:
    """Weighted average of ``series``' ``period``-length values ending at ``end_year``.

    The coefficient on ``z**j`` weights the observation ending ``j`` years
    before ``end_year``, so the window is read newest first. Weights are
    floated once and the dot product is summed exactly (``math.fsum``)
    before the final rounding; a one-weight filter's value is its single
    product, which is rounded once.

    Raises
    ------
    MissingDataError
        Listing every absent ``(period, year)`` the window needs.
    DomainError
        If the weighted sum leaves the float range.
    ValueError
        If ``period`` or ``end_year`` is not an integer.
    """
    ws = weights.as_floats()
    xs = series._window_values(period, end_year, len(ws))
    if xs is None:
        missing = [(period, end_year - j) for j in range(len(ws))
                   if (period, end_year - j) not in series]
        raise MissingDataError(
            f"{series.name}: filter window needs missing observations {_show(missing)}"
        )
    # fsum of one nonzero product is that product; a zero one still goes to
    # fsum, which gives a zero sum its sign
    total = ws[0] * xs[0] if len(ws) == 1 else 0.0
    if not total:
        try:
            total = math.fsum(map(mul, ws, xs))
        except (OverflowError, ValueError):  # a partial sum past the float range, or inf - inf
            total = math.inf
    if not math.isfinite(total):
        raise DomainError(
            f"{series.name}: {_show(int(period))}y filter ending {_show(int(end_year))} "
            "overflows the float range")
    return total


class TrendEstimates(Record):
    """Filtered trend values for one end year, one value per period."""

    def __init__(self, at: int, values: dict[int, float], design: DesignSpec) -> None:
        _set(self, "at", at)
        _set(self, "values", values)
        _set(self, "design", design)

    def to_dict(self) -> dict:
        return {
            "at": self.at,
            "periods": list(self.design.periods),
            "degree": self.design.degree,
            "values": {str(k): v for k, v in sorted(self.values.items())},
        }


def trend_estimates(series: MyeSeries, fs: FilterSet, t0: int) -> TrendEstimates:
    """Apply each period's filter to its own sub-series, all ending at ``t0``.

    By the design identity, every period's result estimates the same
    present-day trend value, so the returned values are directly
    comparable. A ``t0`` that is not an integer, or a filter set that lacks
    one of its design's periods, raises ``ValueError``.
    """
    if type(t0) is not int:
        check_int(t0, "t0")
    psi = fs.psi
    values = {}
    for k in fs.spec.periods:
        if k not in psi:
            raise ValueError(f"filter set {fs.spec} has no period {_show(int(k))}")
        values[k] = apply_filter(psi[k], series, k, t0)
    return TrendEstimates(t0, values, fs.spec)


# ---------------------------------------------------------------------------
# NSR and compatibility


def _log_for_base(log_base) -> tuple[Callable[[float], float], str]:
    """The log function for ``log_base`` and the base's label, ``"10"`` or ``"e"``."""
    if log_base in (10, "10"):
        return math.log10, "10"
    if log_base in ("e", math.e):
        return math.log, "e"
    raise ValueError(f"log_base must be 10 or 'e', got {_show(log_base)}")


def sma_of_base(series: MyeSeries, period: int, end_year: int) -> float:
    """Equal-weight mean of the 1y values over one window.

    Averages the single-year observations ending ``end_year`` back through
    ``end_year - period + 1``. This is what a ``period``-length estimate
    would be if it aggregated the published single-year data exactly.

    Raises
    ------
    MissingDataError
        Listing the years whose 1y values are absent. A stretch of more than
        ten absent years in a row is named by its first and last year, as
        ``1990 to 1999``, so the message grows with the series' 1y
        observations, not with ``period``.
    DomainError
        If the window's sum leaves the float range.
    ValueError
        If ``period`` is not an integer >= 1 or ``end_year`` is not an integer.
    """
    check_int(period, "period", 1)
    xs = series._window_values(1, end_year, period)
    if xs is None:
        first = end_year - period + 1
        gaps, start = [], first
        for t in [*(t for t in series.years(1) if first <= t <= end_year), end_year + 1]:
            if t - start > 10:
                gaps.append(f"{_show(start)} to {_show(t - 1)}")
            else:
                gaps += map(_show, range(start, t))
            start = t + 1
        raise MissingDataError(
            f"{series.name}: 1y values missing for years [{', '.join(gaps)}] "
            f"(window of {_show(int(period))} ending {_show(int(end_year))})"
        )
    # summed oldest first, as the audit sums: fsum's partial sums can leave
    # the float range in one order and not in another
    try:
        total = math.fsum(reversed(xs))
    except (OverflowError, ValueError):  # a partial sum past the float range
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(
            f"{series.name}: sum of the 1y values in the window of {_show(int(period))} "
            f"ending {_show(int(end_year))} overflows the float range"
        )
    return total / period


def nsr(series: MyeSeries, period: int, t: int, log_base=10) -> float:
    """Log ratio of the ``period``-length value to the matching 1y average.

    If a k-year estimate behaved exactly like the k-year average of the
    single-year estimates, this would be zero. Base-10 logs by default;
    pass ``log_base="e"`` for natural logs.

    Raises
    ------
    MissingDataError
        If the k-year value or part of the 1y window is absent.
    DomainError
        If either quantity is not strictly positive.
    ValueError
        If ``period`` is not an integer >= 1 or ``t`` is not an integer.
    """
    log, _ = _log_for_base(log_base)
    check_int(period, "period", 1)
    check_int(t, "t")
    y = series.value(period, t)
    base_mean = sma_of_base(series, period, t)
    if y <= 0:
        raise DomainError(
            f"{series.name}: {_show(int(period))}y value ending {_show(int(t))} is {y}, "
            "not positive")
    if base_mean <= 0:
        raise DomainError(
            f"{series.name}: 1y window mean ending {_show(int(t))} is {base_mean}, not positive")
    return log(y) - log(base_mean)


class CompatibilityEntry(Record):
    """NSR by end year for one period, and the max absolute value."""

    def __init__(self, nsr: dict[int, float], c: float) -> None:
        _set(self, "nsr", nsr)
        _set(self, "c", c)


class CompatibilityReport(Record):
    """Cross-period compatibility diagnostics for one series."""

    def __init__(self, series: str, log_base: str, include_imputed: bool,
                 entries: dict[int, CompatibilityEntry]) -> None:
        _set(self, "series", series)
        _set(self, "log_base", log_base)
        _set(self, "include_imputed", include_imputed)
        _set(self, "entries", entries)

    def c(self, period: int) -> float:
        return self.entries[period].c

    def to_dict(self) -> dict:
        return {
            "series": self.series,
            "log_base": self.log_base,
            "include_imputed": self.include_imputed,
            "periods": {
                str(k): {
                    "c": e.c,
                    "nsr": {str(t): v for t, v in sorted(e.nsr.items())},
                }
                for k, e in sorted(self.entries.items())
            },
        }


def compatibility(
    series: MyeSeries,
    periods: Iterable[int],
    log_base=10,
    include_imputed: bool = True,
) -> CompatibilityReport:
    """NSR across all usable end years, and ``C = max |NSR|``, per period.

    An end year is usable when the k-year value and the full k-long window
    of 1y values all exist. With ``include_imputed=False``, years whose
    k-year value or 1y window touches an imputed observation are dropped;
    the default keeps them, treating forecast extensions as data.

    Each period's k-year values and their 1y windows are read in one walk
    over the series, not year by year.

    Raises
    ------
    MissingDataError
        If a requested period has no usable end years.
    ValueError
        If ``periods`` is empty or a period is not an integer >= 1.
    """
    log, label = _log_for_base(log_base)
    ks = {check_int(k, "period", 1) for k in periods}
    if not ks:
        raise ValueError("periods must be nonempty")
    entries: dict[int, CompatibilityEntry] = {}
    for k in sorted(ks):
        table: dict[int, float] = {}
        for t, y, xs in series._base_windows(k, not include_imputed):
            try:
                table[t] = log(y) - log(math.fsum(xs) / k)
            except (OverflowError, ValueError):  # a sum past the float range, or a log of <= 0
                # nsr sums the same window, oldest first, and raises the error
                table[t] = nsr(series, k, t, log_base)
        if not table:
            raise MissingDataError(
                f"{series.name}: no end year has both a {_show(int(k))}y value and "
                f"a complete 1y window"
            )
        entries[k] = CompatibilityEntry(
            nsr=table, c=max(abs(v) for v in table.values())
        )
    return CompatibilityReport(
        series=series.name,
        log_base=label,
        include_imputed=include_imputed,
        entries=entries,
    )


# ---------------------------------------------------------------------------
# comparisons


class ComparisonSpec(Record):
    """What to compare: mode, end year, and the period for each side.

    ``reference_period`` belongs to region A (the denominator side),
    ``other_period`` to region B. Mode rules: inapt fixes the reference at
    1 and needs a longer other period; untimely needs both periods equal
    and above 1; proper accepts any pair present in the filter design.
    ``reference_period=None`` stores ``other_period`` if untimely, else 1.
    """

    def __init__(self, mode: str, t0: int, reference_period: Optional[int] = None,
                 other_period: int = 3) -> None:
        if reference_period is None:
            reference_period = other_period if mode == "untimely" else 1
        _set(self, "mode", mode)
        _set(self, "t0", t0)
        _set(self, "reference_period", reference_period)
        _set(self, "other_period", other_period)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {_show(self.mode)}")
        check_int(self.reference_period, "reference_period", 1)
        check_int(self.other_period, "other_period", 1)
        check_int(self.t0, "t0")
        if self.mode == "inapt":
            if self.reference_period != 1:
                raise ValueError("inapt comparisons fix reference_period = 1")
            if self.other_period == 1:
                raise ValueError("inapt comparisons need other_period > 1")
        elif self.mode == "untimely":
            if self.reference_period != self.other_period:
                raise ValueError(
                    "untimely comparisons use the same period on both sides; "
                    f"got {_show(int(self.reference_period))} and "
                    f"{_show(int(self.other_period))}"
                )
            if self.other_period == 1:
                raise ValueError("untimely comparisons need periods > 1")


class ComparisonResult(Record):
    """Two compared values and their relative discrepancy ``b/a - 1``."""

    def __init__(self, spec: ComparisonSpec, value_a: float, value_b: float, discrepancy: float,
                 reference_period_used: int, other_period_used: int) -> None:
        _set(self, "spec", spec)
        _set(self, "value_a", value_a)
        _set(self, "value_b", value_b)
        _set(self, "discrepancy", discrepancy)
        _set(self, "reference_period_used", reference_period_used)
        _set(self, "other_period_used", other_period_used)

    def percent(self, decimals: int = 1) -> str:
        """Discrepancy as a percentage string, e.g. ``"-13.7"``."""
        from .myeseries import render_value

        return render_value(100.0 * self.discrepancy, decimals)

    def to_dict(self) -> dict:
        return {
            "mode": self.spec.mode,
            "t0": self.spec.t0,
            "reference_period": self.reference_period_used,
            "other_period": self.other_period_used,
            "value_a": self.value_a,
            "value_b": self.value_b,
            "discrepancy": self.discrepancy,
            "percent": self.percent(),
        }


def _sides(
    spec: ComparisonSpec, fs: Optional[FilterSet], a: Optional[MyeSeries] = None
) -> tuple[tuple[int, RatPoly], tuple[int, RatPoly]]:
    """Each side's period and weights: ``((ka, wa), (kb, wb))``.

    Every comparison is a weighted average of one period's values ending at
    ``t0`` on each side. The raw modes weight the ``t0`` value alone; proper
    mode uses the designed filter of that side's period. Given region A's
    series ``a``, proper mode keeps the reference period only if A publishes
    it and it is designed, and otherwise falls back to the shortest designed
    period A does have.
    """
    ka, kb = spec.reference_period, spec.other_period
    if spec.mode != "proper":
        return (ka, ONE), (kb, ONE)
    if fs is None:
        raise ValueError("proper mode requires a designed filter set")
    if a is not None:
        available = a.periods()
        if ka not in available or ka not in fs.psi:
            ka = next((k for k in fs.spec.periods if k in available), None)
            if ka is None:
                raise MissingDataError(
                    f"{a.name}: none of the designed periods {list(fs.spec.periods)} "
                    f"have observations"
                )
    for k in (ka, kb):
        if k not in fs.psi:
            raise ValueError(f"filter set {fs.spec} has no period {_show(int(k))}")
    return (ka, fs.psi[ka]), (kb, fs.psi[kb])


def compare(
    pair: RegionPair, spec: ComparisonSpec, fs: Optional[FilterSet] = None
) -> ComparisonResult:
    """Carry out one comparison between two regions.

    Inapt and untimely modes read raw observations at ``spec.t0`` (a unit
    filter). Proper mode filters both sides with ``fs`` (required): region
    A with its reference period's filter, falling back to the shortest
    period A actually has; region B with the other period's filter.

    Raises
    ------
    MissingDataError
        A needed observation or filter window is absent.
    DomainError
        Region A's value is zero, so the relative discrepancy is undefined,
        or the discrepancy overflows to a non-finite float.
    ValueError
        Proper mode without ``fs``, or a period missing from ``fs``.
    """
    t0 = spec.t0
    (ka, wa), (kb, wb) = _sides(spec, fs, pair.a)
    va = apply_filter(wa, pair.a, ka, t0)
    vb = apply_filter(wb, pair.b, kb, t0)
    if va == 0:
        raise DomainError(
            f"reference value for {pair.a.name} at {_show(int(t0))} is zero; "
            "relative discrepancy is undefined"
        )
    discrepancy = vb / va - 1.0
    if not math.isfinite(discrepancy):
        raise DomainError(
            f"discrepancy of {vb!r} against {va!r} at {_show(int(t0))} is {discrepancy}, "
            "not a finite number"
        )
    return ComparisonResult(spec, va, vb, discrepancy, ka, kb)


# ---------------------------------------------------------------------------
# expected bias under a polynomial trend


def _weighted_trend(trend: RatPoly, weights: RatPoly, t: int) -> Fraction:
    """``sum_j weights_j * trend(t - j)``, exactly."""
    return sum((c * trend.evaluate(t - j) for j, c in enumerate(weights.coeffs)), Fraction(0))


def _deterministic_sides(
    trend: RatPoly, t0: int, sides: Iterable[tuple[int, RatPoly]]
) -> tuple[Fraction, Fraction]:
    """Noise-free values of the resolved ``sides`` under the trend at ``t0``,
    in exact arithmetic.

    A side weights the trend by its composite ``w.averaged(k)``, that is
    ``w * sma(k)``; in proper mode both composites are ``fs.common``, so the
    two sides are equal.
    """
    return tuple(_weighted_trend(trend, w.averaged(k), t0) for k, w in sides)


def expected_bias(
    trend: TrendCoefficients,
    spec: ComparisonSpec,
    fs: Optional[FilterSet] = None,
) -> float:
    """Expectation of ``value_a - value_b`` when both regions share ``trend``.

    ``trend`` lists polynomial coefficients ``a0, a1, ...`` of the common
    signal ``a0 + a1*t + ...``; errors are mean zero, so only the trend
    moves the expectation.

    Mode behavior: inapt compares the trend's present value to its lagged
    window average, so any moving trend biases it (a line of slope ``b``
    against a k-year window gives exactly ``b*(k-1)/2``). Untimely is zero
    for equal trends (both sides lag identically). Proper is zero for
    *every* common trend: both sides reduce to the same composite weights,
    so the two expectations are the same number. For proper mode ``fs``
    is optional; when given, the zero arises from the exact filter algebra
    rather than by fiat.

    Raises
    ------
    ValueError
        If a trend coefficient is non-finite or unparsable.
    DomainError
        If the exact bias lies beyond the float range.
    """
    poly = RatPoly(trend)
    if spec.mode == "proper" and fs is None:
        return 0.0
    a, b = _deterministic_sides(poly, spec.t0, _sides(spec, fs))
    return _to_float(
        a - b,
        f"expected {spec.mode} bias of {_show(int(spec.reference_period))}y against "
        f"{_show(int(spec.other_period))}y at {_show(int(spec.t0))}",
    )


# ---------------------------------------------------------------------------
# synthetic data


def synthetic_series(
    trend: TrendCoefficients,
    periods: Iterable[int],
    start_year: int,
    end_year: int,
    name: str = "synthetic",
    unit: str = "count",
) -> MyeSeries:
    """Noise-free series whose k-year values average a polynomial trend.

    For each requested period ``k`` and each end year in range, the value
    is the exact k-year mean of the trend, floated at the end. Useful for
    demonstrations and for checking that designed filters recover the
    trend itself.

    The 1y sub-series starts ``max(periods) - 1`` years early so every
    k-year value has a complete single-year window for diagnostics.

    Raises
    ------
    ValueError
        If a trend coefficient is non-finite or unparsable, or a period or
        year is not an integer.
    DomainError
        If a value lies beyond the float range; the message names its period
        and end year.
    """
    from .myeseries import MyeSeries

    poly = RatPoly(trend)
    ks = sorted({check_int(k, "periods", 1) for k in periods})
    if not ks:
        raise ValueError("periods must be nonempty")
    check_int(start_year, "start_year")
    check_int(end_year, "end_year")
    if end_year < start_year:
        raise ValueError(f"end_year {_show(int(end_year))} precedes "
                         f"start_year {_show(int(start_year))}")
    pad = max(ks) - 1
    obs: dict[tuple[int, int], float] = {}
    for k in sorted({1, *ks}):
        w = sma(k)
        what = f"{name}: the {_show(int(k))}y value ending "
        for t in range(start_year - (pad if k == 1 else 0), end_year + 1):
            obs[(k, t)] = _to_float(_weighted_trend(poly, w, t), what + _show(t))
    return MyeSeries(name, unit, obs)
