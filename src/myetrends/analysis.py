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
estimate against the k-year average of single-year estimates, its summary
``C`` (the max absolute NSR over time), analytic expected comparison bias
under a polynomial trend, and a seeded Monte Carlo that measures bias and
noise inflation empirically.

Only the Monte Carlo (:func:`simulate_bias`) uses NumPy and SciPy, and it
imports them when it runs, so everything else here loads without them.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence, Union

from .exceptions import DomainError, MissingDataError
from .filterdesign import DesignSpec, FilterSet
from .myeseries import IMPUTED, MyeSeries, RegionPair, _base_mean, render_value, sma_of_base
from .ratpoly import ONE, RatPoly, coefficients, sma

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MODES",
    "TrendEstimates",
    "CompatibilityEntry",
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
]

MODES = ("inapt", "untimely", "proper")

TrendCoefficients = Sequence[Union[int, str, float, Fraction]]


# ---------------------------------------------------------------------------
# filter application and trend estimates


def apply_filter(weights: RatPoly, series: MyeSeries, period: int, t: int) -> float:
    """Weighted average of ``series``' ``period``-length values ending at ``t``.

    The coefficient on ``z**j`` weights the observation ending ``j`` years
    before ``t``. Weights are floated once and the dot product is summed
    exactly (``math.fsum``) before the final rounding.

    Raises
    ------
    MissingDataError
        Listing every absent ``(period, year)`` the window needs.
    DomainError
        If the weighted sum leaves the float range.
    """
    ws = weights.as_floats()
    found = series.window(period, t, len(ws))
    if found is None:
        missing = [(period, t - j) for j in range(len(ws)) if (period, t - j) not in series]
        raise MissingDataError(
            f"{series.name}: filter window needs missing observations {missing}"
        )
    try:
        # the window is oldest first and w_j weights the value j years before t
        total = math.fsum(map(mul, ws, reversed(found[0])))
    except (OverflowError, ValueError):  # a partial sum past the float range, or inf - inf
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(f"{series.name}: {period}y filter ending {t} overflows the float range")
    return total


@dataclass(frozen=True)
class TrendEstimates:
    """Filtered trend values for one end year, one value per period."""

    at: int
    values: dict[int, float]
    design: DesignSpec

    def to_dict(self) -> dict:
        return {
            "at": self.at,
            "periods": list(self.design.periods),
            "degree": self.design.degree,
            "values": {str(k): v for k, v in sorted(self.values.items())},
        }


def trend_estimates(
    series: MyeSeries,
    fs: FilterSet,
    t0: int,
    periods: Optional[Iterable[int]] = None,
) -> TrendEstimates:
    """Apply each period's filter to its own sub-series, all ending at ``t0``.

    By the design identity, every period's result estimates the same
    present-day trend value, so the returned values are directly
    comparable. ``periods`` restricts to a subset of the family (default:
    every period in the design).
    """
    ks = tuple(periods) if periods is not None else fs.spec.periods
    for k in ks:
        if k not in fs.psi:
            raise ValueError(f"filter set {fs.spec} has no period {k}")
    values = {k: apply_filter(fs.psi[k], series, k, t0) for k in ks}
    return TrendEstimates(at=t0, values=values, design=fs.spec)


# ---------------------------------------------------------------------------
# NSR and compatibility


def _log_for_base(log_base) -> Callable[[float], float]:
    if log_base in (10, "10"):
        return math.log10
    if log_base in ("e", math.e):
        return math.log
    raise ValueError(f"log_base must be 10 or 'e', got {log_base!r}")


def _check_period(k, label: str = "period") -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"{label} must be an integer >= 1, got {k!r}")


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
        If ``period`` is not an integer >= 1.
    """
    log = _log_for_base(log_base)
    _check_period(period)
    y = series.value(period, t)
    return _log_ratio(series.name, period, t, y, sma_of_base(series, period, t), log)


def _log_ratio(name: str, period: int, t: int, y: float, base_mean: float,
               log: Callable[[float], float]) -> float:
    """``log(y) - log(base_mean)``, once both are known to be positive."""
    if y <= 0:
        raise DomainError(f"{name}: {period}y value ending {t} is {y}, not positive")
    if base_mean <= 0:
        raise DomainError(f"{name}: 1y window mean ending {t} is {base_mean}, not positive")
    return log(y) - log(base_mean)


@dataclass(frozen=True)
class CompatibilityEntry:
    """NSR by end year for one period, and the max absolute value."""

    nsr: dict[int, float]
    c: float


@dataclass(frozen=True)
class CompatibilityReport:
    """Cross-period compatibility diagnostics for one series."""

    series: str
    log_base: str
    include_imputed: bool
    entries: dict[int, CompatibilityEntry]

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

    Raises
    ------
    MissingDataError
        If a requested period has no usable end years.
    ValueError
        If a period is not an integer >= 1.
    """
    log = _log_for_base(log_base)
    ks = list(periods)
    for k in ks:
        _check_period(k)
    name = series.name
    entries: dict[int, CompatibilityEntry] = {}
    for k in sorted(set(ks)):
        table: dict[int, float] = {}
        for t, y, prov in series.column(k):
            base = series.window(1, t, k)
            if base is None:
                continue
            xs, provs = base
            if not include_imputed and (prov == IMPUTED or IMPUTED in provs):
                continue
            table[t] = _log_ratio(name, k, t, y, _base_mean(name, xs, k, t), log)
        if not table:
            raise MissingDataError(
                f"{series.name}: no end year has both a {k}y value and "
                f"a complete 1y window"
            )
        entries[k] = CompatibilityEntry(
            nsr=table, c=max(abs(v) for v in table.values())
        )
    return CompatibilityReport(
        series=series.name,
        log_base="e" if log_base in ("e", math.e) else "10",
        include_imputed=include_imputed,
        entries=entries,
    )


# ---------------------------------------------------------------------------
# comparisons


@dataclass(frozen=True)
class ComparisonSpec:
    """What to compare: mode, end year, and the period for each side.

    ``reference_period`` belongs to region A (the denominator side),
    ``other_period`` to region B. Mode rules: inapt fixes the reference at
    1 and needs a longer other period; untimely needs both periods equal
    and above 1; proper accepts any pair present in the filter design.
    """

    mode: str
    t0: int
    reference_period: int = 1
    other_period: int = 3

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        _check_period(self.reference_period, "reference_period")
        _check_period(self.other_period, "other_period")
        if not isinstance(self.t0, int) or isinstance(self.t0, bool):
            raise ValueError(f"t0 must be an integer year, got {self.t0!r}")
        if self.mode == "inapt":
            if self.reference_period != 1:
                raise ValueError("inapt comparisons fix reference_period = 1")
            if self.other_period == 1:
                raise ValueError("inapt comparisons need other_period > 1")
        elif self.mode == "untimely":
            if self.reference_period != self.other_period:
                raise ValueError(
                    "untimely comparisons use the same period on both sides; "
                    f"got {self.reference_period} and {self.other_period}"
                )
            if self.other_period == 1:
                raise ValueError("untimely comparisons need periods > 1")


@dataclass(frozen=True)
class ComparisonResult:
    """Two compared values and their relative discrepancy ``b/a - 1``."""

    spec: ComparisonSpec
    value_a: float
    value_b: float
    discrepancy: float
    reference_period_used: int
    other_period_used: int

    def percent(self, decimals: int = 1) -> str:
        """Discrepancy as a percentage string, e.g. ``"-13.7"``."""
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
            raise ValueError(f"filter set {fs.spec} has no period {k}")
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
            f"reference value for {pair.a.name} at {t0} is zero; "
            "relative discrepancy is undefined"
        )
    discrepancy = vb / va - 1.0
    if not math.isfinite(discrepancy):
        raise DomainError(
            f"discrepancy of {vb!r} against {va!r} at {t0} is {discrepancy}, "
            "not a finite number"
        )
    return ComparisonResult(
        spec=spec,
        value_a=va,
        value_b=vb,
        discrepancy=discrepancy,
        reference_period_used=ka,
        other_period_used=kb,
    )


# ---------------------------------------------------------------------------
# expected bias under a polynomial trend


def _to_float(x: Fraction, what: str) -> float:
    """``float(x)``, or a :class:`DomainError` naming ``what`` when ``x`` lies
    beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        raise DomainError(f"{what} is beyond the float range") from None


def _weighted_trend(trend: RatPoly, weights: RatPoly, t: int) -> Fraction:
    """``sum_j weights_j * trend(t - j)``, exactly."""
    return sum((c * trend.evaluate(t - j) for j, c in enumerate(weights.coeffs)), Fraction(0))


def _deterministic_sides(
    trend: RatPoly, t0: int, sides: Iterable[tuple[int, RatPoly]]
) -> tuple[Fraction, Fraction]:
    """Noise-free values of the resolved ``sides`` under the trend at ``t0``,
    in exact arithmetic.

    A side weights the trend by its composite ``w * sma(k)``; in proper mode
    both composites are ``fs.common``, so the two sides are equal.
    """
    return tuple(_weighted_trend(trend, w * sma(k), t0) for k, w in sides)


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
        f"expected {spec.mode} bias of {spec.reference_period}y against "
        f"{spec.other_period}y at {spec.t0}",
    )


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass(frozen=True)
class SimulationSpec:
    """A reproducible bias experiment.

    Synthetic data follow ``Y(k, t) = (k-year average of trend at t) +
    noise``, with independent mean-zero noise scaled by ``noise_sd[k]``
    (periods absent from the map are noise-free). Both regions share the
    trend, so any systematic ``value_a - value_b`` is comparison bias.

    ``seed`` fixes the stream completely: replicate ``r`` draws from a
    counter-derived substream at offset ``r``, so results do not depend on
    batch sizes or execution order.

    ``trend`` may be given as any coefficients :class:`RatPoly` accepts and
    is stored as a tuple of fractions; ``noise_sd`` is stored as a new dict
    of floats. ``mode``, ``t0`` and the two periods are validated as the
    :class:`ComparisonSpec` that :meth:`comparison_spec` builds from them.
    """

    trend: tuple[Fraction, ...]
    noise_sd: dict[int, float]
    mode: str
    t0: int
    replicates: int
    seed: int
    reference_period: int = 1
    other_period: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "trend", tuple(coefficients(self.trend)))
        sds = {}
        for k, sd in dict(self.noise_sd).items():
            _check_period(k, "noise period")
            try:
                sd = float(sd)
            except (TypeError, ValueError):
                raise ValueError(f"noise sd for period {k} must be a number, got {sd!r}") from None
            if not math.isfinite(sd) or sd < 0:
                raise ValueError(f"noise sd for period {k} must be >= 0 and finite, got {sd}")
            sds[k] = sd
        object.__setattr__(self, "noise_sd", sds)
        self.comparison_spec()
        replicates, seed = self.replicates, self.seed
        if not isinstance(replicates, int) or isinstance(replicates, bool) or replicates < 1:
            raise ValueError(f"replicates must be a positive integer, got {replicates!r}")
        if not isinstance(seed, int) or isinstance(seed, bool) or not (0 <= seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")

    def comparison_spec(self) -> ComparisonSpec:
        """The comparison this experiment simulates."""
        return ComparisonSpec(self.mode, self.t0, self.reference_period, self.other_period)


@dataclass(frozen=True)
class SimulationSummary:
    """Empirical results of a bias experiment."""

    mode: str
    replicates: int
    seed: int
    bias: float
    std_error: float
    mean_a: float
    mean_b: float
    var_a: float
    var_b: float

    def to_dict(self) -> dict:
        return asdict(self)


# Replicates per generation batch. Fixed so that accumulation order, and
# therefore every output bit, is independent of the replicate count's size.
_BATCH = 1 << 16
# Rows per block within a batch, a divisor of _BATCH: each block's words,
# uniforms and draws stay cache-sized, and since every block but the run's
# last has a multiple of 4 rows, each row's weighted sum takes the same BLAS
# kernel path as it would in one whole-batch product.
_CHUNK = 1 << 13


def _gaussian_quantile(u: np.ndarray) -> np.ndarray:
    from scipy.special import ndtri

    return ndtri(u, out=u)


def _side_noise(
    words: np.ndarray,
    w: np.ndarray,
    sd: float,
    out: np.ndarray,
    quantile: Callable[[np.ndarray], np.ndarray],
) -> None:
    """One side's noise per replicate, from its columns of shifted words."""
    import numpy as np

    u = words + 0.5
    u *= 2.0**-53
    np.multiply(np.asarray(quantile(u), dtype=np.float64) @ w, sd, out=out)


def simulate_bias(
    spec: SimulationSpec,
    fs: Optional[FilterSet] = None,
    quantile: Callable[[np.ndarray], np.ndarray] = _gaussian_quantile,
) -> SimulationSummary:
    """Monte Carlo estimate of comparison bias under ``spec``.

    The deterministic (trend) part of each side is computed once in exact
    rational arithmetic; noise is simulated around it. With all noise
    standard deviations zero the reported bias therefore equals
    :func:`expected_bias` down to the last bit.

    ``quantile`` maps uniforms in (0, 1) to draws of a mean-zero,
    unit-scale distribution (inverse CDF); the default is standard normal.
    Each replicate owns a fixed run of Philox words, one per weight of
    either side, at a counter offset set by its index alone, so any two
    runs with the same spec agree byte for byte regardless of batching or
    parallel scheduling. Only a side whose noise sd is nonzero maps its
    words to uniforms and passes them through ``quantile``; a silent side
    contributes exact zeros and moves no other draw, and with both sides
    silent no words are generated at all.

    Replicates run in fixed batches of 65,536, each generated in blocks of
    8,192 rows. The batches run on a thread pool with one worker per CPU
    the process may use (at most one per batch), and their partial sums are
    added in batch order, so the worker count never changes a bit. So
    ``quantile`` may be called concurrently from worker threads, on row
    blocks, in no fixed order: it must be a thread-safe elementwise map.
    The default computes in place, in a buffer it owns.

    Returns
    -------
    SimulationSummary
        ``bias`` is the mean of ``value_a - value_b``; ``std_error`` its
        Monte Carlo standard error; ``var_a``/``var_b`` are the sample
        variances of the two sides (for checking noise inflation against
        the design's variance_inflation).

    Raises
    ------
    DomainError
        If a side's noise-free value, or their difference, lies beyond the
        float range.
    """
    import numpy as np

    t0 = spec.t0
    sides = _sides(spec.comparison_spec(), fs)
    (ka, pa), (kb, pb) = sides
    wa = np.array(pa.as_floats())
    wb = np.array(pb.as_floats())

    det_a, det_b = _deterministic_sides(RatPoly(spec.trend), t0, sides)
    det_a_f = _to_float(det_a, f"region A's noise-free {ka}y value at {t0}")
    det_b_f = _to_float(det_b, f"region B's noise-free {kb}y value at {t0}")
    det_diff_f = _to_float(
        det_a - det_b, f"the difference of the noise-free {ka}y and {kb}y values at {t0}"
    )

    sd_a = spec.noise_sd.get(ka, 0.0)
    sd_b = spec.noise_sd.get(kb, 0.0)
    n_a = len(wa)
    draws = n_a + len(wb)
    blocks_per_rep = max(1, -(-draws // 4))  # Philox emits 4 words per block
    total = spec.replicates

    def batch_sums(start: int) -> tuple[float, ...]:
        """The six sums over one batch, for the noise generated in its blocks."""
        m = min(_BATCH, total - start)
        noise_a = np.zeros(m)
        noise_b = np.zeros(m)
        for r0 in range(0, m, _CHUNK):
            rows = slice(r0, min(r0 + _CHUNK, m))
            bitgen = np.random.Philox(key=spec.seed, counter=(start + r0) * blocks_per_rep)
            words = bitgen.random_raw((rows.stop - r0) * blocks_per_rep * 4)
            words = words.reshape(-1, blocks_per_rep * 4)
            words >>= np.uint64(11)
            if sd_a:
                _side_noise(words[:, :n_a], wa, sd_a, noise_a[rows], quantile)
            if sd_b:
                _side_noise(words[:, n_a:draws], wb, sd_b, noise_b[rows], quantile)
        d = noise_a - noise_b
        return (
            float(d.sum()),
            float((d * d).sum()),
            float(noise_a.sum()),
            float((noise_a * noise_a).sum()),
            float(noise_b.sum()),
            float((noise_b * noise_b).sum()),
        )

    starts = range(0, total, _BATCH) if sd_a or sd_b else range(0)
    # the CPUs this process may run on: its affinity mask, where there is one
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(starts))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            partials = list(pool.map(batch_sums, starts))
    else:
        partials = map(batch_sums, starts)
    sums = [0.0] * 6
    for part in partials:  # in batch order
        sums = [s + p for s, p in zip(sums, part)]
    sum_d, sumsq_d, sum_a, sumsq_a, sum_b, sumsq_b = sums

    mean_d = sum_d / total
    bias = det_diff_f + mean_d

    def _sample_var(s: float, ss: float) -> float:
        if total < 2:
            return math.nan if math.isnan(s) or math.isnan(ss) else 0.0
        if ss == math.inf and not math.isnan(s):
            # the squared sums overflowed, where ss - total * sq reads inf - inf
            return math.inf
        try:
            sq = (s / total) ** 2
        except OverflowError:
            sq = math.inf
        v = (ss - total * sq) / (total - 1)
        # clamp round-off below zero as max(0.0, v) would, but keep a NaN
        return v if v > 0.0 or math.isnan(v) else 0.0

    var_d = _sample_var(sum_d, sumsq_d)
    return SimulationSummary(
        mode=spec.mode,
        replicates=total,
        seed=spec.seed,
        bias=bias,
        std_error=math.sqrt(var_d / total),
        mean_a=det_a_f + sum_a / total,
        mean_b=det_b_f + sum_b / total,
        var_a=_sample_var(sum_a, sumsq_a),
        var_b=_sample_var(sum_b, sumsq_b),
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
        If a trend coefficient is non-finite or unparsable.
    DomainError
        If a value lies beyond the float range; the message names its period
        and end year.
    """
    poly = RatPoly(trend)
    ks = sorted(set(periods))
    if not ks:
        raise ValueError("periods must be nonempty")
    if end_year < start_year:
        raise ValueError(f"end_year {end_year} precedes start_year {start_year}")
    pad = max(ks) - 1
    obs: dict[tuple[int, int], float] = {}
    for k in sorted({1, *ks}):
        w = sma(k)
        for t in range(start_year - (pad if k == 1 else 0), end_year + 1):
            obs[(k, t)] = _to_float(_weighted_trend(poly, w, t),
                                    f"{name}: the {k}y value ending {t}")
    return MyeSeries(name, unit, obs)
