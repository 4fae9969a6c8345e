"""Seeded Monte Carlo of comparison bias under a polynomial trend.

:func:`simulate_bias` draws noise around the exact noise-free values of a
comparison's two sides (:func:`myetrends.analysis.expected_bias` gives the
same values analytically) and reports the empirical bias and the variance of
each side. :class:`SimulationSpec` fixes an experiment and its seed,
:class:`SimulationSummary` holds its results.

This is the only module that uses NumPy and SciPy, and it imports them when
a simulation runs. It builds on :mod:`myetrends.analysis`, never the
reverse, and the package loads it only when one of its three public names is
first read, so the other analyses never load it.
"""

from __future__ import annotations

import math
import os

from .analysis import ComparisonSpec, _deterministic_sides, _sides
from .exceptions import Record, _set, _show, _to_float, check_int
from .ratpoly import RatPoly, coefficients

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Iterable, Mapping, Optional, Union

    import numpy as np

    from .filterdesign import FilterSet
    from .ratpoly import CoefficientLike

__all__ = ["SimulationSpec", "SimulationSummary", "simulate_bias"]


class SimulationSpec(Record):
    """A reproducible bias experiment.

    Synthetic data follow ``Y(k, t) = (k-year average of trend at t) +
    noise``, with independent mean-zero noise scaled by ``noise_sd[k]``
    (periods absent from the map are noise-free). Both regions share the
    trend, so any systematic ``value_a - value_b`` is comparison bias.

    The noise model is the independent one: every ``(period, end year)``
    value draws its own noise, uncorrelated with every other value's. ACS
    k-year estimates ending in neighbouring years share k - 1 years of
    sample, so their errors are correlated, which this model leaves out.
    Each side's variance is ``noise_sd[k]**2`` times the
    :func:`~myetrends.filterdesign.variance_inflation` of its weights.

    ``seed`` fixes the stream completely: replicate ``r`` draws from a
    counter-derived substream at offset ``r``, so results do not depend on
    batch sizes or execution order.

    ``trend`` may be given as any coefficients :class:`RatPoly` accepts and
    is stored as a tuple of fractions; ``noise_sd`` may be a map or pairs and
    is stored as ``(period, sd)`` pairs sorted by period, so a spec is
    immutable and hashable. ``mode``, ``t0`` and the two periods are
    validated, and a ``reference_period`` of ``None`` resolved, as the
    :class:`ComparisonSpec` that :meth:`comparison_spec` builds from them.
    """

    def __init__(
        self,
        trend: Iterable[CoefficientLike],
        noise_sd: Union[Mapping[int, float], Iterable[tuple[int, float]]],
        mode: str,
        t0: int,
        replicates: int,
        seed: int,
        reference_period: Optional[int] = None,
        other_period: int = 3,
    ) -> None:
        _set(self, "trend", tuple(coefficients(trend)))
        sds = {}
        for k, sd in dict(noise_sd).items():
            check_int(k, "noise period", 1)
            try:
                sd = float(sd)
            except (TypeError, ValueError):
                raise ValueError(f"noise sd for period {k} must be a number, got {sd!r}") from None
            except OverflowError:
                raise ValueError(f"noise sd for period {k} is beyond the float range") from None
            if not math.isfinite(sd) or sd < 0:
                raise ValueError(f"noise sd for period {k} must be >= 0 and finite, got {sd}")
            sds[k] = sd
        _set(self, "noise_sd", tuple(sorted(sds.items())))
        cspec = ComparisonSpec(mode, t0, reference_period, other_period)
        _set(self, "mode", mode)
        _set(self, "t0", t0)
        _set(self, "replicates", replicates)
        _set(self, "seed", seed)
        _set(self, "reference_period", cspec.reference_period)
        _set(self, "other_period", other_period)
        check_int(self.replicates, "replicates", 1)
        if check_int(self.seed, "seed", 0) >= 2**64:
            raise ValueError(f"seed must be an integer < 2**64, got {_show(self.seed)}")

    def comparison_spec(self) -> ComparisonSpec:
        """The comparison this experiment simulates."""
        return ComparisonSpec(self.mode, self.t0, self.reference_period, self.other_period)


class SimulationSummary(Record):
    """Empirical results of a bias experiment."""

    def __init__(self, mode: str, replicates: int, seed: int, bias: float, std_error: float,
                 mean_a: float, mean_b: float, var_a: float, var_b: float) -> None:
        _set(self, "mode", mode)
        _set(self, "replicates", replicates)
        _set(self, "seed", seed)
        _set(self, "bias", bias)
        _set(self, "std_error", std_error)
        _set(self, "mean_a", mean_a)
        _set(self, "mean_b", mean_b)
        _set(self, "var_a", var_a)
        _set(self, "var_b", var_b)

    def to_dict(self) -> dict:
        return dict(vars(self))


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

    ``quantile`` maps uniforms in (0, 1] to draws of a mean-zero,
    unit-scale distribution (inverse CDF); the default is standard normal.
    A word's top 53 bits ``w`` give ``(w + 0.5) / 2**53``, which rounds to
    exactly 1.0 for the top word (``w = 2**53 - 1``, a chance of ``2**-53``
    per draw), where the default quantile draws +inf.
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
    a, b, at = _show(int(ka)), _show(int(kb)), _show(int(t0))
    det_a_f = _to_float(det_a, f"region A's noise-free {a}y value at {at}")
    det_b_f = _to_float(det_b, f"region B's noise-free {b}y value at {at}")
    det_diff_f = _to_float(
        det_a - det_b, f"the difference of the noise-free {a}y and {b}y values at {at}"
    )

    sds = dict(spec.noise_sd)
    sd_a, sd_b = sds.get(ka, 0.0), sds.get(kb, 0.0)
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
            # the squared sums overflowed, where the difference below may read
            # inf - inf
            return math.inf
        # with ss finite, (s / total) ** 2 <= ss / total (Cauchy-Schwarz), at
        # most half the float maximum, so ** cannot overflow
        v = (ss - total * (s / total) ** 2) / (total - 1)
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
