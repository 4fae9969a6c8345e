"""Monte Carlo bias simulation: reproducibility, exactness, and statistics."""

import concurrent.futures
import math
import os
import re
import sys
import threading
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.special import ndtri

from myetrends.analysis import ComparisonSpec, expected_bias
from myetrends.exceptions import DomainError
from myetrends.filterdesign import DesignSpec, design_filters
from myetrends.ratpoly import RatPoly
from myetrends.simulation import (
    _BATCH,
    _CHUNK,
    SimulationSpec,
    SimulationSummary,
    _gaussian_quantile,
    _side_noise,
    simulate_bias,
)

LINEAR = design_filters(DesignSpec((1, 3, 5), 1))
QUADRATIC = design_filters(DesignSpec((1, 3, 5), 2))


def make_spec(**over):
    base = dict(
        trend=(0, 1),
        noise_sd={1: 1.0, 3: 1.0},
        mode="inapt",
        t0=100,
        replicates=2000,
        seed=42,
        reference_period=1,
        other_period=3,
    )
    base.update(over)
    return SimulationSpec(**base)


class TestSpecValidation:
    def test_trend_coerced_to_fractions(self):
        spec = make_spec(trend=("1/3", 0.5, 2))
        assert spec.trend == (F(1, 3), F(1, 2), F(2))

    def test_negative_sd_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            make_spec(noise_sd={1: -0.1})

    @pytest.mark.parametrize("sd", [math.nan, math.inf, -math.inf])
    def test_non_finite_sd_rejected(self, sd):
        with pytest.raises(ValueError, match="finite"):
            make_spec(noise_sd={1: sd})

    @pytest.mark.parametrize("replicates", [1, 3])
    def test_nan_draws_are_not_reported_as_zero_variance(self, replicates):
        spec = make_spec(replicates=replicates)
        s = simulate_bias(spec, quantile=lambda u: np.full_like(u, np.nan))
        assert all(math.isnan(v) for v in (s.bias, s.std_error, s.var_a, s.var_b))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_huge_noise_returns_a_summary(self):
        # float ** raises on overflow where * gives inf
        spec = SimulationSpec((0, 1), {1: 1e200, 3: 1e200}, "inapt", 2010, 10, 1, 1, 3)
        assert isinstance(simulate_bias(spec), SimulationSummary)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowed_variances_are_infinite(self):
        # what `simulate --trend 0,1 --noise 1e200 --mode inapt --t0 2010
        # --replicates 10` runs: the squared noise sums overflow, and
        # inf - inf used to read NaN
        spec = SimulationSpec((0, 1), {1: 1e200, 3: 1e200}, "inapt", 2010, 10, 0, 1, 3)
        s = simulate_bias(spec)
        assert s.var_a == s.var_b == s.std_error == math.inf
        assert math.isfinite(s.mean_a) and math.isfinite(s.mean_b)

    @pytest.mark.parametrize("args, field, bits", [
        (((-4, 2), {1: 0.0006827959543858031, 3: 2.740005230098117, 5: 0.716306221723573},
          "inapt", 2010, 3, 2153398158, 1, 3), "var_b", "0x1.1fe7be8f9b01ep+0"),
        (((1, 0), {1: 0.1863882636950322, 3: 0.6740548335929393, 5: 0.35257274777545766},
          "inapt", 2010, 4, 913514179, 1, 3), "std_error", "0x1.21ab40f22d95fp-3"),
    ])
    def test_variance_squares_the_mean_with_pow(self, args, field, bits):
        # on these specs (s / total) ** 2 and the correctly rounded
        # (s / total) * (s / total) differ by an ulp; the summary keeps pow's
        assert getattr(simulate_bias(SimulationSpec(*args)), field).hex() == bits

    @pytest.mark.parametrize("field", ["t0", "reference_period", "other_period"])
    def test_non_integer_year_or_period_rejected(self, field):
        # 2010.7 and 1.9 were truncated to 2010 and 1
        bad = {"t0": 2010.7, "reference_period": 1.9, "other_period": 3.5}[field]
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            make_spec(**{field: bad})

    def test_seed_range(self):
        with pytest.raises(ValueError, match="seed"):
            make_spec(seed=-1)
        with pytest.raises(ValueError, match="seed"):
            make_spec(seed=2**64)
        assert make_spec(seed=0).seed == 0
        assert make_spec(seed=2**64 - 1).seed == 2**64 - 1

    def test_replicates_positive(self):
        for bad in (0, -5, 2.0, "10"):
            with pytest.raises(ValueError, match="replicates"):
                make_spec(replicates=bad)

    @pytest.mark.parametrize("field", ["replicates", "seed"])
    def test_bool_rejected(self, field):
        # True used to pass as 1, unlike every other integer field
        with pytest.raises(ValueError, match=f"{field} must be .*True"):
            make_spec(**{field: True})

    @pytest.mark.parametrize("key", ["a", "3", 0, -1, 1.5, True])
    def test_bad_noise_key_named(self, key):
        # "a" raised a bare int() error; 0 was accepted; 1.5 and True became 1
        with pytest.raises(ValueError, match=f"noise period must be an integer >= 1, got {key!r}"):
            make_spec(noise_sd={key: 1.0})

    def test_noise_sd_cannot_change_after_validation(self):
        # a stored dict took nan after the finite check and gave bias=nan
        spec = make_spec(noise_sd={1: 1.0, 3: 1.0})
        with pytest.raises(TypeError):
            spec.noise_sd[1] = math.nan
        assert spec.noise_sd == ((1, 1.0), (3, 1.0))

    def test_equal_specs_hash_equal_whatever_the_noise_order(self):
        a = make_spec(noise_sd={1: 1.0, 3: 2})
        b = make_spec(noise_sd={3: 2.0, 1: 1})
        assert a == b and hash(a) == hash(b)

    def test_stored_noise_sd_rebuilds_an_equal_spec(self):
        spec = make_spec(noise_sd={5: 0.5, 1: 1.0}, mode="proper", other_period=5)
        again = make_spec(noise_sd=spec.noise_sd, mode="proper", other_period=5)
        assert again == spec
        assert simulate_bias(again, LINEAR) == simulate_bias(spec, LINEAR)

    @pytest.mark.parametrize("sd", ["a", None, [1.0]])
    def test_non_numeric_sd_names_the_period(self, sd):
        # "a" raised a bare float() error that named no period
        with pytest.raises(ValueError, match=rf"noise sd for period 1 must be a number, got {re.escape(repr(sd))}"):
            SimulationSpec([1], {1: sd}, "inapt", 2010, 1, 0)

    @pytest.mark.parametrize("sd", [10**400, -(10**400)], ids=["1e400", "-1e400"])
    def test_sd_beyond_the_float_range_names_the_period(self, sd):
        # float() of such an int escaped as a bare OverflowError
        with pytest.raises(ValueError, match=r"^noise sd for period 1 is beyond the float range$"):
            SimulationSpec([0, 1], {1: sd}, "inapt", 2000, 10, 1)

    @pytest.mark.parametrize("trend", [(math.inf,), (0, math.nan)])
    def test_non_finite_trend_names_the_coefficient(self, trend):
        with pytest.raises(ValueError, match=f"coefficient {len(trend) - 1} must be a finite number"):
            make_spec(trend=trend)

    def test_mode_validation_delegated(self):
        with pytest.raises(ValueError, match="reference_period = 1"):
            make_spec(mode="inapt", reference_period=3)
        with pytest.raises(ValueError, match="same period"):
            make_spec(mode="untimely", reference_period=1, other_period=3)

    def test_comparison_spec_projection(self):
        cs = make_spec(t0=77).comparison_spec()
        assert cs == ComparisonSpec("inapt", 77, 1, 3)


class TestDeterminism:
    def test_bitwise_repeatable(self):
        spec = make_spec(replicates=5000, seed=987654321)
        a = simulate_bias(spec)
        b = simulate_bias(spec)
        assert a == b  # dataclass equality: every float identical

    def test_seed_changes_output(self):
        a = simulate_bias(make_spec(seed=1))
        b = simulate_bias(make_spec(seed=2))
        assert a.bias != b.bias

    def test_extreme_seeds_run(self):
        for seed in (0, 2**64 - 1):
            simulate_bias(make_spec(seed=seed, replicates=100))

    def test_summary_records_inputs(self):
        s = simulate_bias(make_spec(replicates=123, seed=9))
        assert (s.mode, s.replicates, s.seed) == ("inapt", 123, 9)


class TestPhiloxSubstreams:
    def test_counter_blocks_are_contiguous(self):
        # the per-replicate substream layout relies on counter increments
        # advancing the same stream that a longer single draw would produce
        whole = np.random.Philox(key=7, counter=0).random_raw(8)
        first = np.random.Philox(key=7, counter=0).random_raw(4)
        second = np.random.Philox(key=7, counter=1).random_raw(4)
        assert np.array_equal(whole, np.concatenate([first, second]))


class TestZeroNoiseExactness:
    CASES = [
        ("inapt", 1, 3, (0, 1), None),
        ("inapt", 1, 5, (0, 1), None),
        ("inapt", 1, 3, (2, -3, F(1, 7)), None),
        ("untimely", 3, 3, (0, 1), None),
        ("untimely", 5, 5, (1, 2, 3), None),
        ("proper", 1, 3, (0, 1), LINEAR),
        ("proper", 1, 5, (1, 2, 3), QUADRATIC),
        ("proper", 1, 3, (1, -2, 3, 4), LINEAR),
    ]

    @pytest.mark.parametrize("mode,ref,other,trend,fs", CASES)
    def test_matches_analytic_bias_exactly(self, mode, ref, other, trend, fs):
        spec = make_spec(
            mode=mode, reference_period=ref, other_period=other,
            trend=trend, noise_sd={}, replicates=10,
        )
        got = simulate_bias(spec, fs)
        want = expected_bias(trend, spec.comparison_spec(), fs)
        assert got.bias == want
        assert got.std_error == 0.0
        assert got.var_a == 0.0 and got.var_b == 0.0

    def test_slope_one_five_year_bias_is_two(self):
        spec = make_spec(mode="inapt", other_period=5, trend=(0, 1), noise_sd={})
        assert simulate_bias(spec).bias == 2.0

    def test_zero_noise_means_are_the_deterministic_sides(self):
        spec = make_spec(trend=(0, 1), t0=10, noise_sd={}, replicates=3)
        s = simulate_bias(spec)
        assert s.mean_a == 10.0   # trend value at t0
        assert s.mean_b == 9.0    # 3-window mean of a slope-1 line at t0
        assert s.bias == 1.0

    @pytest.mark.parametrize("trend,mode,ref,other,side", [
        (("1e400", 1), "inapt", 1, 3, "region A's noise-free 1y value at 2010"),
        # region A's 1y value at 2010 is 1e308, region B's 3y value 2e308
        (("2011e308", "-1e308"), "inapt", 1, 3, "region B's noise-free 3y value at 2010"),
        # both sides finite (1e308 and -1e308), their difference not
        (("-2009e308", "1e308"), "inapt", 1, 5, "the difference of the noise-free 1y and 5y"),
    ])
    def test_value_beyond_the_float_range_names_the_side(self, trend, mode, ref, other, side):
        spec = make_spec(mode=mode, trend=trend, t0=2010, reference_period=ref,
                         other_period=other, replicates=10)
        with pytest.raises(DomainError, match=f"^{side}.* is beyond the float range$"):
            simulate_bias(spec)

    def test_explicit_zero_sd_same_as_absent(self):
        a = simulate_bias(make_spec(noise_sd={}, replicates=50))
        b = simulate_bias(make_spec(noise_sd={1: 0.0, 3: 0.0}, replicates=50))
        assert a == b


class TestBatchBoundaries:
    @pytest.mark.parametrize("n", [(1 << 16) - 1, 1 << 16, (1 << 16) + 37])
    def test_replicate_counts_straddling_batch_size(self, n):
        spec = make_spec(replicates=n, seed=5)
        a = simulate_bias(spec)
        b = simulate_bias(spec)
        assert a == b
        assert a.replicates == n

    def test_single_replicate(self):
        s = simulate_bias(make_spec(replicates=1))
        assert s.std_error == 0.0 and s.var_a == 0.0


class TestQuantilePluggability:
    def test_degenerate_quantile_recovers_analytic_bias(self):
        spec = make_spec(trend=(0, 1), replicates=200)
        got = simulate_bias(spec, quantile=np.zeros_like)
        assert got.bias == expected_bias((0, 1), spec.comparison_spec())
        assert got.var_a == 0.0 and got.var_b == 0.0

    def test_symmetric_uniform_quantile(self):
        # u -> 2u - 1 is mean-zero with variance 1/3
        spec = make_spec(
            mode="untimely", reference_period=3, other_period=3,
            noise_sd={3: 1.0}, replicates=60_000, seed=11,
        )
        got = simulate_bias(spec, quantile=lambda u: 2.0 * u - 1.0)
        assert got.var_a == pytest.approx(1 / 3, rel=0.03)
        assert got.bias == pytest.approx(0.0, abs=5 * got.std_error)


class TestQuantileInput:
    """``quantile`` sees only the columns of sides whose noise sd is nonzero."""

    @staticmethod
    def counting():
        widths = []

        def quantile(u):
            widths.append(u.shape)
            return ndtri(u)

        return widths, quantile

    @pytest.mark.parametrize("noise", [{}, {1: 0.0, 3: -0.0, 5: 1.0}])
    def test_zero_noise_never_calls_it(self, noise):
        widths, quantile = self.counting()
        spec = make_spec(noise_sd=noise, replicates=70_000)
        assert simulate_bias(spec, quantile=quantile) == simulate_bias(spec)
        assert widths == []

    def test_one_noisy_side_passes_its_columns_only(self):
        # psi[1] of the linear {1,3,5} family has 8 weights and psi[5] has 4:
        # each replicate owns 12 words, of which the 1y side maps 8
        assert (len(LINEAR.psi[1].coeffs), len(LINEAR.psi[5].coeffs)) == (8, 4)
        widths, quantile = self.counting()
        spec = make_spec(mode="proper", other_period=5, noise_sd={1: 2.0},
                         replicates=70_000, seed=3)
        assert simulate_bias(spec, LINEAR, quantile=quantile) == simulate_bias(spec, LINEAR)
        # row blocks may split the replicates any way, in any order
        assert {cols for _, cols in widths} == {8}
        assert sum(rows for rows, _ in widths) == 70_000

    @pytest.mark.parametrize("noise,silent", [({1: 1.0}, "b"), ({5: 1.0}, "a")])
    @pytest.mark.parametrize("nan", [False, True])
    def test_silent_side_is_exact(self, noise, silent, nan):
        # inapt 1 vs 5: side a is the trend at t0, side b its 5-year mean
        trend = RatPoly((F(1, 3), F(2, 7), F(-1, 11)))
        det = {"a": trend.evaluate(2010), "b": sum(trend.evaluate(2010 - j) for j in range(5)) / 5}
        spec = make_spec(trend=trend.coeffs, mode="inapt", other_period=5, t0=2010,
                         noise_sd=noise, replicates=1000)
        quantile = (lambda u: np.full_like(u, np.nan)) if nan else ndtri
        s = simulate_bias(spec, quantile=quantile)
        assert getattr(s, f"var_{silent}").hex() == (0.0).hex()  # +0.0, not -0.0
        assert getattr(s, f"mean_{silent}") == float(det[silent])
        noisy = "a" if silent == "b" else "b"
        assert math.isnan(getattr(s, f"var_{noisy}")) == nan


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the top Philox word maps to u = 1.0, where ndtri is +inf "
                          "(ROADMAP Known defects)")
def test_top_word_draws_a_finite_value():
    # a word keeps its top 53 bits; (2**53 - 1) + 0.5 ties to even at 2**53
    words = np.array([[2**53 - 1]], dtype=np.uint64)
    out = np.empty(1)
    _side_noise(words, np.ones(1), 1.0, out, _gaussian_quantile)
    assert np.isfinite(out[0])


class TestRowBlocks:
    def test_block_products_equal_the_whole_batch_product(self):
        # BLAS gemv may take another kernel for a call's last rows when its
        # row count is not a multiple of 4, which changes their rounding;
        # blocks of a multiple of 4 rows give every row the same bits as one
        # product over the whole batch, so the batch sums keep theirs
        assert _BATCH % _CHUNK == 0 and _CHUNK % 4 == 0
        rng = np.random.default_rng(9)
        for width in (1, 3, 8, 9, 19, 34):
            u = ndtri(rng.random((_BATCH, width)))
            w = rng.standard_normal(width)
            blocks = np.concatenate([u[r:r + _CHUNK] @ w for r in range(0, _BATCH, _CHUNK)])
            assert blocks.tobytes() == (u @ w).tobytes()


class TestWorkerCount:
    """Batches run on one worker per usable CPU, and no count changes a bit."""

    # four batches, the last of 3 rows; noise on both sides of 8 + 4 weights
    SPEC = make_spec(mode="proper", other_period=5, noise_sd={1: 1.0, 5: 2.0},
                     replicates=3 * (1 << 16) + 3, seed=17)

    @staticmethod
    def pools(monkeypatch) -> list:
        """Record the worker count of each pool that ``simulate_bias`` starts."""
        sizes = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        return sizes

    def test_summary_is_identical_for_any_cpu_count(self, monkeypatch):
        sizes = self.pools(monkeypatch)
        got = {}
        for cpus in (1, 2, 64):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                                raising=False)
            got[cpus] = simulate_bias(self.SPEC, LINEAR)
        assert got[1] == got[2] == got[64]
        assert sizes == [2, 4]  # capped at the batch count

    def test_cpu_count_without_affinity(self, monkeypatch):
        sizes = self.pools(monkeypatch)
        want = simulate_bias(self.SPEC, LINEAR)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert simulate_bias(self.SPEC, LINEAR) == want
        assert sizes[-1] == 3

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        # nine batches of a 4-word spec on nine workers, switching threads
        # every microsecond: a lost or reordered partial sum changes a bit
        spec = make_spec(noise_sd={1: 1.0, 3: 0.5}, replicates=8 * (1 << 16) + 5, seed=21)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        want = simulate_bias(spec)
        sizes = self.pools(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        rows = []

        def quantile(u):
            rows.append(len(u))
            return ndtri(u)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = simulate_bias(spec, quantile=quantile)
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        assert sizes == [9]
        assert sum(rows) == 2 * spec.replicates  # one call per side and block

    @pytest.mark.parametrize("cpus,replicates", [(1, 3 * (1 << 16) + 3), (64, 1 << 16)])
    def test_one_cpu_or_one_batch_starts_no_pool(self, monkeypatch, cpus, replicates):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        threads = set()

        def quantile(u):
            threads.add(threading.get_ident())
            return ndtri(u)

        spec = make_spec(noise_sd={1: 1.0, 3: 1.0}, replicates=replicates, seed=8)
        assert simulate_bias(spec, quantile=quantile) == simulate_bias(spec)
        assert threads == {threading.get_ident()}


class TestGaussianStatistics:
    def test_bias_within_monte_carlo_error(self):
        spec = make_spec(trend=(0, F(3, 2)), replicates=40_000, seed=2024)
        got = simulate_bias(spec)
        want = expected_bias(spec.trend, spec.comparison_spec())
        assert abs(got.bias - want) <= 4 * got.std_error
        assert got.std_error > 0

    def test_std_error_scales_inverse_sqrt(self):
        small = simulate_bias(make_spec(replicates=4_000, seed=3))
        large = simulate_bias(make_spec(replicates=16_000, seed=3))
        assert large.std_error / small.std_error == pytest.approx(0.5, rel=0.15)

    def test_unit_noise_side_variances(self):
        # raw-estimate sides have unit variance under sd = 1
        got = simulate_bias(make_spec(replicates=50_000, seed=8))
        assert got.var_a == pytest.approx(1.0, rel=0.04)
        assert got.var_b == pytest.approx(1.0, rel=0.04)

    def test_proper_mode_variance_inflation(self):
        # composite 3y filter inflates unit noise by 29/25 = 1.16
        spec = make_spec(
            mode="proper", noise_sd={3: 1.0}, replicates=50_000, seed=31,
        )
        got = simulate_bias(spec, LINEAR)
        assert got.var_b == pytest.approx(29 / 25, rel=0.04)
        assert got.var_a == 0.0  # no noise requested on the 1y side

    def test_proper_mode_shorter_side_deflation(self):
        # the 1y composite filter has inflation 109/225 < 1
        spec = make_spec(
            mode="proper", noise_sd={1: 1.0}, replicates=50_000, seed=32,
        )
        got = simulate_bias(spec, LINEAR)
        assert got.var_a == pytest.approx(109 / 225, rel=0.04)

    def test_noise_on_unused_period_ignored(self):
        a = simulate_bias(make_spec(noise_sd={1: 1.0, 3: 1.0}, seed=6))
        b = simulate_bias(make_spec(noise_sd={1: 1.0, 3: 1.0, 5: 9.0}, seed=6))
        assert a == b


class TestProperModeRequirements:
    def test_filter_set_required(self):
        with pytest.raises(ValueError, match="filter set"):
            simulate_bias(make_spec(mode="proper"))

    def test_period_must_be_designed(self):
        spec = make_spec(mode="proper", other_period=7)
        with pytest.raises(ValueError, match="no period 7"):
            simulate_bias(spec, LINEAR)


class TestSummarySerialization:
    def test_to_dict_fields(self):
        d = simulate_bias(make_spec(replicates=10)).to_dict()
        assert set(d) == {
            "mode", "replicates", "seed", "bias", "std_error",
            "mean_a", "mean_b", "var_a", "var_b",
        }
        assert isinstance(d["bias"], float)
