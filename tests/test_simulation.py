"""Monte Carlo bias simulation: reproducibility, exactness, and statistics."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.special import ndtri

from myetrends.analysis import (
    ComparisonSpec,
    SimulationSpec,
    SimulationSummary,
    expected_bias,
    simulate_bias,
)
from myetrends.filterdesign import DesignSpec, design_filters
from myetrends.ratpoly import RatPoly

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
        assert widths == [(1 << 16, 8), (70_000 - (1 << 16), 8)]

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
