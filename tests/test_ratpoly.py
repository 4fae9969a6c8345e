"""Exact polynomial algebra: frozen values and algebraic properties."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myetrends.ratpoly import ONE, ZERO, RatPoly, sma


def fractions(max_num=50, max_den=12):
    nums = st.integers(min_value=-max_num, max_value=max_num)
    dens = st.integers(min_value=1, max_value=max_den)
    return st.builds(F, nums, dens)


def polys(max_len=7):
    return st.builds(RatPoly, st.lists(fractions(), max_size=max_len))


class TestConstruction:
    def test_trailing_zeros_trimmed(self):
        assert RatPoly([1, 2, 0, 0]).coeffs == (F(1), F(2))

    def test_zero_poly_degree(self):
        assert ZERO.degree == -1
        assert RatPoly([0, 0]).degree == -1
        assert not RatPoly([0])

    def test_string_coefficients(self):
        assert RatPoly(["4/3", "-1/3"]).coeffs == (F(4, 3), F(-1, 3))

    def test_coeff_out_of_range_is_zero(self):
        p = RatPoly([1, 2])
        assert p.coeff(5) == 0
        assert p.coeff(1) == 2


class TestSma:
    def test_identity(self):
        assert sma(1) == ONE

    def test_three(self):
        assert sma(3).coeffs == (F(1, 3), F(1, 3), F(1, 3))

    @pytest.mark.parametrize("k", range(1, 21))
    def test_weights_sum_to_one(self, k):
        assert sma(k).evaluate(1) == 1

    @pytest.mark.parametrize("bad", [0, -2, 2.0, "3", None, True])
    def test_rejects_bad_lengths(self, bad):
        with pytest.raises(ValueError):
            sma(bad)


class TestArithmetic:
    def test_product_of_averages(self):
        prod = sma(3) * sma(5)
        assert prod.coeffs == tuple(F(c, 15) for c in (1, 2, 3, 3, 3, 2, 1))

    def test_known_filter_product(self):
        phi = RatPoly([4, -3])
        assert (phi * sma(3)).coeffs == (F(4, 3), F(1, 3), F(1, 3), F(-1, 1))

    def test_mul_identity_and_zero(self):
        p = RatPoly([2, -1, 5])
        assert p * ONE == p
        assert p * ZERO == ZERO
        assert ZERO * p == ZERO

    def test_scalar_mul(self):
        assert RatPoly([1, 2]) * 3 == RatPoly([3, 6])
        assert F(1, 2) * RatPoly([2, 4]) == RatPoly([1, 2])

    def test_add_sub(self):
        a, b = RatPoly([1, 2]), RatPoly([0, -2, 7])
        assert a + b == RatPoly([1, 0, 7])
        assert (a + b) - b == a

    def test_degree_of_product(self):
        assert (sma(3) * sma(5)).degree == 6

    def test_shift(self):
        assert RatPoly([1, 2]).shift(2) == RatPoly([0, 0, 1, 2])
        assert ZERO.shift(3) == ZERO
        with pytest.raises(ValueError):
            RatPoly([1]).shift(-1)

    @given(polys(), polys())
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(polys(max_len=5), polys(max_len=5), polys(max_len=5))
    @settings(max_examples=60)
    def test_mul_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(polys(max_len=5), polys(max_len=5), polys(max_len=5))
    @settings(max_examples=60)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys(), polys())
    def test_coefficients_stay_canonical(self, a, b):
        # Fraction reduces automatically; confirm products keep gcd 1 and
        # positive denominators, which the serialization format relies on.
        for c in (a * b).coeffs:
            assert c.denominator > 0
            assert math.gcd(abs(c.numerator), c.denominator) == 1


class TestEvaluationAndDerivatives:
    def test_evaluate_exact(self):
        p = RatPoly([1, -2, 3])
        assert p.evaluate(F(1, 2)) == F(3, 4)

    def test_derivative_order_zero_is_weight_sum(self):
        p = RatPoly(["1/3", "1/3", "1/3", "-1"])
        assert p.derivative_at_one(0) == 0

    def test_first_derivative_known(self):
        # d/dz of (1 + z + z^2)/3 at 1 is (0 + 1 + 2)/3.
        assert sma(3).derivative_at_one(1) == 1

    def test_second_derivative_known(self):
        prod = sma(3) * sma(5)
        # sum of c_j * j * (j-1) over (1,2,3,3,3,2,1)/15.
        expected = F(sum(c * j * (j - 1) for j, c in enumerate((1, 2, 3, 3, 3, 2, 1))), 15)
        assert prod.derivative_at_one(2) == expected == F(26, 3)

    def test_shifted_derivative(self):
        theta = sma(3) * sma(5)
        # shifting multiplies by z, so order-1 derivatives at 1 differ by
        # exactly the weight sum (product rule).
        assert theta.shift(1).derivative_at_one(1) == theta.derivative_at_one(1) + 1

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            ONE.derivative_at_one(-1)

    @given(polys(max_len=6), polys(max_len=6), st.integers(min_value=0, max_value=4))
    @settings(max_examples=80)
    def test_leibniz_rule_at_one(self, a, b, n):
        lhs = (a * b).derivative_at_one(n)
        rhs = sum(
            math.comb(n, i) * a.derivative_at_one(i) * b.derivative_at_one(n - i)
            for i in range(n + 1)
        )
        assert lhs == rhs


class TestRendering:
    @pytest.mark.parametrize(
        "coeffs,text",
        [
            ((), "0"),
            ((1,), "1"),
            ((F(4, 3), F(1, 3), F(1, 3), -1), "(4 + z + z^2 - 3z^3)/3"),
            ((4, -3), "4 - 3z"),
            ((-1, 1), "-1 + z"),
            ((0, F(1, 2)), "z/2"),
            ((F(1, 3), F(1, 3), F(1, 3)), "(1 + z + z^2)/3"),
        ],
    )
    def test_str(self, coeffs, text):
        assert str(RatPoly(coeffs)) == text

    def test_repr_round_trips(self):
        p = RatPoly([F(4, 3), -1])
        assert eval(repr(p), {"RatPoly": RatPoly, "Fraction": F}) == p

    def test_as_floats(self):
        assert RatPoly([F(1, 2), 3]).as_floats() == (0.5, 3.0)

    def test_as_floats_computed_once(self):
        p = RatPoly([F(1, 3), F(-2, 7)])
        assert p.as_floats() is p.as_floats()
        assert p.as_floats() == (float(F(1, 3)), float(F(-2, 7)))
