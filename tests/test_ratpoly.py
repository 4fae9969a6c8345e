"""Exact polynomial algebra: frozen values and algebraic properties.

Results are also checked against a reference that does the same algebra one
``Fraction`` at a time, on coefficient tuples, and against the stored form's
invariants: integer numerators over one positive denominator coprime to
them, with no trailing zero numerator.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from myetrends.exceptions import DomainError
from myetrends.filterdesign import DesignSpec, design_filters, variance_inflation
from myetrends.ratpoly import ONE, ZERO, RatPoly, sma


def fractions(max_num=50, max_den=12):
    nums = st.integers(min_value=-max_num, max_value=max_num)
    dens = st.integers(min_value=1, max_value=max_den)
    return st.builds(F, nums, dens)


def polys(max_len=7):
    return st.builds(RatPoly, st.lists(fractions(), max_size=max_len))


def scalars():
    return st.one_of(st.integers(min_value=-30, max_value=30), fractions())


# the reference: the same algebra one Fraction at a time, on coefficient tuples


def ref_trim(cs):
    cs = [F(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = a + (F(0),) * (n - len(a)), b + (F(0),) * (n - len(b))
    return ref_trim(x + sign * y for x, y in zip(a, b))


def ref_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_evaluate(cs, x):
    acc = F(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def ref_derivatives_at_one(cs, order):
    """Derivatives of orders 0..order at z = 1, term by term: the r-th
    derivative of c_j z**j at 1 is c_j j!/(j - r)!."""
    return tuple(sum((c * math.perm(j, r) for j, c in enumerate(cs)), F(0))
                 for r in range(order + 1))


def ref_inverse_near_one(cs, degree):
    """The truncated series inverse about z = 1, from Taylor coefficients."""
    a = [(-1) ** i * sum((c * math.comb(j, i) for j, c in enumerate(cs)), F(0))
         for i in range(degree + 1)]
    b = [F(1)]
    for n in range(1, degree + 1):
        b.append(-sum(a[i] * b[n - i] for i in range(1, n + 1)))
    return ref_trim((-1) ** m * sum(math.comb(n, m) * b[n] for n in range(m, degree + 1))
                    for m in range(degree + 1))


def assert_canonical(p):
    """The stored form: numerators over a positive denominator coprime to
    them, no trailing zero, and the zero polynomial as ((), 1)."""
    nums, den = p._nums, p._den
    assert type(den) is int and den > 0
    assert all(type(n) is int for n in nums)
    assert math.gcd(den, *nums) == 1
    assert not nums or nums[-1] != 0
    assert p.degree == len(nums) - 1


class TestConstruction:
    def test_trailing_zeros_trimmed(self):
        assert RatPoly([1, 2, 0, 0]).coeffs == (F(1), F(2))

    def test_zero_poly_degree(self):
        assert ZERO.degree == -1
        assert RatPoly([0, 0]).degree == -1
        assert not RatPoly([0])

    def test_string_coefficients(self):
        assert RatPoly(["4/3", "-1/3"]).coeffs == (F(4, 3), F(-1, 3))

    @pytest.mark.parametrize("coeffs, index", [
        ([math.nan], 0), ([math.inf], 0), ([1, -math.inf], 1),
        (["1", "abc"], 1), (iter([0, 1, "1/0"]), 2),
    ])
    def test_bad_coefficient_names_its_index(self, coeffs, index):
        # Fraction's bare OverflowError or ValueError named no argument
        with pytest.raises(ValueError, match=f"coefficient {index} must be a finite number"):
            RatPoly(coeffs)


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


class TestAveraged:
    @given(polys(), st.lists(st.integers(min_value=1, max_value=9), max_size=4))
    @example(ZERO, [3, 1])
    @example(RatPoly([F(4, 3), F(-1, 3)]), [1])
    @example(RatPoly([F(1, 2), 0, F(-1, 6)]), [1, 3, 5])
    def test_matches_general_products(self, p, ks):
        got = p.averaged(*ks)
        assert got == p * math.prod((sma(k) for k in ks), start=ONE)
        assert_canonical(got)

    def test_no_periods_is_self(self):
        p = RatPoly([1, 2])
        assert p.averaged() is p

    def test_zero_stays_zero(self):
        assert ZERO.averaged(1, 3, 5) is ZERO

    def test_period_one_is_skipped(self):
        p = RatPoly([1, 2])
        assert p.averaged(1) is p
        assert p.averaged(1, 3, 1) == p.averaged(3)

    @pytest.mark.parametrize("bad", [0, -2, 2.0, "3", None, True])
    def test_rejects_bad_periods(self, bad):
        # checked as sma checks them, on the zero polynomial too
        for p in (ONE, ZERO):
            with pytest.raises(ValueError, match=f"^k must be an integer >= 1, got {bad!r}$"):
                p.averaged(3, bad)


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

    @given(polys(), polys(), scalars())
    def test_coefficients_stay_canonical(self, a, b, s):
        results = (a, b, a + b, a - b, a - a, a * b, a * s, s * a, a * 0)
        for p in results:
            assert_canonical(p)
            # coefficients are reduced Fractions, which the serialization
            # format relies on
            for c in p.coeffs:
                assert c.denominator > 0
                assert math.gcd(abs(c.numerator), c.denominator) == 1

    @given(polys(), polys(), scalars())
    def test_coefficients_match_the_fraction_reference(self, a, b, s):
        ca, cb = a.coeffs, b.coeffs
        assert (a + b).coeffs == ref_add(ca, cb)
        assert (a - b).coeffs == ref_add(ca, cb, -1)
        assert (a * b).coeffs == ref_mul(ca, cb)
        assert (a * s).coeffs == (s * a).coeffs == ref_trim(c * s for c in ca)

    @given(st.lists(fractions(), max_size=7))
    def test_construction_matches_the_fraction_reference(self, cs):
        p = RatPoly(cs)
        assert_canonical(p)
        assert p.coeffs == ref_trim(cs)

    @given(polys(), polys(), st.integers(min_value=1, max_value=9))
    def test_equal_polynomials_hash_equal(self, a, b, m):
        # the same polynomial reached by other routes, and from unreduced input
        same = ((a + b) - b, b + a - b, a * ONE, RatPoly(a.coeffs),
                RatPoly([F(c.numerator * m, c.denominator * m) for c in a.coeffs] + [0]))
        for p in same:
            assert p == a
            assert hash(p) == hash(a)


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
        assert (RatPoly([0, 1]) * theta).derivative_at_one(1) == theta.derivative_at_one(1) + 1

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            ONE.derivative_at_one(-1)

    @given(polys(), fractions(max_num=9, max_den=5), st.integers(min_value=0, max_value=5))
    def test_match_the_fraction_reference(self, p, x, order):
        assert p.evaluate(x) == ref_evaluate(p.coeffs, x)
        assert p.evaluate(3) == ref_evaluate(p.coeffs, F(3))
        want = sum((c * math.perm(j, order) for j, c in enumerate(p.coeffs)), F(0))
        assert p.derivative_at_one(order) == want
        assert p.squared_norm() == sum((c * c for c in p.coeffs), F(0))

    @given(polys(max_len=6), polys(max_len=6), st.integers(min_value=0, max_value=4))
    @settings(max_examples=80)
    def test_leibniz_rule_at_one(self, a, b, n):
        lhs = (a * b).derivative_at_one(n)
        rhs = sum(
            math.comb(n, i) * a.derivative_at_one(i) * b.derivative_at_one(n - i)
            for i in range(n + 1)
        )
        assert lhs == rhs


class TestDerivativesAtOne:
    @given(polys(), st.integers(min_value=0, max_value=10))
    @example(ZERO, 0)
    @example(ZERO, 3)
    @example(ONE, 2)
    @example(RatPoly([F(1, 3), F(-2, 7), 0, 5]), 3)
    def test_match_the_term_by_term_reference(self, p, order):
        got = p.derivatives_at_one(order)
        assert got == ref_derivatives_at_one(p.coeffs, order)
        assert all(type(v) is F for v in got)
        assert p.derivative_at_one(order) == got[-1]

    def test_product_of_averages(self):
        # weight sum 1, mean lag 1 + 2, then the term-by-term sums over
        # the numerators (1, 2, 3, 3, 3, 2, 1)/15
        assert (sma(3) * sma(5)).derivatives_at_one(3) == (1, 3, F(26, 3), 22)

    def test_orders_past_the_degree_are_zero(self):
        assert sma(3).derivatives_at_one(5)[3:] == (0, 0, 0)
        assert ZERO.derivatives_at_one(2) == (0, 0, 0)


    @pytest.mark.parametrize("p", [
        ZERO, ONE, sma(3) * sma(5), RatPoly([F(1, 2), 0, F(-1, 2)]),
        # a composite whose first and second derivatives vanish at 1
        design_filters(DesignSpec((1, 3), 2)).common,
    ], ids=["zero", "one", "averages", "odd", "composite"])
    def test_exact_results_are_fractions_even_when_zero(self, p):
        # every case but "averages" has zeros among these; == alone would
        # also pass an int 0
        values = [*p.derivatives_at_one(4), p.derivative_at_one(0), p.derivative_at_one(4),
                  p.squared_norm(), variance_inflation(p)]
        assert [type(v) for v in values] == [F] * len(values)


class TestInverseNearOne:
    @given(polys(), st.integers(min_value=0, max_value=8))
    def test_matches_the_fraction_reference(self, p, degree):
        value = p.evaluate(1)
        if value == 0:
            return
        theta = p * (1 / value)
        phi = theta.inverse_near_one(degree)
        assert_canonical(phi)
        assert phi.coeffs == ref_inverse_near_one(theta.coeffs, degree)
        assert phi.degree <= degree
        # phi * theta - 1 vanishes at z = 1 to order degree + 1
        residual = phi * theta - ONE
        assert all(residual.derivative_at_one(j) == 0 for j in range(degree + 1))

    def test_product_of_averages(self):
        theta = sma(1) * sma(3) * sma(5)
        assert theta.inverse_near_one(0) == ONE
        # degree 1: phi = 1 + mean lag * (1 - z), and theta's mean lag is 3
        assert theta.inverse_near_one(1) == RatPoly([4, -3])

    @pytest.mark.parametrize("p", [RatPoly([1, 1]), ZERO, RatPoly([F(-1, 2), F(3, 2), 1])])
    def test_rejects_a_value_other_than_one_at_one(self, p):
        with pytest.raises(ValueError, match="value at z = 1 must be 1"):
            p.inverse_near_one(2)

    def test_rejects_a_negative_degree(self):
        with pytest.raises(ValueError, match=r"^degree must be an integer >= 0, got -1$"):
            sma(3).inverse_near_one(-1)


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

    @given(st.lists(st.builds(F, st.integers(min_value=-2**200, max_value=2**200),
                              st.integers(min_value=1, max_value=2**150)), max_size=6))
    def test_as_floats_are_the_rounded_coefficients(self, cs):
        p = RatPoly(cs)
        assert [x.hex() for x in p.as_floats()] == [float(c).hex() for c in p.coeffs]

    def test_as_floats_beyond_the_float_range_is_a_domain_error(self):
        with pytest.raises(DomainError, match="^a weight of a 1-weight filter is beyond"):
            RatPoly([10**400]).as_floats()

    def test_as_floats_computed_once(self):
        p = RatPoly([F(1, 3), F(-2, 7)])
        assert p.as_floats() is p.as_floats()
        assert p.as_floats() == (float(F(1, 3)), float(F(-2, 7)))
