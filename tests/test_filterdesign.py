"""Filter family construction: frozen designs, invariants, and independent
sympy oracles for the design constraints."""

import itertools
import math
import warnings
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from myetrends.filterdesign import (
    DesignSpec,
    FilterSet,
    design_filters,
    variance_inflation,
    verify_filter_set,
)
from myetrends.ratpoly import RatPoly, sma

Z = sympy.Symbol("z")


def coeffs_over(p, den):
    """Integer numerators of p's coefficients over the common denominator den."""
    return tuple(int(c * den) for c in p.coeffs)


class TestDesignSpec:
    def test_periods_sorted_and_stored(self):
        spec = DesignSpec((5, 1, 3), 1)
        assert spec.periods == (1, 3, 5)
        assert spec.degree == 1

    @pytest.mark.parametrize(
        "periods,degree",
        [((), 1), ((0, 3), 1), ((3, 3), 1), ((1.5,), 1), ((1, 3), -1), ((1, 3), 1.0)],
    )
    def test_rejects_invalid(self, periods, degree):
        with pytest.raises(ValueError):
            DesignSpec(periods, degree)


def sympy_theta(periods):
    """The product of the periods' averaging polynomials, built in sympy."""
    return sympy.prod([sum(Z**i for i in range(k)) / k for k in periods])


def sympy_constraint_matrix(periods, degree):
    """Row j, column c: the j-th derivative at z = 1 of z**c * theta, by sympy.

    phi solves the design constraints exactly when this matrix times phi's
    coefficients is (1, 0, ..., 0).
    """
    theta = sympy_theta(periods)
    return [
        [sympy.diff(Z**c * theta, Z, j).subs(Z, 1) for c in range(degree + 1)]
        for j in range(degree + 1)
    ]


def solves_constraints(matrix, phi):
    cs = [sympy.Rational(c.numerator, c.denominator) for c in phi.coeffs]
    cs += [0] * (len(matrix) - len(cs))
    return [sum(a * b for a, b in zip(row, cs)) for row in matrix] == [1] + [0] * (
        len(matrix) - 1
    )


class TestConstraintMatrix:
    def test_linear_example(self):
        m = sympy_constraint_matrix((1, 3, 5), 1)
        assert m == [[1, 1], [3, 4]]
        assert solves_constraints(m, design_filters(DesignSpec((1, 3, 5), 1)).phi)

    def test_quadratic_example(self):
        m = sympy_constraint_matrix((1, 3, 5), 2)
        assert m == [
            [1, 1, 1],
            [3, 4, 5],
            [sympy.Rational(26, 3), sympy.Rational(44, 3), sympy.Rational(68, 3)],
        ]
        assert solves_constraints(m, design_filters(DesignSpec((1, 3, 5), 2)).phi)

    @pytest.mark.parametrize(
        "periods,degree",
        [((1, 3, 5), 3), ((3, 5), 2), ((2, 4), 2), ((1, 2, 3, 4), 2), ((7,), 4)],
    )
    def test_matches_symbolic_differentiation(self, periods, degree):
        # the exact derivatives the design and verifier take agree with
        # sympy's, and the designed phi solves sympy's constraint system
        m = sympy_constraint_matrix(periods, degree)
        theta = math.prod((sma(k) for k in periods), start=RatPoly([1]))
        for j in range(degree + 1):
            for c in range(degree + 1):
                got = (RatPoly([0] * c + [1]) * theta).derivative_at_one(j)
                assert sympy.Rational(got.numerator, got.denominator) == m[j][c]
        assert solves_constraints(m, design_filters(DesignSpec(periods, degree)).phi)


class TestSolvePhi:
    def test_linear_solution(self):
        phi = design_filters(DesignSpec((1, 3, 5), 1)).phi
        assert phi == RatPoly([4, -3])

    def test_quadratic_solution(self):
        phi = design_filters(DesignSpec((1, 3, 5), 2)).phi
        assert coeffs_over(phi, 3) == (26, -37, 14)


# the prefixes (1,) ... (1, ..., 7), four more sets with 3 and 5, and three
# without period 1
ORACLE_PERIOD_SETS = [tuple(range(1, n + 1)) for n in range(1, 8)] + [
    (3,),
    (5,),
    (1, 3),
    (1, 3, 5),
    (3, 5),
    (2, 4),
    (7,),
]


class TestSeriesInverseOracle:
    """phi is pinned by divisibility alone, checked in sympy.

    A polynomial phi of degree <= d with (z - 1)**(d+1) dividing
    phi * theta - 1 is unique, so this fixes every coefficient without
    reading any intermediate of the design.
    """

    @pytest.mark.parametrize("periods", ORACLE_PERIOD_SETS, ids=str)
    def test_phi_inverts_theta_to_order_d(self, periods):
        theta = sympy.Poly(sympy_theta(periods), Z)
        for degree in range(9):
            phi = design_filters(DesignSpec(periods, degree)).phi
            assert phi.degree <= degree
            phi_sym = sympy.Poly(
                [sympy.Rational(c.numerator, c.denominator) for c in reversed(phi.coeffs)],
                Z,
            )
            residual = phi_sym * theta - 1
            assert residual.rem(sympy.Poly((Z - 1) ** (degree + 1), Z)).is_zero, (
                f"{periods} d={degree}"
            )

    @given(
        periods=st.sets(st.integers(min_value=1, max_value=9), min_size=1),
        degree=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_designs_verify(self, periods, degree):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fs = design_filters(DesignSpec(periods, degree))
        assert verify_filter_set(fs).passed


class TestDesignedFamilies:
    def test_linear_family_frozen(self):
        fs = design_filters(DesignSpec((1, 3, 5), 1))
        assert fs.phi == RatPoly([4, -3])
        assert coeffs_over(fs.psi[5], 3) == (4, 1, 1, -3)
        assert coeffs_over(fs.psi[3], 5) == (4, 1, 1, 1, 1, -3)
        assert coeffs_over(fs.psi[1], 15) == (4, 5, 6, 3, 3, -1, -2, -3)
        assert fs.common == fs.psi[1]

    def test_quadratic_family_frozen(self):
        fs = design_filters(DesignSpec((1, 3, 5), 2))
        assert coeffs_over(fs.psi[5], 9) == (26, -11, 3, -23, 14)
        assert coeffs_over(fs.psi[3], 15) == (26, -11, 3, 3, 3, -23, 14)
        assert coeffs_over(fs.psi[1], 45) == (26, 15, 18, -5, 9, -17, -6, -9, 14)

    def test_variance_inflation_frozen(self):
        fs = design_filters(DesignSpec((1, 3, 5), 1))
        assert variance_inflation(fs.psi[3]) == F(29, 25)
        assert variance_inflation(fs.psi[5]) == F(3)
        assert variance_inflation(fs.psi[1]) == F(109, 225)
        assert variance_inflation(sma(1)) == 1

    def test_all_small_designs_verify(self):
        # every nonempty subset of {1,3,5} crossed with degrees 0..5.
        periods_pool = (1, 3, 5)
        subsets = [
            combo
            for r in range(1, 4)
            for combo in itertools.combinations(periods_pool, r)
        ]
        for periods in subsets:
            for degree in range(6):
                fs = design_filters(DesignSpec(periods, degree))
                report = verify_filter_set(fs)
                assert report.passed, f"{periods} d={degree}:\n{report}"

    def test_phi_degree_achieves_bound_for_multi_period_sets(self):
        for periods in [(1, 3), (3, 5), (1, 3, 5), (2, 4), (1, 2, 3)]:
            for degree in range(4):
                fs = design_filters(DesignSpec(periods, degree))
                assert fs.phi.degree == degree

    def test_phi_degree_can_fall_short_when_leading_coefficient_vanishes(self):
        # the square system's unique degree-5 solution over the 3-term
        # average is (28 - 34z + 21z^2 - 7z^3 + z^4)/9: its sixth
        # coefficient is exactly zero, so the shorter filter passes
        # degree 5 for free (checked against symbolic solving)
        fs = design_filters(DesignSpec((3,), 5))
        assert fs.phi.degree == 4
        assert coeffs_over(fs.phi, 9) == (28, -34, 21, -7, 1)
        report = verify_filter_set(fs)
        assert report.passed
        assert fs.common.derivative_at_one(5) == 0

    def test_identity_family_for_trivial_spec(self):
        fs = design_filters(DesignSpec((1,), 0))
        assert fs.phi == RatPoly([1])
        assert fs.psi[1] == RatPoly([1])
        assert fs.common == RatPoly([1])

    def test_single_period_set_phi_stays_identity(self):
        # with one period the composite is that period's average itself and
        # the average of a line already lags predictably; the solver's
        # unique answer via the triangular system is the identity.
        for degree in range(4):
            fs = design_filters(DesignSpec((1,), degree))
            assert fs.phi == RatPoly([1])
            assert verify_filter_set(fs).passed

    def test_high_degree_warns(self):
        with pytest.warns(UserWarning, match="degree"):
            design_filters(DesignSpec((1, 3), 11))

    @given(
        periods=st.lists(
            st.integers(min_value=1, max_value=6), min_size=1, max_size=3, unique=True
        ),
        degree=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_specs_verify(self, periods, degree):
        fs = design_filters(DesignSpec(tuple(periods), degree))
        assert verify_filter_set(fs).passed

    def test_concurrent_weights_only(self):
        # all filters are polynomials in z: weights attach to the present
        # and past only, never the future, by representation.
        fs = design_filters(DesignSpec((1, 3, 5), 2))
        for k, p in fs.psi.items():
            assert p.degree >= 0
            assert len(p.coeffs) == p.degree + 1


class TestVerifierDetectsDamage:
    def test_perturbed_filter_fails_composition(self):
        fs = design_filters(DesignSpec((1, 3, 5), 1))
        bad_psi = dict(fs.psi)
        bad_psi[3] = bad_psi[3] + RatPoly([F(1, 100)])
        damaged = FilterSet(spec=fs.spec, phi=fs.phi, psi=bad_psi, common=fs.common)
        report = verify_filter_set(damaged)
        assert not report.passed
        names = [c.name for c in report.checks if not c.passed]
        assert "composition-3" in names

    def test_perturbed_common_fails_weight_sum(self):
        fs = design_filters(DesignSpec((1, 3), 1))
        damaged = FilterSet(
            spec=fs.spec,
            phi=fs.phi,
            psi=fs.psi,
            common=fs.common + RatPoly([F(1, 7)]),
        )
        report = verify_filter_set(damaged)
        failed = {c.name for c in report.checks if not c.passed}
        assert "weight-sum" in failed

    @staticmethod
    def damaged(periods, degree, **parts):
        fs = design_filters(DesignSpec(periods, degree))
        return FilterSet(**{"spec": fs.spec, "phi": fs.phi, "psi": fs.psi,
                            "common": fs.common, **parts})

    def test_failing_reports_are_pinned(self):
        fs1 = design_filters(DesignSpec((1, 3, 5), 1))
        fs2 = design_filters(DesignSpec((1, 3, 5), 2))
        perturbed_psi = self.damaged(
            (1, 3, 5), 1, psi={**fs1.psi, 3: fs1.psi[3] + RatPoly([F(1, 100)])})
        assert str(verify_filter_set(perturbed_psi)) == (
            "[ok  ] weight-sum: sum(common) - 1 = 0\n"
            "[ok  ] vanishing-derivative-1: d^1/dz^1 common at z=1 = 0\n"
            "[ok  ] composition-1: psi[1]*avg(1) - common = 0\n"
            "[FAIL] composition-3: psi[3]*avg(3) - common = (1 + z + z^2)/300\n"
            "[ok  ] composition-5: psi[5]*avg(5) - common = 0\n"
            "[ok  ] phi-degree: degree(phi) = 1, allowed <= 1")
        perturbed_common = self.damaged(
            (1, 3, 5), 2, common=fs2.common + RatPoly([0, 0, F(1, 7)]))
        assert str(verify_filter_set(perturbed_common)) == (
            "[FAIL] weight-sum: sum(common) - 1 = 1/7\n"
            "[FAIL] vanishing-derivative-1: d^1/dz^1 common at z=1 = 2/7\n"
            "[FAIL] vanishing-derivative-2: d^2/dz^2 common at z=1 = 2/7\n"
            "[FAIL] composition-1: psi[1]*avg(1) - common = -z^2/7\n"
            "[FAIL] composition-3: psi[3]*avg(3) - common = -z^2/7\n"
            "[FAIL] composition-5: psi[5]*avg(5) - common = -z^2/7\n"
            "[ok  ] phi-degree: degree(phi) = 2, allowed <= 2")
        long_phi = self.damaged((1, 3, 5), 1, phi=RatPoly([0, 0, 1]) * fs1.phi)
        assert str(verify_filter_set(long_phi)) == (
            "[ok  ] weight-sum: sum(common) - 1 = 0\n"
            "[ok  ] vanishing-derivative-1: d^1/dz^1 common at z=1 = 0\n"
            "[ok  ] composition-1: psi[1]*avg(1) - common = 0\n"
            "[ok  ] composition-3: psi[3]*avg(3) - common = 0\n"
            "[ok  ] composition-5: psi[5]*avg(5) - common = 0\n"
            "[FAIL] phi-degree: degree(phi) = 3, allowed <= 1")
        missing_psi = self.damaged(
            (1, 3, 5), 2, psi={k: p for k, p in fs2.psi.items() if k != 5})
        assert str(verify_filter_set(missing_psi)) == (
            "[ok  ] weight-sum: sum(common) - 1 = 0\n"
            "[ok  ] vanishing-derivative-1: d^1/dz^1 common at z=1 = 0\n"
            "[ok  ] vanishing-derivative-2: d^2/dz^2 common at z=1 = 0\n"
            "[ok  ] composition-1: psi[1]*avg(1) - common = 0\n"
            "[ok  ] composition-3: psi[3]*avg(3) - common = 0\n"
            "[FAIL] composition-5: no filter stored for period 5\n"
            "[ok  ] phi-degree: degree(phi) = 2, allowed <= 2")

    def test_report_renders_residuals(self):
        fs = design_filters(DesignSpec((1, 3), 1))
        text = str(verify_filter_set(fs))
        assert "weight-sum" in text and "ok" in text


class TestSerialization:
    def test_round_trip(self):
        fs = design_filters(DesignSpec((1, 3, 5), 2))
        again = FilterSet.from_dict(fs.to_dict())
        assert again == fs
        assert verify_filter_set(again).passed

    def test_dict_uses_fraction_strings(self):
        fs = design_filters(DesignSpec((1, 3, 5), 1))
        d = fs.to_dict()
        assert d["phi"] == ["4/1", "-3/1"]
        assert d["psi"]["5"][0] == "4/3"
        assert d["periods"] == [1, 3, 5]
        assert d["degree"] == 1

    def test_json_is_stable(self):
        fs = design_filters(DesignSpec((1, 3, 5), 1))
        assert fs.to_json() == fs.to_json()
        assert '"periods"' in fs.to_json()

    def test_mismatched_psi_keys_rejected(self):
        fs = design_filters(DesignSpec((1, 3), 1))
        d = fs.to_dict()
        del d["psi"]["3"]
        with pytest.raises(ValueError):
            FilterSet.from_dict(d)


class TestSmaProduct:
    """theta, the product of every period's average, as the design builds it:
    at degree 0, phi is 1 and the composite is theta itself."""

    def test_known_product(self):
        common = design_filters(DesignSpec((3, 5), 0)).common
        assert coeffs_over(common, 15) == (1, 2, 3, 3, 3, 2, 1)

    def test_period_one_is_neutral(self):
        with_one = design_filters(DesignSpec((1, 3, 5), 0)).common
        assert with_one == design_filters(DesignSpec((3, 5), 0)).common

    def test_empty_product_is_identity(self):
        # one period leaves no other averages to multiply, so psi is phi
        for degree in range(4):
            fs = design_filters(DesignSpec((7,), degree))
            assert fs.psi[7] == fs.phi
