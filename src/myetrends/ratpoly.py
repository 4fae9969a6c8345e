"""Exact polynomial arithmetic in the backshift variable.

Weighted averages of present and past observations are represented here as
polynomials in ``z``, where the coefficient on ``z**j`` is the weight given
to the observation ``j`` steps back. Coefficients are held as integer
numerators over one common denominator, so every product, sum, and
derivative in the design pipeline is exact plain-integer arithmetic, and
they are handed out as :class:`fractions.Fraction`; nothing is rounded
until a filter is finally applied to floating-point data.

The polynomial for the equal-weight average of the ``k`` most recent values
is produced by :func:`sma`; :meth:`RatPoly.averaged` multiplies by such
averages as running sums over the numerators, and
:meth:`RatPoly.derivatives_at_one` takes every derivative at ``z = 1`` by
repeated suffix sums.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat, zip_longest
from operator import mul, sub

from .exceptions import _to_float, check_int

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Union

    CoefficientLike = Union[int, str, float, Fraction]

__all__ = ["RatPoly", "sma", "ZERO", "ONE"]

# the one Fraction that derivatives_at_one hands out for every zero order
_FRACTION_ZERO = Fraction(0)


def coefficients(coeffs: Iterable[CoefficientLike]) -> list[Fraction]:
    """``coeffs`` as exact Fractions.

    Raises
    ------
    ValueError
        If a coefficient is non-finite or unparsable; the message names its
        index.
    """
    out = []
    for j, c in enumerate(coeffs):
        if not isinstance(c, Fraction):
            try:
                c = Fraction(c)
            except (ValueError, OverflowError, ZeroDivisionError):
                raise ValueError(f"coefficient {j} must be a finite number, got {c!r}") from None
        out.append(c)
    return out


class RatPoly:
    """Immutable polynomial in ``z`` with exact rational coefficients.

    The polynomial is stored as integer numerators ``n0, n1, ...`` over one
    positive denominator ``den``, meaning ``(n0 + n1*z + ...)/den``, in
    canonical form: ``gcd(den, n0, n1, ...) == 1`` and the last numerator is
    nonzero. So ``den`` is the least common denominator of the coefficients,
    and two equal polynomials are structurally identical. The zero
    polynomial has no numerators, denominator 1, and degree ``-1``.

    Parameters
    ----------
    coeffs : iterable
        Coefficients ``c0, c1, ...`` of ``c0 + c1*z + c2*z**2 + ...``.
        Anything :class:`~fractions.Fraction` accepts is allowed (ints,
        strings like ``"4/3"``, Fractions). Floats convert to their exact
        binary value, so prefer strings for decimal literals. A non-finite
        or unparsable coefficient raises ``ValueError`` naming its index.

    Examples
    --------
    >>> p = RatPoly([4, -3])
    >>> print(p * sma(3))
    (4 + z + z^2 - 3z^3)/3
    """

    # _floats is filled by the first as_floats() use, so exact arithmetic
    # that never needs it pays nothing for it
    __slots__ = ("_nums", "_den", "_floats")

    def __init__(self, coeffs: Iterable[CoefficientLike] = ()) -> None:
        cs = coefficients(coeffs)
        # math.lcm gets a list: star-args from a generator build a resized
        # tuple, and freeing those grows the tuple free lists
        den = math.lcm(*[c.denominator for c in cs])
        p = RatPoly._from_ints([c.numerator * (den // c.denominator) for c in cs], den)
        self._nums, self._den = p._nums, p._den

    @classmethod
    def _from_ints(cls, nums: list[int], den: int) -> "RatPoly":
        """``(nums[0] + nums[1]*z + ...)/den`` for a positive ``den``, put in
        canonical form with one gcd."""
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [n // g for n in nums]
        p = cls.__new__(cls)
        p._nums = tuple(nums)
        p._den = den
        return p

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients in ascending powers, with no trailing zeros."""
        den = self._den
        return tuple(Fraction(n, den) for n in self._nums)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; ``-1`` for the zero polynomial."""
        return len(self._nums) - 1

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RatPoly):
            return self._den == other._den and self._nums == other._nums
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def _aligned(self, other: "RatPoly") -> tuple[zip_longest, int]:
        """Pairs of numerators over the two denominators' lcm, zero past
        the shorter polynomial, and that lcm."""
        da, db = self._den, other._den
        den = math.lcm(da, db)
        na = self._nums if den == da else [n * (den // da) for n in self._nums]
        nb = other._nums if den == db else [n * (den // db) for n in other._nums]
        return zip_longest(na, nb, fillvalue=0), den

    def __add__(self, other: "RatPoly") -> "RatPoly":
        if not isinstance(other, RatPoly):
            return NotImplemented
        pairs, den = self._aligned(other)
        return RatPoly._from_ints([a + b for a, b in pairs], den)

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        if not isinstance(other, RatPoly):
            return NotImplemented
        pairs, den = self._aligned(other)
        return RatPoly._from_ints([a - b for a, b in pairs], den)

    def __mul__(self, other: Union["RatPoly", int, Fraction]) -> "RatPoly":
        if isinstance(other, RatPoly):
            na, nb = self._nums, other._nums
            if not na or not nb:
                return ZERO
            # the shorter operand drives the outer loop, which costs more per step
            if len(na) > len(nb):
                na, nb = nb, na
            out = [0] * (len(na) + len(nb) - 1)
            for i, a in enumerate(na):
                if not a:
                    continue
                for j, b in enumerate(nb, i):
                    out[j] += a * b
            return RatPoly._from_ints(out, self._den * other._den)
        if isinstance(other, (int, Fraction)):
            num, den = other.numerator, other.denominator
            return RatPoly._from_ints([n * num for n in self._nums], self._den * den)
        return NotImplemented

    __rmul__ = __mul__

    def averaged(self, *periods: int) -> "RatPoly":
        """``self * sma(k1) * sma(k2) * ...``, exactly.

        Multiplying by ``(1 + z + ... + z**(k-1))/k`` sums each run of ``k``
        consecutive numerators, so each factor is one running sum over the
        integer numerators, in O(degree + k) additions, and the product is
        put in canonical form once at the end. A period of 1 is checked and
        then skipped, and with no other period the result is ``self``.

        Raises
        ------
        ValueError
            If a period is not a positive integer.
        """
        for k in periods:
            if type(k) is not int or k < 1:
                check_int(k, "k", 1)
        # sma(1) is the identity
        ks = [k for k in periods if k != 1]
        if not ks:
            return self
        if not self._nums:
            return ZERO
        nums, den = self._nums, self._den
        for k in ks:
            n = len(nums)
            out = []
            acc = 0
            for j in range(n + k - 1):
                if j < n:
                    acc += nums[j]
                if j >= k:
                    acc -= nums[j - k]
                out.append(acc)
            nums, den = out, den * k
        return RatPoly._from_ints(nums, den)

    def evaluate(self, x: CoefficientLike) -> Fraction:
        """Evaluate at ``x`` exactly (Horner's rule)."""
        if not isinstance(x, Fraction):
            x = Fraction(x)
        if not self._nums:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        # Horner's rule on the numerators of x = p/q, scaled by q**degree
        acc, qpow = 0, 1
        for n in reversed(self._nums):
            acc = acc * p + n * qpow
            qpow *= q
        return Fraction(acc, self._den * (qpow // q))

    def derivatives_at_one(self, order: int) -> tuple[Fraction, ...]:
        """Exact values of the derivatives of orders ``0..order`` at ``z = 1``.

        Synthetic division by ``z - 1`` is a running sum over the numerators
        from the highest power down: the last sum, the remainder, is the
        polynomial's value at 1, and the others are the quotient's
        numerators. Repeating it on the quotient gives the Taylor
        coefficients about ``z = 1`` one by one (the Taylor shift by 1), and
        the ``r``-th derivative is ``r!`` times the ``r``-th of them. Orders
        past the degree are zero. Every zero order, whether past the degree
        or not, is one shared ``Fraction(0)``, so a passing filter family's
        vanishing derivatives build no Fraction each.
        """
        if type(order) is not int or order < 0:
            check_int(order, "order", 0)
        den = self._den
        rest = self._nums[::-1]
        out = []
        factorial = 1
        for r in range(min(order + 1, len(rest))):
            if r:
                factorial *= r
            rest = list(accumulate(rest))
            n = rest.pop()
            out.append(Fraction(n * factorial, den) if n else _FRACTION_ZERO)
        out += [_FRACTION_ZERO] * (order + 1 - len(out))
        return tuple(out)

    def derivative_at_one(self, order: int = 1) -> Fraction:
        """Exact value of the ``order``-th derivative at ``z = 1``.

        The last of :meth:`derivatives_at_one`; order 0 is the plain
        evaluation at 1 (the weight sum).
        """
        return self.derivatives_at_one(order)[-1]

    def squared_norm(self) -> Fraction:
        """Sum of the squared coefficients, exactly."""
        nums = self._nums
        return Fraction(sum(map(mul, nums, nums)), self._den * self._den)

    def inverse_near_one(self, degree: int) -> "RatPoly":
        """The polynomial ``phi`` of degree <= ``degree`` with ``phi * self - 1``
        divisible by ``(z - 1)**(degree + 1)``, for ``self`` with value 1 at
        ``z = 1``.

        With ``w = 1 - z`` and ``self = T(z)/D``, ``self(1 - w) = sum a_i
        w**i`` has ``a_i = A_i/D`` with ``A_i = (-1)**i sum_j T_j C(j, i)``,
        and ``a_0 = 1``. Its power-series inverse ``sum b_n w**n`` follows
        from ``b_0 = 1`` and ``b_n = -sum_{i=1..n} a_i b_{n-i}``; in integers
        ``B_n = b_n D**n`` obeys ``B_n = -sum_{i=1..n} (A_i D**(i-1)) B_{n-i}``,
        where the products ``A_i D**(i-1)`` are formed once for every ``n``.
        Cut after ``w**degree``, ``phi``'s numerator over ``D**degree`` is
        ``sum_n B_n D**(degree-n) (1 - z)**n``, expanded by Horner's rule in
        ``1 - z``.

        Raises
        ------
        ValueError
            If ``degree`` is not an integer >= 0 or ``self`` is not 1 at
            ``z = 1``.
        """
        if type(degree) is not int or degree < 0:
            check_int(degree, "degree", 0)
        t, d = self._nums, self._den
        a = [(-1) ** i * sum(map(mul, t[i:], map(math.comb, range(i, len(t)), repeat(i))))
             for i in range(degree + 1)]
        if a[0] != d:
            raise ValueError(f"value at z = 1 must be 1, got {Fraction(a[0], d)}")
        dpow = [d**i for i in range(degree + 1)]
        ad = list(map(mul, a[1:], dpow))
        b = [1]
        for n in range(1, degree + 1):
            b.append(-sum(map(mul, ad[:n], reversed(b))))
        # Horner's rule in w = 1 - z: times (1 - z) is one shift-and-subtract
        nums = [b[degree]]
        for n in range(degree - 1, -1, -1):
            nums = [b[n] * dpow[degree - n] + nums[0], *map(sub, nums[1:], nums), -nums[-1]]
        return RatPoly._from_ints(nums, dpow[degree])

    def as_floats(self) -> tuple[float, ...]:
        """Coefficients rounded once to floats, for applying to float data.

        Raises
        ------
        DomainError
            If a coefficient lies beyond the float range.
        """
        try:
            return self._floats
        except AttributeError:
            what = f"a weight of a {len(self._nums)}-weight filter"
            self._floats = tuple(_to_float(c, what) for c in self.coeffs)
            return self._floats

    def __str__(self) -> str:
        """Render over a common denominator, e.g. ``(4 + z + z^2 - 3z^3)/3``."""
        if not self._nums:
            return "0"
        terms: list[str] = []
        for j, n in enumerate(self._nums):
            if n == 0:
                continue
            mag = abs(n)
            if j == 0:
                body = str(mag)
            else:
                zpow = "z" if j == 1 else f"z^{j}"
                body = zpow if mag == 1 else f"{mag}{zpow}"
            if not terms:
                terms.append(body if n > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if n > 0 else f"- {body}")
        poly = " ".join(terms)
        if self._den == 1:
            return poly
        if len(terms) == 1:
            return f"{poly}/{self._den}"
        return f"({poly})/{self._den}"

    def __repr__(self) -> str:
        inner = ", ".join(repr(str(c)) for c in self.coeffs)
        return f"RatPoly([{inner}])"


ZERO = RatPoly()
ONE = RatPoly([1])


def sma(k: int) -> RatPoly:
    """Equal-weight average of the ``k`` most recent values as a polynomial.

    Returns ``(1 + z + ... + z**(k-1)) / k``. The weights sum to one
    exactly, and ``sma(1)`` is the identity.

    Raises
    ------
    ValueError
        If ``k`` is not a positive integer.
    """
    if type(k) is not int or k < 1:
        check_int(k, "k", 1)
    return RatPoly._from_ints([1] * k, k)
