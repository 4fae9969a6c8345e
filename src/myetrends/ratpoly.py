"""Exact polynomial arithmetic in the backshift variable.

Weighted averages of present and past observations are represented here as
polynomials in ``z``, where the coefficient on ``z**j`` is the weight given
to the observation ``j`` steps back. Coefficients are held as
:class:`fractions.Fraction`, so every product, sum, and derivative in the
design pipeline is exact; nothing is rounded until a filter is finally
applied to floating-point data.

The polynomial for the equal-weight average of the ``k`` most recent values
is produced by :func:`sma`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

__all__ = ["RatPoly", "sma", "ZERO", "ONE"]

CoefficientLike = Union[int, str, float, Fraction]


class RatPoly:
    """Immutable polynomial in ``z`` with exact rational coefficients.

    Coefficients are stored in ascending powers and trailing zeros are
    trimmed, so two equal polynomials are structurally identical. The zero
    polynomial keeps an empty coefficient tuple and reports degree ``-1``.

    Parameters
    ----------
    coeffs : iterable
        Coefficients ``c0, c1, ...`` of ``c0 + c1*z + c2*z**2 + ...``.
        Anything :class:`~fractions.Fraction` accepts is allowed (ints,
        strings like ``"4/3"``, Fractions). Floats convert to their exact
        binary value, so prefer strings for decimal literals.

    Examples
    --------
    >>> p = RatPoly([4, -3])
    >>> print(p * sma(3))
    (4 + z + z^2 - 3z^3)/3
    """

    # _floats is filled by the first as_floats() call, so exact arithmetic
    # that never meets float data pays nothing for it
    __slots__ = ("_coeffs", "_floats")

    def __init__(self, coeffs: Iterable[CoefficientLike] = ()) -> None:
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs: tuple[Fraction, ...] = tuple(cs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients in ascending powers, with no trailing zeros."""
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; ``-1`` for the zero polynomial."""
        return len(self._coeffs) - 1

    def coeff(self, j: int) -> Fraction:
        """Coefficient on ``z**j`` (zero outside the stored range)."""
        if 0 <= j < len(self._coeffs):
            return self._coeffs[j]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RatPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: "RatPoly") -> "RatPoly":
        if not isinstance(other, RatPoly):
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return RatPoly([self.coeff(j) + other.coeff(j) for j in range(n)])

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        if not isinstance(other, RatPoly):
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return RatPoly([self.coeff(j) - other.coeff(j) for j in range(n)])

    def __neg__(self) -> "RatPoly":
        return RatPoly([-c for c in self._coeffs])

    def __mul__(self, other: Union["RatPoly", int, Fraction]) -> "RatPoly":
        if isinstance(other, RatPoly):
            if not self._coeffs or not other._coeffs:
                return ZERO
            # convolve integer numerators over each side's common
            # denominator: plain int arithmetic, one Fraction per output.
            # math.lcm gets lists: star-args from a generator build a
            # resized tuple, and freeing those grows the tuple free lists
            # (3 MB more peak memory after ten design_sweep cycles)
            da = math.lcm(*[c.denominator for c in self._coeffs])
            db = math.lcm(*[c.denominator for c in other._coeffs])
            na = [c.numerator * (da // c.denominator) for c in self._coeffs]
            nb = [c.numerator * (db // c.denominator) for c in other._coeffs]
            out = [0] * (len(na) + len(nb) - 1)
            for i, a in enumerate(na):
                if not a:
                    continue
                for j, b in enumerate(nb):
                    out[i + j] += a * b
            den = da * db
            return RatPoly([Fraction(n, den) for n in out])
        if isinstance(other, (int, Fraction)):
            return RatPoly([c * other for c in self._coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, power: int) -> "RatPoly":
        """Multiply by ``z**power`` (delay every weight by ``power`` steps)."""
        if power < 0:
            raise ValueError(f"shift power must be nonnegative, got {power}")
        if not self._coeffs:
            return ZERO
        return RatPoly((Fraction(0),) * power + self._coeffs)

    def evaluate(self, x: CoefficientLike) -> Fraction:
        """Evaluate at ``x`` exactly (Horner's rule)."""
        if not isinstance(x, Fraction):
            x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def derivative_at_one(self, order: int = 1) -> Fraction:
        """Exact value of the ``order``-th derivative at ``z = 1``.

        Term by term, the ``order``-th derivative of ``c_j z**j`` at 1 is
        ``c_j * j! / (j - order)!``, so no intermediate polynomial is built.
        Order 0 returns the plain evaluation at 1 (the weight sum).
        """
        if order < 0:
            raise ValueError(f"derivative order must be nonnegative, got {order}")
        # sum integer numerators over the common denominator, one Fraction
        den = math.lcm(*[c.denominator for c in self._coeffs])
        total = sum(
            c.numerator * (den // c.denominator) * math.perm(j, order)
            for j, c in enumerate(self._coeffs[order:], order)
        )
        return Fraction(total, den)

    def as_floats(self) -> tuple[float, ...]:
        """Coefficients converted to floats, for applying to float data."""
        try:
            return self._floats
        except AttributeError:
            self._floats = tuple(float(c) for c in self._coeffs)
            return self._floats

    def __str__(self) -> str:
        """Render over a common denominator, e.g. ``(4 + z + z^2 - 3z^3)/3``."""
        if not self._coeffs:
            return "0"
        den = math.lcm(*[c.denominator for c in self._coeffs])
        nums = [int(c * den) for c in self._coeffs]
        terms: list[str] = []
        for j, n in enumerate(nums):
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
        if den == 1:
            return poly
        if len(terms) == 1:
            return f"{poly}/{den}"
        return f"({poly})/{den}"

    def __repr__(self) -> str:
        inner = ", ".join(repr(str(c)) for c in self._coeffs)
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
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"averaging length must be a positive integer, got {k!r}")
    w = Fraction(1, k)
    return RatPoly([w] * k)
