"""Design of concurrent filter families that make mixed-period averages comparable.

Rolling averages of different lengths lag a moving signal by different
amounts, so their raw values at a common endpoint are not comparable. This
module constructs, for a set of averaging lengths (periods) and a polynomial
trend degree ``d``, one concurrent filter per period such that

* every filter uses only present and past values,
* applying period ``k``'s filter to the ``k``-length rolling average of a
  signal yields the *same* composite weights for every ``k`` in the set, and
* that shared composite reproduces any polynomial trend of degree at most
  ``d`` exactly.

Writing ``theta`` for the product of all the rolling-average polynomials,
the construction needs the shortest ``phi`` with ``phi * theta`` having
weight sum 1 and vanishing derivatives at ``z = 1`` through order ``d``,
that is, ``phi * theta - 1`` divisible by ``(z - 1)**(d + 1)``. Every
average has weight sum 1, so ``theta(1) = 1`` and ``phi`` is the power-series
inverse of ``theta`` about ``z = 1``, cut after the ``d``-th power of
``1 - z``: only polynomial algebra, and a solution for every period set and
degree. The filter for period ``k`` is then ``phi`` times the product of the
*other* periods' averaging polynomials, and the shared composite is
``phi * theta``, formed as the first period's filter times that period's
average. Each product by an average is an exact running sum over the
numerators (:meth:`RatPoly.averaged`), and ``phi`` comes from ``theta``'s
binomial Taylor coefficients about ``z = 1``, expanded by Horner's rule in
``1 - z`` (:meth:`RatPoly.inverse_near_one`).

All arithmetic is exact. :func:`verify_filter_set` re-checks every property
by other algorithms: the derivatives at ``z = 1`` by repeated suffix sums
(:meth:`RatPoly.derivatives_at_one`) and each composition by a general
polynomial product.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

from .exceptions import Record, _set, _show, check_int
from .ratpoly import ONE, RatPoly, sma

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Mapping

__all__ = [
    "DesignSpec",
    "FilterSet",
    "VerificationCheck",
    "VerificationReport",
    "design_filters",
    "verify_filter_set",
    "variance_inflation",
]

# Above this trend degree the design is exact but numerically extreme once
# coefficients are floated, and rarely of practical use.
_DEGREE_WARN_THRESHOLD = 10


class DesignSpec(Record):
    """Periods and trend degree for a filter family.

    Parameters
    ----------
    periods : iterable of int
        Distinct averaging lengths, each at least 1. Stored sorted.
    degree : int
        Highest polynomial trend degree the composite must reproduce.
    """

    def __init__(self, periods: Iterable[int], degree: int) -> None:
        ps = tuple(check_int(k, "periods", 1) for k in periods)
        if not ps:
            raise ValueError("period set must be nonempty")
        if len(set(ps)) != len(ps):
            raise ValueError(f"periods must be distinct, got {_show(ps)}")
        check_int(degree, "degree", 0)
        _set(self, "periods", tuple(sorted(ps)))
        _set(self, "degree", degree)

    def __str__(self) -> str:
        periods = ", ".join(_show(int(k)) for k in self.periods)
        return f"periods={{{periods}}}, degree={_show(int(self.degree))}"


class FilterSet(Record):
    """A designed filter family.

    Attributes
    ----------
    spec : DesignSpec
        The request this family answers.
    phi : RatPoly
        The shared correction polynomial: the inverse of the averages'
        product about ``z = 1``, cut after the trend degree.
    psi : dict
        Per-period concurrent filters, keyed by period. ``psi[k]`` applies
        to the ``k``-period rolling-average series.
    common : RatPoly
        The composite weights that every ``psi[k]`` composed with its
        period's averaging polynomial must equal.
    """

    def __init__(self, spec: DesignSpec, phi: RatPoly, psi: dict[int, RatPoly],
                 common: RatPoly) -> None:
        _set(self, "spec", spec)
        _set(self, "phi", phi)
        _set(self, "psi", psi)
        _set(self, "common", common)

    def to_dict(self) -> dict:
        """Plain-data form with coefficients as exact ``"num/den"`` strings."""
        return {
            "periods": list(self.spec.periods),
            "degree": self.spec.degree,
            "phi": _poly_strings(self.phi),
            "psi": {str(k): _poly_strings(p) for k, p in sorted(self.psi.items())},
            "common": _poly_strings(self.common),
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping) -> "FilterSet":
        """Rebuild a filter set from :meth:`to_dict` output.

        The result is reconstructed as stored; run
        :func:`verify_filter_set` to re-check its properties.
        """
        spec = DesignSpec(data["periods"], data["degree"])
        phi = RatPoly(data["phi"])
        psi = {int(k): RatPoly(v) for k, v in data["psi"].items()}
        if set(psi) != set(spec.periods):
            raise ValueError(
                f"psi keys {sorted(psi)} do not match periods {list(spec.periods)}"
            )
        common = RatPoly(data["common"])
        return cls(spec=spec, phi=phi, psi=psi, common=common)


def _poly_strings(p: RatPoly) -> list[str]:
    return [f"{c.numerator}/{c.denominator}" for c in p.coeffs]


def design_filters(spec: DesignSpec) -> FilterSet:
    """Design the concurrent filter family for ``spec``.

    Returns a :class:`FilterSet` whose per-period filters all reduce to the
    same composite weights and whose composite reproduces polynomial trends
    through degree ``spec.degree``. Exact throughout.
    """
    if spec.degree > _DEGREE_WARN_THRESHOLD:
        warnings.warn(
            f"trend degree {spec.degree} yields extreme filter weights; "
            "results are exact but amplify noise enormously",
            stacklevel=2,
        )
    periods = spec.periods
    theta = ONE.averaged(*periods)
    phi = theta.inverse_near_one(spec.degree)
    psi = {k: phi.averaged(*[m for m in periods if m != k]) for k in periods}
    # the first period's filter lacks only that period's average
    common = psi[periods[0]].averaged(periods[0])
    return FilterSet(spec, phi, psi, common)


class VerificationCheck(Record):
    """One verified property: a name, a pass flag, and the exact residual."""

    def __init__(self, name: str, passed: bool, residual: str) -> None:
        _set(self, "name", name)
        _set(self, "passed", passed)
        _set(self, "residual", residual)


class VerificationReport(Record):
    """Outcome of re-deriving every property of a filter set from scratch."""

    def __init__(self, checks: tuple[VerificationCheck, ...]) -> None:
        _set(self, "checks", checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            flag = "ok" if c.passed else "FAIL"
            lines.append(f"[{flag:4s}] {c.name}: {c.residual}")
        return "\n".join(lines)


def verify_filter_set(fs: FilterSet) -> VerificationReport:
    """Independently re-check every designed property of ``fs``.

    Recomputes, with exact arithmetic and without reusing the design path's
    intermediates or algorithms:

    * that the composite weights sum to one and its derivatives at ``z = 1``
      vanish through the trend degree, all from one
      :meth:`RatPoly.derivatives_at_one` call (repeated suffix sums, not
      the design's inverse);
    * that each period's filter, multiplied by its averaging polynomial
      with general ``*`` (not the design's running sums), equals the
      composite;
    * that the correction polynomial is no longer than the trend degree
      allows.

    Residuals are reported exactly, so a failure is attributable; a passing
    check reads ``0``, and a difference is formed only when a check fails.
    """
    d = fs.spec.degree
    common = fs.common
    total, *derivatives = common.derivatives_at_one(d)
    passed = total == 1
    checks = [VerificationCheck("weight-sum", passed,
                                f"sum(common) - 1 = {0 if passed else total - 1}")]
    for j, val in enumerate(derivatives, 1):
        passed = val == 0
        checks.append(VerificationCheck(f"vanishing-derivative-{j}", passed,
                                        f"d^{j}/dz^{j} common at z=1 = {0 if passed else val}"))
    for k in fs.spec.periods:
        if k not in fs.psi:
            checks.append(VerificationCheck(f"composition-{k}", False,
                                            f"no filter stored for period {k}"))
            continue
        composed = fs.psi[k] * sma(k)
        passed = composed == common
        checks.append(VerificationCheck(
            f"composition-{k}", passed,
            f"psi[{k}]*avg({k}) - common = {0 if passed else composed - common}"))
    checks.append(VerificationCheck("phi-degree", fs.phi.degree <= d,
                                    f"degree(phi) = {fs.phi.degree}, allowed <= {d}"))
    return VerificationReport(tuple(checks))


def variance_inflation(p: RatPoly) -> Fraction:
    """Sum of squared weights: output variance per unit white-noise variance.

    For independent same-variance inputs, a weighted average's variance is
    the input variance times this factor. The identity filter gives 1;
    values above 1 mean the filter amplifies noise.

    That is the independent-noise model: each k-year estimate carries its
    own noise. ACS k-year estimates ending in neighbouring years share
    sample instead. If a k-year estimate's error is the mean of k
    independent annual errors of variance s**2, then ``psi[k]`` applied to
    the k-year series has error ``psi[k] * sma(k) = common`` applied to the
    annual errors, so its variance is ``s**2 * variance_inflation(common)``
    for every period of the family.
    """
    return p.squared_norm()
