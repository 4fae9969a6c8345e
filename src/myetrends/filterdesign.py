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
``phi * theta``. All arithmetic is exact, and :func:`verify_filter_set`
re-checks every property from scratch.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .exceptions import check_int
from .ratpoly import ONE, RatPoly, sma

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


@dataclass(frozen=True)
class DesignSpec:
    """Periods and trend degree for a filter family.

    Parameters
    ----------
    periods : iterable of int
        Distinct averaging lengths, each at least 1. Stored sorted.
    degree : int
        Highest polynomial trend degree the composite must reproduce.
    """

    periods: tuple[int, ...]
    degree: int

    def __init__(self, periods: Iterable[int], degree: int) -> None:
        ps = tuple(check_int(k, "periods", 1) for k in periods)
        if not ps:
            raise ValueError("period set must be nonempty")
        if len(set(ps)) != len(ps):
            raise ValueError(f"periods must be distinct, got {ps}")
        check_int(degree, "degree", 0)
        object.__setattr__(self, "periods", tuple(sorted(ps)))
        object.__setattr__(self, "degree", degree)

    def __str__(self) -> str:
        return f"periods={{{', '.join(map(str, self.periods))}}}, degree={self.degree}"


@dataclass(frozen=True, eq=True)
class FilterSet:
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

    spec: DesignSpec
    phi: RatPoly
    psi: dict[int, RatPoly]
    common: RatPoly

    def to_dict(self) -> dict:
        """Plain-data form with coefficients as exact ``"num/den"`` strings."""
        return {
            "periods": list(self.spec.periods),
            "degree": self.spec.degree,
            "phi": _poly_strings(self.phi),
            "psi": {str(k): _poly_strings(p) for k, p in sorted(self.psi.items())},
            "common": _poly_strings(self.common),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

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
    averages = {k: sma(k) for k in spec.periods}
    theta = math.prod(averages.values(), start=ONE)
    phi = theta.inverse_near_one(spec.degree)
    psi = {
        k: phi * math.prod((a for m, a in averages.items() if m != k), start=ONE)
        for k in spec.periods
    }
    common = phi * theta
    return FilterSet(spec=spec, phi=phi, psi=psi, common=common)


@dataclass(frozen=True)
class VerificationCheck:
    """One verified property: a name, a pass flag, and the exact residual."""

    name: str
    passed: bool
    residual: str


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of re-deriving every property of a filter set from scratch."""

    checks: tuple[VerificationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[VerificationCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            flag = "ok" if c.passed else "FAIL"
            lines.append(f"[{flag:4s}] {c.name}: {c.residual}")
        return "\n".join(lines)


def verify_filter_set(fs: FilterSet) -> VerificationReport:
    """Independently re-check every designed property of ``fs``.

    Recomputes, with exact arithmetic and without reusing the design path's
    intermediates, that the composite weights sum to one, that derivatives
    at ``z = 1`` vanish through the trend degree, that each period's filter
    composed with its averaging polynomial equals the composite, and that
    the correction polynomial is no longer than the trend degree allows.
    Residuals are reported exactly, so a failure is attributable.
    """
    checks: list[VerificationCheck] = []
    d = fs.spec.degree

    total = fs.common.derivative_at_one(0)
    checks.append(
        VerificationCheck(
            name="weight-sum",
            passed=total == 1,
            residual=f"sum(common) - 1 = {total - 1}",
        )
    )
    for j in range(1, d + 1):
        val = fs.common.derivative_at_one(j)
        checks.append(
            VerificationCheck(
                name=f"vanishing-derivative-{j}",
                passed=val == 0,
                residual=f"d^{j}/dz^{j} common at z=1 = {val}",
            )
        )
    for k in fs.spec.periods:
        if k not in fs.psi:
            checks.append(
                VerificationCheck(
                    name=f"composition-{k}",
                    passed=False,
                    residual=f"no filter stored for period {k}",
                )
            )
            continue
        diff = fs.psi[k] * sma(k) - fs.common
        checks.append(
            VerificationCheck(
                name=f"composition-{k}",
                passed=not diff,
                residual=f"psi[{k}]*avg({k}) - common = {diff}",
            )
        )
    checks.append(
        VerificationCheck(
            name="phi-degree",
            passed=fs.phi.degree <= d,
            residual=f"degree(phi) = {fs.phi.degree}, allowed <= {d}",
        )
    )
    return VerificationReport(checks=tuple(checks))


def variance_inflation(p: RatPoly) -> Fraction:
    """Sum of squared weights: output variance per unit white-noise variance.

    For independent same-variance inputs, a weighted average's variance is
    the input variance times this factor. The identity filter gives 1;
    values above 1 mean the filter amplifies noise.
    """
    return p.squared_norm()
