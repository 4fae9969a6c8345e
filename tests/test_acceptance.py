"""Acceptance gate: every published reference result and every stated
property, each at its stated tolerance, one printed pass/fail line per
criterion.

Run with plain ``pytest``; the criterion lines are written straight to the
original stdout so they appear even under output capture.
"""

import itertools
import math
import random
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction as F

import pytest

from myetrends.analysis import (
    ComparisonSpec,
    apply_filter,
    compare,
    compatibility,
    expected_bias,
    synthetic_series,
    trend_estimates,
)
from myetrends.datasets import STANDARD_TARGETS, load_sample
from myetrends.filterdesign import (
    DesignSpec,
    design_filters,
    variance_inflation,
    verify_filter_set,
)
from myetrends.myeseries import RegionPair, impute_random_walk, render_value
from myetrends.ratpoly import RatPoly, sma
from myetrends.simulation import SimulationSpec, simulate_bias


def _report(capfd, criterion: str, passed: bool, detail: str) -> None:
    flag = "PASS" if passed else "FAIL"
    with capfd.disabled():
        sys.stdout.write(f"\ncriterion {criterion}: {flag} — {detail}\n")
        sys.stdout.flush()


def full_sample(name):
    return impute_random_walk(load_sample(name), STANDARD_TARGETS)


LINEAR = design_filters(DesignSpec((1, 3, 5), 1))
QUADRATIC = design_filters(DesignSpec((1, 3, 5), 2))


# ---------------------------------------------------------------------------
# criterion 1: exact reproduction of the printed filter families, in < 1 ms


def _over(p: RatPoly, den: int) -> tuple:
    return tuple(c * den for c in p.coeffs)


PRINTED_LINEAR = {
    5: ((4, 1, 1, -3), 3),
    3: ((4, 1, 1, 1, 1, -3), 5),
    1: ((4, 5, 6, 3, 3, -1, -2, -3), 15),
}
PRINTED_QUADRATIC = {
    5: ((26, -11, 3, -23, 14), 9),
    3: ((26, -11, 3, 3, 3, -23, 14), 15),
    1: ((26, 15, 18, -5, 9, -17, -6, -9, 14), 45),
}


def test_criterion_1_exact_filter_reproduction(capfd):
    ok = True
    for degree, printed in ((1, PRINTED_LINEAR), (2, PRINTED_QUADRATIC)):
        fs = design_filters(DesignSpec((1, 3, 5), degree))
        for k, (nums, den) in printed.items():
            ok = ok and _over(fs.psi[k], den) == nums
    # minimum over repeats isolates the algorithm from scheduler noise
    fastest = {}
    for degree in (1, 2):
        best = math.inf
        for _ in range(200):
            t = time.perf_counter()
            design_filters(DesignSpec((1, 3, 5), degree))
            best = min(best, time.perf_counter() - t)
        fastest[degree] = best
    timing_ok = all(t < 1e-3 for t in fastest.values())
    _report(
        capfd,
        "1", ok and timing_ok,
        f"printed linear+quadratic families exact: {ok}; fastest design "
        f"{fastest[1] * 1e6:.0f} µs (d=1) and {fastest[2] * 1e6:.0f} µs "
        f"(d=2), each < 1 ms: {timing_ok}",
    )
    assert ok and timing_ok


# ---------------------------------------------------------------------------
# criterion 2: the verifier passes with exact zero residuals on all small
# designs (every nonempty subset of {1,3,5} crossed with degree 0..5)


def test_criterion_2_verifier_on_all_small_designs(capfd):
    subsets = [
        c for r in (1, 2, 3) for c in itertools.combinations((1, 3, 5), r)
    ]
    checked = 0
    shorter = 0
    ok = True
    for periods in subsets:
        for degree in range(6):
            fs = design_filters(DesignSpec(periods, degree))
            report = verify_filter_set(fs)
            ok = ok and report.passed
            # recompute the identities in exact arithmetic, independently
            ok = ok and fs.common.evaluate(1) == 1
            for j in range(1, degree + 1):
                ok = ok and fs.common.derivative_at_one(j) == 0
            for k in periods:
                ok = ok and fs.psi[k] * sma(k) == fs.common
            # the square constraint system bounds deg(phi) by the passing
            # degree; equality can fail only when the unique solution's
            # leading coefficient is exactly zero, i.e. when the shorter
            # filter already satisfies the next constraint for free — the
            # exact recomputation above proves that whenever it happens
            ok = ok and fs.phi.degree <= degree
            if fs.phi.degree < degree and any(k > 1 for k in periods):
                shorter += 1
            checked += 1
    _report(
        capfd,
        "2", ok,
        f"{checked} designs (subsets of {{1,3,5}} x degree 0..5) verified "
        f"with exact zero residuals; {shorter} designs met the full "
        f"constraint set with a shorter-than-degree phi (proven exactly)",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: variance inflation, exact fractions and decimal renderings


def test_criterion_3_variance_inflation(capfd):
    vifs = {k: variance_inflation(LINEAR.psi[k]) for k in (1, 3, 5)}
    exact_ok = vifs == {1: F(109, 225), 3: F(29, 25), 5: F(3)}
    rendered = {k: render_value(float(v), 2) for k, v in vifs.items()}
    printed = {1: "0.48", 3: "1.16", 5: "3"}
    render_ok = all(
        Decimal(rendered[k]) == Decimal(printed[k]) for k in (1, 3, 5)
    )
    _report(
        capfd,
        "3", exact_ok and render_ok,
        f"exact 109/225, 29/25, 3: {exact_ok}; 2-decimal renderings "
        f"{rendered[3]}/{rendered[5]}/{rendered[1]} match printed "
        f"1.16/3/0.48: {render_ok}",
    )
    assert exact_ok and render_ok


# ---------------------------------------------------------------------------
# criterion 4: the imputed values reproduce at printed precision

IMPUTED_PRINTED = {
    "income": (("42395", "41328", "42600"), 0),
    "divorce": (("17371", "16181", "16417"), 0),
    "age": (("37.35", "37.45", "37.70"), 2),
}


def test_criterion_4_imputed_values(capfd):
    failures = []
    for name, (printed, dec) in IMPUTED_PRINTED.items():
        series = full_sample(name)
        for (k, t), want in zip(STANDARD_TARGETS, printed):
            got = render_value(series.value(k, t), dec)
            if got != want:
                failures.append(f"{name} {k}y {t}: {got} != {want}")
    _report(
        capfd,
        "4", not failures,
        "all nine imputed values match at printed precision"
        if not failures else "; ".join(failures),
    )
    assert not failures


# ---------------------------------------------------------------------------
# criterion 5: the trend row reproduces at printed precision

TRENDS_PRINTED = {
    "income": (("43570", "45223", "45320"), 0),
    "divorce": (("19331", "19217", "16695"), 0),
    "age": (("37.59", "37.59", "38.25"), 2),
}


def test_criterion_5_trend_row(capfd):
    failures = []
    for name, (printed, dec) in TRENDS_PRINTED.items():
        te = trend_estimates(full_sample(name), LINEAR, 2007)
        for k, want in zip((1, 3, 5), printed):
            got = render_value(te.values[k], dec)
            if got != want:
                failures.append(f"{name} {k}y: {got} != {want}")
    _report(
        capfd,
        "5", not failures,
        "all nine trend values match at printed precision"
        if not failures else "; ".join(failures),
    )
    assert not failures


# ---------------------------------------------------------------------------
# criterion 6: compatibility values, base-10 log, with an independent oracle
# confirming the base choice on two variables before the library is trusted

RAW = {
    "income": {
        1: {2000: 35223, 2001: 35615, 2002: 37638, 2003: 37818,
            2004: 38800, 2005: 41521, 2006: 42984, 2007: 43546},
        3: {2001: 35956, 2002: 36780, 2003: 37373, 2004: 38739,
            2005: 40404, 2007: 44386},
        5: {2003: 37510, 2004: 38608, 2005: 40055},
    },
    "age": {
        1: {2000: 36.40, 2001: 37.30, 2002: 37.00, 2003: 37.10,
            2004: 37.20, 2005: 37.40, 2006: 37.40, 2007: 37.60},
        3: {2001: 36.80, 2002: 36.80, 2003: 37.00, 2004: 37.10,
            2005: 37.30, 2007: 37.40},
        5: {2003: 36.70, 2004: 36.90, 2005: 37.20},
    },
}

C_PRINTED = {"income": ("0.017", "0.020"), "divorce": ("0.008", "0.042"),
             "age": ("0.002", "0.004")}


def _oracle_c(table, k, log):
    vals = []
    for t, y in table[k].items():
        window = [table[1].get(t - i) for i in range(k)]
        if any(v is None for v in window):
            continue
        vals.append(abs(log(y) - log(sum(window) / k)))
    return max(vals)


def _extended(table):
    y3, y5 = dict(table[3]), dict(table[5])
    y3[2006] = (y3[2005] + y3[2007]) / 2
    y5[2006] = y5[2005] + (y5[2005] - y5[2003]) / 2
    y5[2007] = y5[2005] + (y5[2005] - y5[2003])
    return {1: dict(table[1]), 3: y3, 5: y5}


def test_criterion_6_compatibility_values(capfd):
    # oracle first: raw-array arithmetic, no library code, both variables
    base_ok = True
    for name in ("income", "age"):
        table = _extended(RAW[name])
        base10 = tuple(render_value(_oracle_c(table, k, math.log10), 3) for k in (3, 5))
        base_ok = base_ok and base10 == C_PRINTED[name]
    # and the natural log demonstrably does not reproduce the values
    ln_c3 = _oracle_c(_extended(RAW["income"]), 3, math.log)
    base_ok = base_ok and render_value(ln_c3, 3) != C_PRINTED["income"][0]

    failures = []
    for name, printed in C_PRINTED.items():
        report = compatibility(full_sample(name), (3, 5))
        for k, want in zip((3, 5), printed):
            got = render_value(report.c(k), 3)
            if got != want:
                failures.append(f"{name} C({k}y): {got} != {want}")
    _report(
        capfd,
        "6", base_ok and not failures,
        f"base-10 confirmed by raw-array oracle on income and age "
        f"(natural log gives {render_value(ln_c3, 3)}, not 0.017); "
        + ("all six C values match at 3 decimals" if not failures
           else "; ".join(failures)),
    )
    assert base_ok and not failures


# ---------------------------------------------------------------------------
# criterion 7: the twelve discrepancy percentages at the printed decimals.
# Inapt percentages come from the raw estimates at full precision; proper
# percentages from the trend values at their printed precision, which is
# the precision the reference table reports.

PCT_PRINTED = {
    "divorce": {"inapt": ((3, "-13.7", 1), (5, "-24.8", 1)),
                "proper": ((3, "-0.59", 2), (5, "-13.6", 1))},
    "income": {"inapt": ((3, "1.9", 1), (5, "-2.2", 1)),
               "proper": ((3, "3.8", 1), (5, "4.0", 1))},
    "age": {"inapt": ((3, "-0.53", 2), (5, "0.27", 2)),
            "proper": ((3, "0", 0), (5, "1.8", 1))},
}
TREND_DECIMALS = {"divorce": 0, "income": 0, "age": 2}


def test_criterion_7_discrepancy_percentages(capfd):
    failures = []
    for name, groups in PCT_PRINTED.items():
        series = full_sample(name)
        pair = RegionPair(series, series)
        te = trend_estimates(series, LINEAR, 2007)
        dec = TREND_DECIMALS[name]
        rendered = {k: float(render_value(te.values[k], dec)) for k in (1, 3, 5)}
        for k, want, pdec in groups["inapt"]:
            res = compare(pair, ComparisonSpec("inapt", 2007, 1, k))
            got = res.percent(pdec)
            if got != want:
                failures.append(f"{name} inapt {k}y: {got} != {want}")
        for k, want, pdec in groups["proper"]:
            got = render_value(100.0 * (rendered[k] / rendered[1] - 1.0), pdec)
            if got != want:
                failures.append(f"{name} proper {k}y: {got} != {want}")
    _report(
        capfd,
        "7", not failures,
        "all twelve percentages match at the printed decimal place"
        if not failures else "; ".join(failures),
    )
    assert not failures


# ---------------------------------------------------------------------------
# criterion 8a: 1000 random polynomial trends pass through the filters


def test_criterion_8a_polynomial_passing(capfd):
    rng = random.Random(18520419)
    subsets = [
        c for r in (1, 2, 3) for c in itertools.combinations((1, 3, 5), r)
    ]
    designs = {}
    worst = 0.0
    for _ in range(1000):
        degree = rng.randrange(5)                    # design degree <= 4
        trend_degree = rng.randrange(degree + 1)     # trend degree <= d
        coeffs = tuple(
            F(rng.randrange(-9, 10), rng.choice((1, 2, 3, 4)))
            for _ in range(trend_degree + 1)
        )
        periods = subsets[rng.randrange(len(subsets))]
        t0 = rng.randrange(0, 2051)
        key = (periods, degree)
        if key not in designs:
            designs[key] = design_filters(DesignSpec(periods, degree))
        fs = designs[key]
        pad = max(p.degree for p in fs.psi.values()) + 1
        series = synthetic_series(coeffs, periods, t0 - pad, t0)
        te = trend_estimates(series, fs, t0)
        mu = float(sum(F(c) * F(t0) ** j for j, c in enumerate(coeffs)))
        scale = max(1.0, abs(mu))
        rel = max(abs(v - mu) for v in te.values.values()) / scale
        spread = (max(te.values.values()) - min(te.values.values())) / scale
        worst = max(worst, rel, spread)
    ok = worst <= 1e-9
    _report(
        capfd,
        "8a", ok,
        f"1000 random trends (degree <= 4, random period subsets): worst "
        f"relative error {worst:.2e} (tolerance 1e-9)",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 8b: the averaging delay on lines is exactly (k-1)/2


def test_criterion_8b_delay_law_exact(capfd):
    ok = True
    # integer route: every intermediate value is an exactly representable
    # integer, so float equality is exact equality
    for slope, intercept in ((1, 0), (2, 5), (-3, 40)):
        coeffs = (intercept, slope)
        line = synthetic_series(coeffs, (1,), 1980, 2020)
        for t in range(1990, 2011):
            mu = intercept + slope * t
            ok = ok and apply_filter(sma(3), line, 1, t) == mu - slope * 1
            ok = ok and apply_filter(sma(5), line, 1, t) == mu - slope * 2
    # rational route: the analytic bias of a slope-one line is the delay
    ok = ok and expected_bias((0, 1), ComparisonSpec("inapt", 100, 1, 3)) == 1.0
    ok = ok and expected_bias((0, 1), ComparisonSpec("inapt", 100, 1, 5)) == 2.0
    _report(capfd, "8b", ok, "3- and 5-term averages delay lines by exactly 1 and 2")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8c: zero-noise simulation equals the analytic bias exactly


def test_criterion_8c_zero_noise_exactness(capfd):
    cases = []
    for trend, fs in (((0, 1), LINEAR), ((2, -3, F(1, 7)), QUADRATIC)):
        for mode, ref, other in (("inapt", 1, 3), ("inapt", 1, 5),
                                 ("untimely", 3, 3), ("proper", 1, 3),
                                 ("proper", 1, 5)):
            spec = SimulationSpec(
                trend=trend, noise_sd={}, mode=mode, t0=50,
                replicates=100, seed=1, reference_period=ref,
                other_period=other,
            )
            use = fs if mode == "proper" else None
            got = simulate_bias(spec, use).bias
            want = expected_bias(trend, spec.comparison_spec(), use)
            cases.append(got == want)
    ok = all(cases)
    _report(
        capfd,
        "8c", ok,
        f"simulated bias equals analytic bias bit-for-bit in "
        f"{sum(cases)}/{len(cases)} mode x trend combinations",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 8d: Monte Carlo variance of proper-mode filtered unit noise
# within 1% of the design's variance inflation at one million replicates,
# byte-for-byte reproducible


def test_criterion_8d_monte_carlo_variance(capfd):
    spec = SimulationSpec(
        trend=(0, 1), noise_sd={1: 1.0, 3: 1.0}, mode="proper", t0=100,
        replicates=1_000_000, seed=20250819, reference_period=1,
        other_period=3,
    )
    first = simulate_bias(spec, LINEAR)
    second = simulate_bias(spec, LINEAR)
    reproducible = first == second
    targets = {"var_a": 109 / 225, "var_b": 29 / 25}
    rel_a = abs(first.var_a / targets["var_a"] - 1.0)
    rel_b = abs(first.var_b / targets["var_b"] - 1.0)
    within = rel_a < 0.01 and rel_b < 0.01
    _report(
        capfd,
        "8d", reproducible and within,
        f"10^6 replicates: var_a off by {rel_a:.3%}, var_b off by "
        f"{rel_b:.3%} (tolerance 1%); identical summaries across runs: "
        f"{reproducible}",
    )
    assert reproducible and within


# ---------------------------------------------------------------------------
# criterion 9: the demo command exits 0 with the full reference table


def test_criterion_9_demo_command(capfd):
    proc = subprocess.run(
        [sys.executable, "-m", "myetrends", "demo"],
        capture_output=True, text=True,
    )
    ok = proc.returncode == 0 and "36/36 values reproduce" in proc.stdout
    covers = all(
        token in proc.stdout
        for token in ("imputed", "trend", "C 3y", "C 5y", "inapt", "proper")
    )
    _report(
        capfd,
        "9", ok and covers,
        f"exit code {proc.returncode}; 36-row computed-vs-reference table "
        f"covering imputation, trends, compatibility, and discrepancies",
    )
    assert ok and covers
