"""The four benchmark workloads and the set-up reference check they share.

Each workload builds a fixed *cycle* of ops from the seed at set-up. The
measurement loop in ``run.py`` runs whole cycles, so every run measures the
same mix; the seed changes the inputs (trends, gaps, noise, period sets,
order) but not the mix's shape. Input distributions are stratified for the
same reason: a heavy tail is drawn at fixed quantiles with a little seeded
jitter, so one lucky seed cannot skew a run's totals.

Only stable public API is called: ``design_filters``, ``verify_filter_set``,
``variance_inflation``, ``load_csv``, ``write_csv``, ``impute_random_walk``,
``synthetic_series``, ``trend_estimates``, ``compatibility``, ``compare``,
``expected_bias``, ``simulate_bias``, ``cli.main`` and ``python -m
myetrends``, plus the spec and series types their arguments need.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count
from pathlib import Path

import myetrends as mt
from myetrends import cli

from children import child_env, run_child
from tracing import Tracer, counted_ndtri

# unit roundoff of IEEE double
U = 2.0**-53

# Exact {1,3,5} families of degree 1 and 2, as FilterSet.to_dict() gives them.
KNOWN_FAMILIES = {
    1: {
        "periods": [1, 3, 5],
        "degree": 1,
        "phi": ["4/1", "-3/1"],
        "psi": {
            "1": ["4/15", "1/3", "2/5", "1/5", "1/5", "-1/15", "-2/15", "-1/5"],
            "3": ["4/5", "1/5", "1/5", "1/5", "1/5", "-3/5"],
            "5": ["4/3", "1/3", "1/3", "-1/1"],
        },
        "common": ["4/15", "1/3", "2/5", "1/5", "1/5", "-1/15", "-2/15", "-1/5"],
    },
    2: {
        "periods": [1, 3, 5],
        "degree": 2,
        "phi": ["26/3", "-37/3", "14/3"],
        "psi": {
            "1": ["26/45", "1/3", "2/5", "-1/9", "1/5", "-17/45", "-2/15", "-1/5", "14/45"],
            "3": ["26/15", "-11/15", "1/5", "1/5", "1/5", "-23/15", "14/15"],
            "5": ["26/9", "-11/9", "1/3", "-23/9", "14/9"],
        },
        "common": ["26/45", "1/3", "2/5", "-1/9", "1/5", "-17/45", "-2/15", "-1/5", "14/45"],
    },
}

# The linear family as `myetrends design --degree 1 --periods 1,3,5` prints it.
PRINTED_LINEAR = (
    "psi[1] : (4 + 5z + 6z^2 + 3z^3 + 3z^4 - z^5 - 2z^6 - 3z^7)/15",
    "psi[3] : (4 + z + z^2 + z^3 + z^4 - 3z^5)/5",
    "psi[5] : (4 + z + z^2 - 3z^3)/3",
    "all checks passed",
)

SAMPLES = ("income", "divorce", "age")
SAMPLE_TARGETS = "3:2006,5:2006,5:2007"
DEMO_ROWS = 36
DEGREE_WARN_ABOVE = 10


class CheckFailed(Exception):
    """An op's output differs from what the benchmark expects."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Context:
    """What every workload shares: paths, the seed, and the active tracer.

    ``run.py`` points ``tr`` at the set-up tracer during set-up and at the
    op tracer during the loop.
    """

    src: Path
    work: Path
    seed: int
    tiny: bool
    tr: Tracer

    def rng(self, label: str) -> random.Random:
        # str seeds hash through SHA-512, so they do not depend on PYTHONHASHSEED
        return random.Random(f"{label}:{self.seed}")

    def quantile_kwargs(self) -> dict:
        return {"quantile": counted_ndtri(self.tr)} if self.tr.enabled else {}

    def design(self, periods, degree: int) -> mt.FilterSet:
        """Design and verify a family used as a fixed input."""
        fs = self.tr.call("filterdesign.design_filters", mt.design_filters,
                          mt.DesignSpec(periods, degree))
        report = self.tr.call("filterdesign.verify_filter_set", mt.verify_filter_set, fs)
        check(report.passed, f"family {fs.spec} fails verification:\n{report}")
        return fs


def coeff_bits(fs: mt.FilterSet) -> int:
    """Total bit length of every numerator and denominator in a family."""
    polys = [fs.phi, fs.common, *fs.psi.values()]
    return sum(c.numerator.bit_length() + c.denominator.bit_length()
               for p in polys for c in p.coeffs)


def without(series: mt.MyeSeries, gaps) -> mt.MyeSeries:
    drop = set(gaps)
    return mt.MyeSeries(series.name, series.unit,
                        {key: ov for key, ov in series.items() if key not in drop})


def polynomial_about(origin: int, c: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Coefficients in t of ``c0 + c1*(t - origin) + c2*(t - origin)**2``."""
    c0, c1, c2 = (tuple(c) + (Fraction(0),) * 3)[:3]
    s = Fraction(origin)
    coeffs = (c0 - c1 * s + c2 * s * s, c1 - 2 * c2 * s, c2)
    return coeffs if c2 else coeffs[:2]


def noise_free_series(c: tuple[int, int, int], start: int, end: int) -> mt.MyeSeries:
    """What ``synthetic_series`` gives for the trend ``c0 + c1*s + c2*s**2``,
    ``s = t - start``, and periods 1, 3 and 5, built from integer prefix sums.

    Every value is an exact window mean rounded once (int / int division
    rounds correctly), as in ``synthetic_series``, at a small fraction of
    the cost of its rational arithmetic on series thousands of years long.
    """
    c0, c1, c2 = c
    first = start - 4  # 1y values start max(periods) - 1 years early
    sums = [0]
    for t in range(first, end + 1):
        s = t - start
        sums.append(sums[-1] + c0 + c1 * s + c2 * s * s)
    obs = {}
    for k in (1, 3, 5):
        for t in range(first if k == 1 else start, end + 1):
            i = t - first + 1
            obs[(k, t)] = (sums[i] - sums[i - k]) / k
    return mt.MyeSeries("households", "households", obs)


def filled_exactly_on_line(key: tuple[int, int], gaps, end: int) -> bool:
    """Whether random-walk imputation recovers a line's value at this gap:
    always beyond the last published value (drift fill), and between
    published values only halfway between them (midpoint fill)."""
    k, t = key
    hi = next((u for u in range(t + 1, end + 1) if (k, u) not in gaps), None)
    if hi is None:
        return True
    lo = next(u for u in count(t - 1, -1) if (k, u) not in gaps)
    return lo + hi == 2 * t


def check_filtered_trend(series: mt.MyeSeries, fs: mt.FilterSet,
                         estimates: dict[int, mt.TrendEstimates]) -> int:
    """Filtered values of a noise-free series must equal its trend.

    The 1y value of a noise-free series is the trend value rounded once, so
    it stands in for the trend. The check covers years whose filter windows
    touch no imputed value. Bound: the weights and inputs are each rounded
    once, each product once, and ``fsum`` rounds once, so the error is at
    most (4u + O(u^2)) * sum|w_j x_j|, plus u*|trend| for the stand-in,
    which sum|w_j x_j| also bounds; 8u * sum|w_j x_j| covers both.
    Returns the number of values checked.
    """
    checked = 0
    weights = {k: fs.psi[k].as_floats() for k in fs.spec.periods}
    for t, te in estimates.items():
        if series.provenance(1, t) != mt.PUBLISHED:
            continue
        trend = series.value(1, t)
        for k, value in te.values.items():
            window = [(k, t - j) for j in range(len(weights[k]))]
            if any(series.provenance(*key) != mt.PUBLISHED for key in window):
                continue
            scale = math.fsum(abs(w * series.value(*key)) for w, key in zip(weights[k], window))
            check(abs(value - trend) <= 8 * U * scale,
                  f"{series.name}: {k}y filtered value at {t} is {value!r}, trend {trend!r}")
            checked += 1
    return checked


def bom_rejected(ctx: Context, path: Path, series: mt.MyeSeries) -> bool:
    """Write ``series`` with a UTF-8 BOM, as spreadsheets export it, and load it.

    Returns whether ``load_csv`` rejects the file; one it accepts must load
    back to ``series``. The load is timed as ``myeseries.bom_load``, apart
    from other loads, whether or not it succeeds.
    """
    path.write_text("\ufeff" + mt.write_csv(series), encoding="utf-8")
    try:
        loaded = ctx.tr.call("myeseries.bom_load", mt.load_csv, path)
    except mt.CsvError:
        return True
    check(loaded == series, f"{path.name}: BOM file loads as a different series")
    return False


# ---------------------------------------------------------------------------
# reference check: every layer on fixed inputs, at every workload's set-up


def reference_check(ctx: Context, simulate: bool) -> dict[str, int]:
    """Exercise every layer once on seed-independent inputs and check it.

    Runs at every workload's set-up, so every workload starts from a
    program whose outputs are known to be right, and a traced run times
    every layer even when the workload's own ops do not reach it. The
    simulations run only if ``simulate``, so that the set-up time of a
    workload whose ops never simulate does not include them. Returns exact
    counts that repeat on every run.
    """
    tr = ctx.tr
    families = {}
    bits = 0
    for d in range(9):
        fs = ctx.design((1, 3, 5), d)
        for k in fs.spec.periods:
            vif = tr.call("filterdesign.variance_inflation", mt.variance_inflation, fs.psi[k])
            check(vif > 0, f"variance inflation of psi[{k}] at degree {d} is {vif}")
        bits += coeff_bits(fs)
        families[d] = fs
    for d, known in KNOWN_FAMILIES.items():
        check(families[d].to_dict() == known, f"{{1,3,5}} degree-{d} family is not the known one")

    trend = (Fraction(1000), Fraction(25), Fraction(1, 2))
    full = mt.synthetic_series(trend, (1, 3, 5), 2001, 2016, name="reference", unit="count")
    gaps = ((3, 2006), (5, 2007), (5, 2016))
    published = without(full, gaps)
    path = ctx.work / "reference.csv"
    tr.call("myeseries.write_csv", mt.write_csv, published, path)
    loaded = tr.call("myeseries.load_csv", mt.load_csv, path)
    check(loaded == published, "CSV round trip changed the reference series")
    filled = tr.call("myeseries.impute_random_walk", mt.impute_random_walk, loaded, gaps)
    fs = families[2]
    estimates = {t: tr.call("analysis.trend_estimates", mt.trend_estimates, filled, fs, t)
                 for t in range(2010, 2017)}
    check(check_filtered_trend(filled, fs, estimates) > 0, "no reference trend value checked")
    report = tr.call("analysis.compatibility", mt.compatibility, filled, (3, 5),
                     include_imputed=False)
    # a noise-free k-year value is the mean of its 1y window up to rounding
    check(max(report.c(3), report.c(5)) < 1e-12, f"noise-free NSR is {report.to_dict()}")

    pair = mt.RegionPair(filled, filled)
    for spec in (mt.ComparisonSpec("inapt", 2015, 1, 5), mt.ComparisonSpec("untimely", 2015, 3, 3),
                 mt.ComparisonSpec("proper", 2015, 1, 5)):
        result = tr.call("analysis.compare", mt.compare, pair, spec, fs)
        expected = tr.call("analysis.expected_bias", mt.expected_bias, trend, spec, fs)
        gap = (result.value_a - result.value_b) - expected
        check(abs(gap) <= 1e-10 * abs(result.value_a),
              f"{spec.mode}: compared gap differs from expected bias by {gap!r}")

    rejected = bom_rejected(ctx, ctx.work / "reference-bom.csv", published)
    refs = {"coeff_bits": bits, "bom_written": 1, "bom_rejected": int(rejected)}
    if not simulate:
        return refs

    variants = (("inapt", 1, 5, None), ("untimely", 3, 3, None),
                ("proper", 1, 5, families[1]), ("proper", 1, 3, families[2]))
    for mode, ref, other, family in variants:
        spec = mt.SimulationSpec(trend, {}, mode, 2015, 1000, 2010, ref, other)
        summary = tr.call("analysis.simulate_bias", mt.simulate_bias, spec, family,
                          **ctx.quantile_kwargs())
        expected = tr.call("analysis.expected_bias", mt.expected_bias, trend,
                           spec.comparison_spec(), family)
        check(summary.bias == expected,
              f"zero-noise {mode} bias {summary.bias!r} != expected {expected!r}")
    spec = mt.SimulationSpec(trend, {1: 1.0, 5: 2.0}, "proper", 2015, 20000, 7, 1, 5)
    summary = tr.call("analysis.simulate_bias", mt.simulate_bias, spec, families[1],
                      **ctx.quantile_kwargs())
    check(abs(summary.bias) <= 6 * summary.std_error, f"proper-mode bias {summary.bias!r}")
    return refs


# ---------------------------------------------------------------------------
# cli_cold: one `python -m myetrends` child at a time


@dataclass
class CliOp:
    args: list[str]
    expect: object  # callable(stdout) raising CheckFailed


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``-X importtime`` output."""
    cumulative = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            us = int(parts[1])
        except ValueError:
            continue  # the header line
        cumulative.setdefault(parts[2].strip(), us / 1e6)
    return cumulative


def cli_mix(ctx: Context, rng: random.Random) -> list[list[CliOp]]:
    """The fixed command mix, one list per bundled sample, with expected outputs.

    Inputs are the bundled samples and, written here, their imputed CSVs and
    a perturbed second region. Expected outputs come from in-process calls.
    """
    fs135 = ctx.design((1, 3, 5), 1)
    fs15 = ctx.design((1, 5), 1)
    trend = (Fraction(rng.randrange(1000, 5000)), Fraction(rng.randrange(10, 200)))
    sd = rng.choice((0.5, 1.0, 2.0))
    sim_seed = rng.randrange(2**32)
    sim = mt.SimulationSpec(trend, {1: sd, 5: sd}, "proper", 2010, 100_000, sim_seed, 1, 5)
    summary = ctx.tr.call("analysis.simulate_bias", mt.simulate_bias, sim, fs15,
                          **ctx.quantile_kwargs())
    sim_expected = {**summary.to_dict(),
                    "expected_bias": ctx.tr.call("analysis.expected_bias", mt.expected_bias,
                                                 sim.trend, sim.comparison_spec(), fs15)}
    sim_args = ["simulate", "--trend", ",".join(str(c) for c in trend), "--noise", str(sd),
                "--mode", "proper", "--t0", "2010", "--other-period", "5",
                "--replicates", str(sim.replicates), "--seed", str(sim_seed), "--format", "json"]

    def printed_linear(stdout: str) -> None:
        lines = set(stdout.splitlines())
        check(all(line in lines for line in PRINTED_LINEAR), "printed linear family differs")

    def demo(stdout: str) -> None:
        got = json.loads(stdout)
        check(got["total"] == DEMO_ROWS and got["failed"] == 0 and got["passed"],
              f"demo reproduces {got['total'] - got['failed']}/{got['total']}")

    def equals_json(expected: dict, label: str):
        def _check(stdout: str) -> None:
            check(json.loads(stdout) == expected, f"{label} output differs from in-process result")
        return _check

    mixes = []
    for name in SAMPLES:
        imputed = ctx.work / f"{name}-imputed.csv"
        code = cli.main(["impute", "--in", name, "--targets", SAMPLE_TARGETS, "-o", str(imputed)])
        check(code == 0, f"in-process impute of {name} exited {code}")
        impute_text = imputed.read_text(encoding="utf-8")
        series = ctx.tr.call("myeseries.load_csv", mt.load_csv, imputed)
        region_b = mt.MyeSeries(series.name, series.unit, {
            key: mt.ObservedValue(ov.value * (1 + 0.02 * rng.gauss(0, 1)), ov.provenance)
            for key, ov in series.items()})
        other = ctx.work / f"{name}-region-b.csv"
        ctx.tr.call("myeseries.write_csv", mt.write_csv, region_b, other)
        te = ctx.tr.call("analysis.trend_estimates", mt.trend_estimates, series, fs135, 2007)
        compat = ctx.tr.call("analysis.compatibility", mt.compatibility, series, (3, 5))
        comparison = ctx.tr.call("analysis.compare", mt.compare, mt.RegionPair(series, region_b),
                                 mt.ComparisonSpec("proper", 2007, 1, 5), fs15)

        def trends(stdout: str, expected=te.to_dict()["values"]) -> None:
            check(json.loads(stdout)["values"] == expected, "trends differ from in-process result")

        def impute(stdout: str, expected=impute_text) -> None:
            check(stdout == expected, "imputed CSV differs from in-process result")

        mixes.append([
            CliOp(["design", "--degree", "1", "--periods", "1,3,5"], printed_linear),
            CliOp(["impute", "--in", name, "--targets", SAMPLE_TARGETS], impute),
            CliOp(["trends", "--in", str(imputed), "--t0", "2007", "--format", "json"], trends),
            CliOp(["compat", "--in", str(imputed), "--periods", "3,5", "--format", "json"],
                  equals_json(compat.to_dict(), "compat")),
            CliOp(["compare", "--in-a", str(imputed), "--in-b", str(other), "--mode", "proper",
                   "--t0", "2007", "--other-period", "5", "--format", "json"],
                  equals_json(comparison.to_dict(), "compare")),
            CliOp(["demo", "--format", "json"], demo),
            CliOp(sim_args, equals_json(sim_expected, "simulate")),
        ])
    return mixes


def cli_main_probe(ctx: Context, passes: int = 3) -> float:
    """Median over passes of the mean ms per command of a warm, in-process
    ``cli.main`` on the cli_cold mix (first sample); one untimed warm-up pass."""
    mix = cli_mix(ctx, ctx.rng("cli_main_probe"))[0]
    out = ctx.work / "cli-main.out"
    per_pass = []
    for _ in range(passes + 1):
        t0 = time.perf_counter()
        for op in mix:
            code = cli.main([*op.args, "-o", str(out)])
            check(code == 0, f"in-process cli.main {op.args[0]} exited {code}")
        per_pass.append(1e3 * (time.perf_counter() - t0) / len(mix))
        op.expect(out.read_text(encoding="utf-8"))  # the last command's output
    return sorted(per_pass[1:])[len(per_pass[1:]) // 2]


class CliCold:
    """One ``python -m myetrends <cmd>`` child at a time over the fixed mix."""

    name = "cli_cold"
    gauge = "process"
    simulates = True

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.env = child_env(ctx.src)
        self.max_child_rss_kb = 0

    def setup(self) -> None:
        rng = self.ctx.rng(self.name)
        mixes = cli_mix(self.ctx, rng)
        # one command of each kind per cycle, each on a seeded sample
        self.cycle = [mixes[rng.randrange(len(mixes))][i] for i in range(len(mixes[0]))]

    def ops(self) -> list[CliOp]:
        return self.cycle

    def run(self, op: CliOp):
        traced = self.ctx.tr.enabled
        argv = [sys.executable, *(["-X", "importtime"] if traced else []), "-m", "myetrends",
                *op.args]
        res = run_child(argv, self.ctx.work, self.env, self.ctx.work)
        self.max_child_rss_kb = max(self.max_child_rss_kb, res.maxrss_kb)
        if traced:
            self.ctx.tr.record("import.myetrends", parse_importtime(res.stderr)["myetrends"])
        return 1, res

    def check(self, op: CliOp, res) -> None:
        check(res.returncode == 0, f"{op.args[0]} exited {res.returncode}: {res.stderr[-500:]}")
        op.expect(res.stdout)


# ---------------------------------------------------------------------------
# series_audit: load, impute, filter, audit and compare one region pair


@dataclass
class PairInput:
    path_a: Path
    path_b: Path
    out_a: Path
    out_b: Path
    degree: int
    targets: tuple[tuple[int, int], ...]
    hidden: dict[tuple[int, int], float]  # region A's values at gaps a line fills exactly
    years: range
    specs: list[mt.ComparisonSpec]


class SeriesAudit:
    """Each op audits one region pair; region A is noise-free."""

    name = "series_audit"
    gauge = "python"
    simulates = False
    SHORT = (10, 40)       # ACS-like end-year counts
    LONG_SCALE = 200       # Pareto(1) tail: 200 / (1 - p) end years ...
    LONG_CAP = 2000        # ... capped here
    GAP_RATE = 1 / 15      # interior 3y/5y publication gaps per year, at seeded years
    BOM_SHARE = 1 / 20

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def lengths(self, rng: random.Random) -> list[int]:
        # 39 + 6 puts the 90th percentile of op times in the middle of the
        # second-shortest long pair's times, not at an edge between pairs
        n_short, n_long = (7, 1) if self.ctx.tiny else (39, 6)
        lo, hi = self.SHORT
        short = [lo + round((hi - lo) * (i + rng.random()) / n_short) for i in range(n_short)]
        cap = 120 if self.ctx.tiny else self.LONG_CAP
        long = [round(min(cap, self.LONG_SCALE / (1 - (i + 0.5) / n_long))
                      * (1 - 0.02 * rng.random())) for i in range(n_long)]
        return short + long

    def setup(self) -> None:
        rng = self.ctx.rng(self.name)
        self.families = {d: self.ctx.design((1, 3, 5), d) for d in (1, 2)}
        self.pool = [self.make_pair(rng, i, n) for i, n in enumerate(self.lengths(rng))]
        rng.shuffle(self.pool)
        self.bom_written = max(1, round(len(self.pool) * self.BOM_SHARE))
        self.bom_rejected = sum(
            bom_rejected(self.ctx, p.path_a.with_suffix(".bom.csv"), mt.load_csv(p.path_a))
            for p in rng.sample(self.pool, self.bom_written))

    def make_pair(self, rng: random.Random, i: int, n: int) -> PairInput:
        start = 1000 + rng.randrange(800)
        end = start + n - 1
        # alternate along the length strata, so that each degree gets a
        # share of every length whatever the seed
        degree = 1 + i % 2
        c0 = rng.randrange(1000, 100_000)
        c1 = c0 * rng.randrange(0, 300) // 10_000
        c2 = rng.randrange(1, 10) if degree == 2 else 0
        full = noise_free_series((c0, c1, c2), start, end)
        interior = range(start + 2, end)
        gaps = [(k, t) for k in (3, 5)
                for t in rng.sample(interior, round(len(interior) * self.GAP_RATE))]
        gaps.append((5, end))
        a = without(full, gaps)
        b = mt.MyeSeries(a.name, a.unit, {
            key: mt.ObservedValue(ov.value * (1 + 0.01 * rng.gauss(0, 1)))
            for key, ov in a.items()})
        w = self.ctx.work
        pair = PairInput(w / f"pair{i}-a.csv", w / f"pair{i}-b.csv", w / f"pair{i}-a.out.csv",
                         w / f"pair{i}-b.out.csv", degree, tuple(sorted(gaps)),
                         {key: full.value(*key) for key in gaps if filled_exactly_on_line(key, gaps, end)},
                         range(0), [])
        mt.write_csv(a, pair.path_a)
        mt.write_csv(b, pair.path_b)
        fs = self.families[degree]
        # first end year at which every period's window is complete (1y
        # values start max(periods) - 1 = 4 years before the others)
        first = max((start - 4 if k == 1 else start) + fs.psi[k].degree for k in (1, 3, 5))
        pair.years = range(first, end + 1)
        pair.specs = [spec for t in pair.years for spec in (
            mt.ComparisonSpec("inapt", t, 1, 5), mt.ComparisonSpec("untimely", t, 5, 5),
            mt.ComparisonSpec("proper", t, 1, 5))]
        return pair

    def ops(self) -> list[PairInput]:
        return self.pool

    def run(self, p: PairInput):
        tr = self.ctx.tr
        fs = self.families[p.degree]
        a = tr.call("myeseries.load_csv", mt.load_csv, p.path_a)
        b = tr.call("myeseries.load_csv", mt.load_csv, p.path_b)
        fa = tr.call("myeseries.impute_random_walk", mt.impute_random_walk, a, p.targets)
        fb = tr.call("myeseries.impute_random_walk", mt.impute_random_walk, b, p.targets)
        trends_a = {t: tr.call("analysis.trend_estimates", mt.trend_estimates, fa, fs, t)
                    for t in p.years}
        for t in p.years:
            tr.call("analysis.trend_estimates", mt.trend_estimates, fb, fs, t)
        compat = [tr.call("analysis.compatibility", mt.compatibility, s, (3, 5),
                          include_imputed=inc) for s in (fa, fb) for inc in (True, False)]
        pair = mt.RegionPair(fa, fb)
        results = [tr.call("analysis.compare", mt.compare, pair, spec, fs) for spec in p.specs]
        tr.call("myeseries.write_csv", mt.write_csv, fa, p.out_a)
        tr.call("myeseries.write_csv", mt.write_csv, fb, p.out_b)
        return len(fa) + len(fb), (fa, fb, fs, trends_a, compat, results)

    def check(self, p: PairInput, out) -> None:
        fa, fb, fs, trends_a, compat, results = out
        check(all((k, t) in fa and fa.provenance(k, t) == mt.IMPUTED for k, t in p.targets),
              "a publication gap was not imputed")
        if p.degree == 1:
            # on a line, random-walk imputation recovers the hidden values
            for (k, t), truth in p.hidden.items():
                check(abs(fa.value(k, t) - truth) <= 1e-9 * abs(truth),
                      f"imputed {k}y {t} is {fa.value(k, t)!r}, the line gives {truth!r}")
        check(check_filtered_trend(fa, fs, trends_a) > 0, "no noise-free trend value checked")
        check(compat[1].c(3) < 1e-12 and compat[1].c(5) < 1e-12,
              "noise-free region has a nonzero NSR on published data")
        check(all(math.isfinite(r.c(k)) for r in compat for k in (3, 5)), "non-finite C")
        for res in results:
            t = res.spec.t0
            if res.spec.mode == "proper":
                check(res.value_a == trends_a[t].values[1], f"proper value_a at {t}")
            elif res.spec.mode == "inapt":
                check(res.value_a == fa.value(1, t) and res.value_b == fb.value(5, t),
                      f"inapt values at {t}")


# ---------------------------------------------------------------------------
# design_sweep: design, verify and measure one family per op


class DesignSweep:
    name = "design_sweep"
    gauge = "python"
    simulates = False

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def setup(self) -> None:
        rng = self.ctx.rng(self.name)
        if self.ctx.tiny:
            body, n_tail, n_other, repeats = [0, 1, 2, 3, 4, 5, 8], 1, 4, 1
        else:
            # mostly 0-5 and a few 6-10, four times over
            body = ([0] * 8 + [1] * 10 + [2] * 10 + [3] * 8 + [4] * 8 + [5] * 8
                    + [6, 6, 7, 7, 8, 8, 9, 10, 10])
            n_tail, n_other, repeats = 12, 96, 4
        # a tail above the warning threshold, stratified over 11..25
        tail = [11 + int(15 * (i + rng.random()) / n_tail) for i in range(n_tail)]
        degrees = body * repeats + tail
        # {1,3,5} for the tail and most of the body; the rest get distinct
        # subsets of 1..7 with 1 to 4 periods, on degrees 0-3. Larger subsets
        # cost as much as degree 6-10, so this keeps the seed from moving
        # the cost quantiles.
        subsets = [c for r in range(1, 5) for c in combinations(range(1, 8), r) if c != (1, 3, 5)]
        low = [i for i, d in enumerate(degrees) if d <= 3]
        periods = [(1, 3, 5)] * len(degrees)
        for i, ps in zip(rng.sample(low, n_other), rng.sample(subsets, n_other)):
            periods[i] = ps
        self.cycle = [mt.DesignSpec(ps, d) for ps, d in zip(periods, degrees)]
        rng.shuffle(self.cycle)

    def ops(self) -> list[mt.DesignSpec]:
        return self.cycle

    def run(self, spec: mt.DesignSpec):
        tr = self.ctx.tr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fs = tr.call("filterdesign.design_filters", mt.design_filters, spec)
        report = tr.call("filterdesign.verify_filter_set", mt.verify_filter_set, fs)
        vifs = [tr.call("filterdesign.variance_inflation", mt.variance_inflation, fs.psi[k])
                for k in spec.periods]
        return 1, (fs, report, vifs, len(caught))

    def check(self, spec: mt.DesignSpec, out) -> None:
        fs, report, vifs, n_warnings = out
        check(report.passed, f"{spec} fails verification:\n{report}")
        check((n_warnings > 0) == (spec.degree > DEGREE_WARN_ABOVE),
              f"{spec} issued {n_warnings} warnings")
        check(all(v > 0 for v in vifs), f"{spec} has a non-positive variance inflation")
        if spec.periods == (1, 3, 5) and spec.degree in KNOWN_FAMILIES:
            check(fs.to_dict() == KNOWN_FAMILIES[spec.degree], f"{spec} is not the known family")


# ---------------------------------------------------------------------------
# monte_carlo: one simulation plus its analytic bias per op


@dataclass
class SimCell:
    index: int
    spec: mt.SimulationSpec
    fs: mt.FilterSet | None


class MonteCarlo:
    name = "monte_carlo"
    gauge = "numpy"
    simulates = True

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.first_summary: dict[int, mt.SimulationSummary] = {}

    def setup(self) -> None:
        rng = self.ctx.rng(self.name)
        families = {d: self.ctx.design((1, 3, 5), d) for d in (1, 2)}
        kinds = (("inapt", None), ("untimely", None), ("proper", families[1]),
                 ("proper", families[2]))
        # replicate counts: midpoints of four log-spaced strata of [1e5, 1e6]
        strata = [10 ** (5 + (j + 0.5) / 4) for j in range(4)]
        scale = 100 if self.ctx.tiny else 1
        self.cycle = []
        for m, (mode, fs) in enumerate(kinds):
            for j, mid in enumerate(strata):
                other = 3 if (m + j) % 2 == 0 else 5
                ref = other if mode == "untimely" else 1
                sd = rng.uniform(0.5, 2.0)
                # noisy sides by cell, not by seed: they set how many draws
                # a replicate takes, and so which cells cost most
                sides = "both" if mode == "untimely" else ("both", "a", "b")[(m + j) % 3]
                noise = {"both": {ref: sd, other: sd}, "a": {ref: sd}, "b": {other: sd}}[sides]
                trend = polynomial_about(2010, (Fraction(rng.randrange(100, 10_000)),
                                                Fraction(rng.randrange(-200, 200), 10),
                                                Fraction(rng.randrange(-50, 50), 100)))
                reps = round(mid * (1 + 0.05 * (rng.random() - 0.5)) / scale)
                spec = mt.SimulationSpec(trend, noise, mode, 2010, reps,
                                         rng.randrange(2**63), ref, other)
                self.cycle.append(SimCell(len(self.cycle), spec, fs))
        rng.shuffle(self.cycle)

    def ops(self) -> list[SimCell]:
        return self.cycle

    def run(self, cell: SimCell):
        tr = self.ctx.tr
        summary = tr.call("analysis.simulate_bias", mt.simulate_bias, cell.spec, cell.fs,
                          **self.ctx.quantile_kwargs())
        expected = tr.call("analysis.expected_bias", mt.expected_bias, cell.spec.trend,
                           cell.spec.comparison_spec(), cell.fs)
        return cell.spec.replicates, (summary, expected)

    def check(self, cell: SimCell, out) -> None:
        summary, expected = out
        check(abs(summary.bias - expected) <= 6 * summary.std_error + 1e-9 * abs(expected),
              f"{cell.spec.mode} bias {summary.bias!r} vs expected {expected!r} "
              f"(se {summary.std_error!r})")
        # the same spec must give the same summary on every cycle, traced or not
        first = self.first_summary.setdefault(cell.index, summary)
        check(summary == first, f"{cell.spec.mode} summary changed between cycles")


WORKLOADS = {w.name: w for w in (CliCold, SeriesAudit, DesignSweep, MonteCarlo)}
