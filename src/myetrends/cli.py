"""Command-line front end.

Subcommands map one-to-one onto the library: ``design`` (filter families),
``impute`` (fill gaps), ``trends`` (filtered estimates), ``compat`` (NSR
diagnostics), ``compare`` (cross-region discrepancy), ``simulate`` (seeded
Monte Carlo bias), and ``demo`` (reproduce the bundled-data reference
results end to end).

Exit codes: 0 success, 1 data or computation error, 2 usage error.
:func:`main` returns 0 or 1; a usage error, whether argparse or the
library rejects a flag value, prints the subcommand's usage line and
raises ``SystemExit(2)``.
``impute`` writes CSV; every other subcommand's output format is
``--format`` (default text).
JSON output is key-sorted so identical runs are byte-identical, and writes
NaN and infinities as null.
The parsed argument namespace is the whole configuration. Flags the parser
can check alone (integers, ``--periods`` distinct and at least 1,
``--degree`` at least 0) are checked before any input file is read.
Each subcommand imports the library modules it runs inside its ``cmd_*``
function, so a process loads only those.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from . import __version__
from .exceptions import MODES, MyeTrendsError, check_int

if TYPE_CHECKING:
    from fractions import Fraction

    from .analysis import ComparisonSpec
    from .filterdesign import FilterSet

_FORMATS = ("text", "json")


def _finite_or_null(value):
    """``value`` with every NaN or infinity replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _report(args: argparse.Namespace, payload: dict, lines: list[str]) -> None:
    """Write a command's result: ``payload`` as JSON, or ``lines`` as text."""
    if args.format == "json":
        text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False)
    else:
        text = "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# argument parsing helpers


def _parse_periods(text: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"periods must be comma-separated integers, got {text!r}")
    if min(ks) < 1 or len(set(ks)) != len(ks):
        raise argparse.ArgumentTypeError(f"periods must be distinct integers >= 1, got {text!r}")
    return ks


def _parse_degree(text: str) -> int:
    try:
        degree = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"degree must be an integer >= 0, got {text!r}")
    return check_int(degree, "degree", 0, argparse.ArgumentTypeError)


def _parse_targets(text: str) -> tuple[tuple[int, int], ...]:
    targets = []
    for tok in text.split(","):
        parts = tok.split(":")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(
                f"target {tok!r} must look like PERIOD:ENDYEAR, e.g. 3:2006"
            )
        try:
            targets.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise argparse.ArgumentTypeError(f"target {tok!r} has non-integer parts")
    return tuple(targets)


def _parse_trend(text: str) -> tuple[Fraction, ...]:
    from fractions import Fraction

    try:
        return tuple(Fraction(tok.strip()) for tok in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"trend must be comma-separated numbers (fractions allowed), got {text!r}"
        )


def _parse_noise(text: str):
    """Either one standard deviation for every period, or PERIOD:SD pairs."""
    toks = [t.strip() for t in text.split(",") if t.strip()]
    if not toks:
        raise argparse.ArgumentTypeError("noise must not be empty")
    if all(":" in t for t in toks):
        out = {}
        for t in toks:
            k, sd = t.split(":", 1)
            try:
                out[int(k)] = float(sd)
            except ValueError:
                raise argparse.ArgumentTypeError(f"noise entry {t!r} is not PERIOD:SD")
        return out
    if len(toks) == 1 and ":" not in toks[0]:
        try:
            return float(toks[0])
        except ValueError:
            raise argparse.ArgumentTypeError(f"noise {text!r} is not a number")
    raise argparse.ArgumentTypeError(
        f"noise must be a single number or PERIOD:SD pairs, got {text!r}"
    )


def _add_format_and_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=_FORMATS, default="text", help="output format (default: text)")
    p.add_argument("-o", "--out", default=None, help="write output to this file instead of stdout")


def _add_comparison_args(p: argparse.ArgumentParser) -> None:
    """The flags :func:`_comparison_from_args` reads."""
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--t0", type=int, required=True, help="end year of the comparison")
    p.add_argument("--reference-period", type=int, default=None, help="region A period (default: 1, or the other period for untimely)")
    p.add_argument("--other-period", type=int, default=3, help="region B period (default 3)")
    p.add_argument("--degree", type=_parse_degree, default=1, help="proper mode: trend degree (default 1)")
    p.add_argument("--periods", type=_parse_periods, default=None, help="proper mode: design periods (default: the periods involved)")


def _load_series_arg(path: str):
    """A CLI input is a CSV path, or the name of a bundled sample."""
    from .datasets import load_sample, sample_names
    from .myeseries import load_csv

    if path in sample_names():
        return load_sample(path)
    return load_csv(path)


# ---------------------------------------------------------------------------
# subcommands


def cmd_design(args) -> int:
    from .filterdesign import DesignSpec, design_filters, variance_inflation, verify_filter_set

    fs = design_filters(DesignSpec(args.periods, args.degree))
    report = verify_filter_set(fs)
    checks = [{"name": c.name, "passed": c.passed, "residual": c.residual} for c in report.checks]
    payload = {"filters": fs.to_dict(), "verification": {"passed": report.passed, "checks": checks}}
    lines = [f"design: {fs.spec}", f"phi    : {fs.phi}"]
    lines += [f"psi[{k}] : {fs.psi[k]}" for k in fs.spec.periods]
    lines.append(f"common : {fs.common}")
    for k in fs.spec.periods:
        vif = variance_inflation(fs.psi[k])
        lines.append(f"variance inflation psi[{k}]: {vif} ({float(vif):.2f})")
    lines += ["verification:", str(report)]
    lines.append("all checks passed" if report.passed else "VERIFICATION FAILED")
    _report(args, payload, lines)
    return 0 if report.passed else 1


def cmd_impute(args) -> int:
    from .myeseries import impute_random_walk, write_csv

    series = _load_series_arg(args.input)
    filled = impute_random_walk(series, args.targets)
    write_csv(filled, args.out or sys.stdout)
    return 0


def cmd_trends(args) -> int:
    from .analysis import trend_estimates
    from .filterdesign import DesignSpec, design_filters
    from .myeseries import display_decimals, render_value

    series = _load_series_arg(args.input)
    spec = DesignSpec(args.periods or series.periods(), args.degree)
    fs = design_filters(spec)
    te = trend_estimates(series, fs, args.t0)
    dec = display_decimals(series.unit)
    rendered = {k: render_value(v, dec) for k, v in te.values.items()}
    payload = {**te.to_dict(), "series": series.name, "unit": series.unit,
               "rendered": {str(k): v for k, v in rendered.items()}}
    lines = [
        f"trend estimates for {series.name} at {te.at} "
        f"(degree {spec.degree}, periods {','.join(map(str, spec.periods))})"
    ]
    lines += [f"  {k}y: {rendered[k]}" for k in spec.periods]
    _report(args, payload, lines)
    return 0


def cmd_compat(args) -> int:
    from .analysis import compatibility
    from .myeseries import render_value

    series = _load_series_arg(args.input)
    periods = args.periods or tuple(k for k in series.periods() if k > 1)
    if not periods:
        raise ValueError("no periods above 1 to audit; pass --periods")
    report = compatibility(
        series, periods, log_base=args.log_base, include_imputed=not args.exclude_imputed
    )
    scope = "imputed excluded" if args.exclude_imputed else "imputed included"
    lines = [f"compatibility for {series.name} (log base {report.log_base}, {scope})"]
    for k, entry in sorted(report.entries.items()):
        years = sorted(entry.nsr)
        lines.append(f"  C({k}y) = {render_value(entry.c, 3)}  over {years[0]}-{years[-1]}")
    _report(args, report.to_dict(), lines)
    return 0


def _comparison_from_args(args) -> tuple[ComparisonSpec, Optional[FilterSet]]:
    """The comparison the flags describe, and the filter family proper mode needs."""
    from .analysis import ComparisonSpec

    ref = args.reference_period
    if ref is None:
        ref = args.other_period if args.mode == "untimely" else 1
    cspec = ComparisonSpec(args.mode, args.t0, ref, args.other_period)
    fs = None
    if args.mode == "proper":
        from .filterdesign import DesignSpec, design_filters

        periods = args.periods or tuple(sorted({1, ref, args.other_period}))
        fs = design_filters(DesignSpec(periods, args.degree))
    return cspec, fs


def cmd_compare(args) -> int:
    from .analysis import compare
    from .myeseries import RegionPair, display_decimals, render_value

    cspec, fs = _comparison_from_args(args)
    series_a = _load_series_arg(args.input_a)
    series_b = _load_series_arg(args.input_b)
    result = compare(RegionPair(series_a, series_b), cspec, fs)
    dec = display_decimals(series_a.unit)
    _report(args, result.to_dict(), [
        f"{args.mode} comparison of {series_a.name} at {args.t0}: "
        f"a({result.reference_period_used}y) = {render_value(result.value_a, dec)}, "
        f"b({result.other_period_used}y) = {render_value(result.value_b, dec)}, "
        f"discrepancy = {result.percent()}%"
    ])
    return 0


def cmd_simulate(args) -> int:
    from .analysis import expected_bias
    from .simulation import SimulationSpec, simulate_bias

    cspec, fs = _comparison_from_args(args)
    noise = args.noise
    if isinstance(noise, float):
        noise = {k: noise for k in {cspec.reference_period, cspec.other_period}}
    sspec = SimulationSpec(
        trend=args.trend,
        noise_sd=noise,
        mode=cspec.mode,
        t0=cspec.t0,
        replicates=args.replicates,
        seed=args.seed,
        reference_period=cspec.reference_period,
        other_period=cspec.other_period,
    )
    summary = simulate_bias(sspec, fs)
    analytic = expected_bias(sspec.trend, cspec, fs)
    _report(args, {**summary.to_dict(), "expected_bias": analytic}, [
        f"simulated {args.mode} comparison, {summary.replicates} replicates, seed {summary.seed}",
        f"  bias          : {summary.bias!r}",
        f"  expected bias : {analytic!r}",
        f"  std error     : {summary.std_error!r}",
        f"  var(a), var(b): {summary.var_a!r}, {summary.var_b!r}",
    ])
    return 0


# ---------------------------------------------------------------------------
# demo: recompute every reference value from the bundled data

# Expected values at printed precision. Each percentage row carries its own
# decimal count, matching the precision the reference results use.
_DEMO_REFERENCE = {
    "income": {
        "decimals": 0,
        "imputed": ("42395", "41328", "42600"),
        "trends": ("43570", "45223", "45320"),
        "c": ("0.017", "0.020"),
        "inapt": ((3, "1.9", 1), (5, "-2.2", 1)),
        "proper": ((3, "3.8", 1), (5, "4.0", 1)),
    },
    "divorce": {
        "decimals": 0,
        "imputed": ("17371", "16181", "16417"),
        "trends": ("19331", "19217", "16695"),
        "c": ("0.008", "0.042"),
        "inapt": ((3, "-13.7", 1), (5, "-24.8", 1)),
        "proper": ((3, "-0.59", 2), (5, "-13.6", 1)),
    },
    "age": {
        "decimals": 2,
        "imputed": ("37.35", "37.45", "37.70"),
        "trends": ("37.59", "37.59", "38.25"),
        "c": ("0.002", "0.004"),
        "inapt": ((3, "-0.53", 2), (5, "0.27", 2)),
        "proper": ((3, "0", 0), (5, "1.8", 1)),
    },
}


def demo_rows() -> list[dict]:
    """Recompute all reference quantities; one row per comparison.

    Proper-mode percentages are computed from the trend values at printed
    precision (the precision the reference table reports), not from full
    double precision; with full precision one value rounds differently.
    """
    from .analysis import ComparisonSpec, compare, compatibility, trend_estimates
    from .datasets import STANDARD_TARGETS, load_sample
    from .filterdesign import DesignSpec, design_filters
    from .myeseries import RegionPair, impute_random_walk, render_value

    fs = design_filters(DesignSpec((1, 3, 5), 1))
    rows: list[dict] = []

    def add(variable: str, quantity: str, computed: str, expected: str) -> None:
        rows.append(
            {
                "variable": variable,
                "quantity": quantity,
                "computed": computed,
                "expected": expected,
                "pass": computed == expected,
            }
        )

    for name, ref in _DEMO_REFERENCE.items():
        dec = ref["decimals"]
        series = load_sample(name)
        full = impute_random_walk(series, STANDARD_TARGETS)
        for (k, t), expected in zip(STANDARD_TARGETS, ref["imputed"]):
            add(name, f"imputed {k}y {t}", render_value(full.value(k, t), dec), expected)
        te = trend_estimates(full, fs, 2007)
        rendered = {k: render_value(te.values[k], dec) for k in (1, 3, 5)}
        for k, expected in zip((1, 3, 5), ref["trends"]):
            add(name, f"trend {k}y 2007", rendered[k], expected)
        comp = compatibility(full, (3, 5))
        for k, expected in zip((3, 5), ref["c"]):
            add(name, f"C {k}y", render_value(comp.c(k), 3), expected)
        pair = RegionPair(full, full)
        for k, expected, pdec in ref["inapt"]:
            res = compare(pair, ComparisonSpec("inapt", 2007, 1, k))
            add(name, f"inapt 1y vs {k}y %", res.percent(pdec), expected)
        for k, expected, pdec in ref["proper"]:
            va = float(rendered[1])
            vb = float(rendered[k])
            pct = render_value(100.0 * (vb / va - 1.0), pdec)
            add(name, f"proper 1y vs {k}y trend %", pct, expected)
    return rows


def cmd_demo(args) -> int:
    rows = demo_rows()
    failed = [r for r in rows if not r["pass"]]
    payload = {"rows": rows, "total": len(rows), "failed": len(failed), "passed": not failed}
    lines = [
        "reference reproduction from bundled data",
        "(proper-mode percentages use trend values at printed precision)",
        "",
        f"{'variable':<9} {'quantity':<28} {'computed':>10} {'expected':>10}  result",
    ]
    for r in rows:
        flag = "ok" if r["pass"] else "FAIL"
        lines.append(
            f"{r['variable']:<9} {r['quantity']:<28} "
            f"{r['computed']:>10} {r['expected']:>10}  {flag}"
        )
    lines += ["", f"{len(rows) - len(failed)}/{len(rows)} values reproduce"
              + ("" if not failed else "  <-- MISMATCH")]
    _report(args, payload, lines)
    return 0 if not failed else 1


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="myetrends",
        description="Trend-preserving filters and diagnostics for rolling multi-year estimates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("design", help="design and verify a concurrent filter family")
    p.add_argument("--degree", type=_parse_degree, required=True, help="polynomial trend degree to preserve")
    p.add_argument("--periods", type=_parse_periods, required=True, help="comma-separated period lengths, e.g. 1,3,5")
    _add_format_and_out(p)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("impute", help="fill missing observations by random-walk forecasting")
    p.add_argument("--in", dest="input", required=True, help="input CSV path (or bundled sample name)")
    p.add_argument("--targets", type=_parse_targets, required=True, help="comma-separated PERIOD:ENDYEAR keys, e.g. 3:2006,5:2007")
    p.add_argument("-o", "--out", default=None, help="write the CSV to this file instead of stdout")
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("trends", help="filtered trend estimates at one end year")
    p.add_argument("--in", dest="input", required=True, help="input CSV path (or bundled sample name)")
    p.add_argument("--t0", type=int, required=True, help="end year for the estimates")
    p.add_argument("--degree", type=_parse_degree, default=1, help="trend degree (default 1)")
    p.add_argument("--periods", type=_parse_periods, default=None, help="periods to design for (default: all in the input)")
    _add_format_and_out(p)
    p.set_defaults(func=cmd_trends)

    p = sub.add_parser("compat", help="NSR compatibility diagnostics")
    p.add_argument("--in", dest="input", required=True, help="input CSV path (or bundled sample name)")
    p.add_argument("--periods", type=_parse_periods, default=None, help="periods to audit (default: all above 1)")
    p.add_argument("--log-base", choices=("10", "e"), default="10", help="logarithm base (default 10)")
    p.add_argument("--exclude-imputed", action="store_true", help="drop years whose values touch imputed data")
    _add_format_and_out(p)
    p.set_defaults(func=cmd_compat)

    p = sub.add_parser("compare", help="compare two regions' estimates at one end year")
    p.add_argument("--in-a", dest="input_a", required=True, help="region A CSV (reference side)")
    p.add_argument("--in-b", dest="input_b", required=True, help="region B CSV")
    _add_comparison_args(p)
    _add_format_and_out(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate", help="Monte Carlo comparison-bias experiment")
    p.add_argument("--trend", type=_parse_trend, required=True, help="trend coefficients a0,a1,... (fractions allowed)")
    p.add_argument("--noise", type=_parse_noise, default=0.0, help="noise sd: one number for all periods, or PERIOD:SD pairs")
    p.add_argument("--replicates", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    _add_comparison_args(p)
    _add_format_and_out(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("demo", help="recompute the bundled reference results and check them")
    _add_format_and_out(p)
    p.set_defaults(func=cmd_demo)

    # main reports a flag value the library rejects with its command's usage
    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MyeTrendsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # validation surfaced from library objects built off flag values
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
