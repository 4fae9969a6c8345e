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
function, so a process loads only those, and :func:`main` builds only the
invoked subcommand's parser.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .exceptions import MODES, MyeTrendsError, _to_float, check_int

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional, Sequence

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


def _report(args: argparse.Namespace, payload: dict, lines: list[str],
            warned: Sequence[str] = ()) -> None:
    """Write a command's result: ``payload`` as JSON, or ``lines`` as text.
    Nonempty ``warned`` messages go into the JSON under ``"warnings"``."""
    if args.format == "json":
        import json

        if warned:
            payload = {**payload, "warnings": warned}
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


def _parse_noise(text: str):
    """Either one standard deviation for every period, or PERIOD:SD pairs.

    Each SD stays a string, which :class:`SimulationSpec` converts and checks.
    """
    toks = [t.strip() for t in text.split(",") if t.strip()]
    if not toks:
        raise argparse.ArgumentTypeError("noise must not be empty")
    if all(":" in t for t in toks):
        out = {}
        for t in toks:
            k, sd = t.split(":", 1)
            try:
                k = int(k)
            except ValueError:
                raise argparse.ArgumentTypeError(f"noise entry {t!r} is not PERIOD:SD")
            if k in out:
                raise argparse.ArgumentTypeError(f"noise period {k} is repeated, got {text!r}")
            out[k] = sd
        return out
    if len(toks) == 1:
        return toks[0]
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


def _design(periods: Sequence[int], degree: int) -> tuple[FilterSet, list[str]]:
    """The filter family for ``periods`` and ``degree``, and the message of
    each warning the design issued. Each also goes to stderr as one
    ``warning:`` line; the interpreter's warning filters still apply, but
    one that turns a warning into an error prints it instead."""
    import warnings

    from .filterdesign import DesignSpec, design_filters

    with warnings.catch_warnings(record=True) as caught:
        warnings.filters[:] = [("default", *f[1:]) if f[0] == "error" else f
                               for f in warnings.filters]
        fs = design_filters(DesignSpec(periods, degree))
    warned = [str(w.message) for w in caught]
    for message in warned:
        print(f"warning: {message}", file=sys.stderr)
    return fs, warned


# ---------------------------------------------------------------------------
# subcommands


def cmd_design(args) -> int:
    from .filterdesign import variance_inflation, verify_filter_set

    fs, warned = _design(args.periods, args.degree)
    report = verify_filter_set(fs)
    checks = [dict(vars(c)) for c in report.checks]
    payload = {"filters": fs.to_dict(), "verification": {"passed": report.passed, "checks": checks}}
    lines = [f"design: {fs.spec}", f"phi    : {fs.phi}"]
    lines += [f"psi[{k}] : {fs.psi[k]}" for k in fs.spec.periods]
    lines.append(f"common : {fs.common}")
    for k in fs.spec.periods:
        vif = variance_inflation(fs.psi[k])
        vif_f = _to_float(vif, f"variance inflation psi[{k}]")
        lines.append(f"variance inflation psi[{k}]: {vif} ({vif_f:.2f})")
    lines += ["verification:", str(report)]
    lines.append("all checks passed" if report.passed else "VERIFICATION FAILED")
    _report(args, payload, lines, warned)
    return 0 if report.passed else 1


def cmd_impute(args) -> int:
    from .myeseries import impute_random_walk, write_csv

    series = _load_series_arg(args.input)
    filled = impute_random_walk(series, args.targets)
    write_csv(filled, args.out or sys.stdout)
    return 0


def cmd_trends(args) -> int:
    from .analysis import trend_estimates
    from .myeseries import display_decimals, render_value

    series = _load_series_arg(args.input)
    fs, warned = _design(args.periods or series.periods(), args.degree)
    spec = fs.spec
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
    _report(args, payload, lines, warned)
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


def _comparison_from_args(args) -> tuple[ComparisonSpec, Optional[FilterSet], list[str]]:
    """The comparison the flags describe, the filter family proper mode
    needs, and that design's warning messages."""
    from .analysis import ComparisonSpec

    cspec = ComparisonSpec(args.mode, args.t0, args.reference_period, args.other_period)
    fs, warned = None, []
    if args.mode == "proper":
        periods = args.periods or tuple(sorted({1, cspec.reference_period, args.other_period}))
        fs, warned = _design(periods, args.degree)
    return cspec, fs, warned


def cmd_compare(args) -> int:
    from .analysis import compare
    from .myeseries import RegionPair, display_decimals, render_value

    cspec, fs, warned = _comparison_from_args(args)
    series_a = _load_series_arg(args.input_a)
    series_b = _load_series_arg(args.input_b)
    result = compare(RegionPair(series_a, series_b), cspec, fs)
    dec = display_decimals(series_a.unit)
    _report(args, result.to_dict(), [
        f"{args.mode} comparison of {series_a.name} at {args.t0}: "
        f"a({result.reference_period_used}y) = {render_value(result.value_a, dec)}, "
        f"b({result.other_period_used}y) = {render_value(result.value_b, dec)}, "
        f"discrepancy = {result.percent()}%"
    ], warned)
    return 0


def cmd_simulate(args) -> int:
    from .analysis import expected_bias
    from .simulation import SimulationSpec, simulate_bias

    cspec, fs, warned = _comparison_from_args(args)
    noise = args.noise
    if not isinstance(noise, dict):
        noise = {k: noise for k in {cspec.reference_period, cspec.other_period}}
    sspec = SimulationSpec(
        trend=args.trend.split(","),
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
    ], warned)
    return 0


def cmd_demo(args) -> int:
    # the reference table and the checks against it live in their own module,
    # which no other command loads
    from .demo import cmd_demo

    return cmd_demo(args)


# ---------------------------------------------------------------------------
# parser assembly


def _design_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--degree", type=_parse_degree, required=True, help="polynomial trend degree to preserve")
    p.add_argument("--periods", type=_parse_periods, required=True, help="comma-separated period lengths, e.g. 1,3,5")
    _add_format_and_out(p)


def _impute_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="input", required=True, help="input CSV path (or bundled sample name)")
    p.add_argument("--targets", type=_parse_targets, required=True, help="comma-separated PERIOD:ENDYEAR keys, e.g. 3:2006,5:2007")
    p.add_argument("-o", "--out", default=None, help="write the CSV to this file instead of stdout")


def _trends_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="input", required=True, help="input CSV path (or bundled sample name)")
    p.add_argument("--t0", type=int, required=True, help="end year for the estimates")
    p.add_argument("--degree", type=_parse_degree, default=1, help="trend degree (default 1)")
    p.add_argument("--periods", type=_parse_periods, default=None, help="periods to design for (default: all in the input)")
    _add_format_and_out(p)


def _compat_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="input", required=True, help="input CSV path (or bundled sample name)")
    p.add_argument("--periods", type=_parse_periods, default=None, help="periods to audit (default: all above 1)")
    p.add_argument("--log-base", choices=("10", "e"), default="10", help="logarithm base (default 10)")
    p.add_argument("--exclude-imputed", action="store_true", help="drop years whose values touch imputed data")
    _add_format_and_out(p)


def _compare_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in-a", dest="input_a", required=True, help="region A CSV (reference side)")
    p.add_argument("--in-b", dest="input_b", required=True, help="region B CSV")
    _add_comparison_args(p)
    _add_format_and_out(p)


def _simulate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trend", required=True, help="trend coefficients a0,a1,... (fractions allowed)")
    p.add_argument("--noise", type=_parse_noise, default="0", help="noise sd: one number for all periods, or PERIOD:SD pairs")
    p.add_argument("--replicates", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    _add_comparison_args(p)
    _add_format_and_out(p)


# Each subcommand's help line, flags and function, in the order --help lists them.
_COMMANDS = {
    "design": ("design and verify a concurrent filter family", _design_flags, cmd_design),
    "impute": ("fill missing observations by random-walk forecasting", _impute_flags, cmd_impute),
    "trends": ("filtered trend estimates at one end year", _trends_flags, cmd_trends),
    "compat": ("NSR compatibility diagnostics", _compat_flags, cmd_compat),
    "compare": ("compare two regions' estimates at one end year", _compare_flags, cmd_compare),
    "simulate": ("Monte Carlo comparison-bias experiment", _simulate_flags, cmd_simulate),
    "demo": ("recompute the bundled reference results and check them", _add_format_and_out, cmd_demo),
}


def build_parser(commands: Sequence[str] = tuple(_COMMANDS)) -> argparse.ArgumentParser:
    """The command-line parser, with a subparser for each of ``commands``
    (by default all of them)."""
    parser = argparse.ArgumentParser(
        prog="myetrends",
        description="Trend-preserving filters and diagnostics for rolling multi-year estimates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name in commands:
        help_text, add_flags, func = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_flags(p)
        # main reports a flag value the library rejects with its command's usage
        p.set_defaults(func=func, parser=p)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a run builds only its own command's subparser; --help, --version and
    # a missing or unknown command get the full parser, which lists them all
    command = argv[0] if argv else None
    parser = build_parser((command,)) if command in _COMMANDS else build_parser()
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
