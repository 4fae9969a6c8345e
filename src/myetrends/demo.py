"""The ``demo`` command: recompute every reference value from the bundled data.

Each bundled sample is imputed at the standard targets, filtered, audited
and compared, and every result is printed at the precision the reference
table reports and checked against it. Only the ``demo`` command loads this
module.
"""

from __future__ import annotations

from .analysis import ComparisonSpec, compare, compatibility, trend_estimates
from .cli import _report
from .datasets import STANDARD_TARGETS, load_sample
from .filterdesign import DesignSpec, design_filters
from .myeseries import RegionPair, display_decimals, impute_random_walk, render_value

# Expected values at printed precision: values print at their unit's display
# decimals, and each percentage row carries its own decimal count, matching
# the precision the reference results use.
_DEMO_REFERENCE = {
    "income": {
        "imputed": ("42395", "41328", "42600"),
        "trends": ("43570", "45223", "45320"),
        "c": ("0.017", "0.020"),
        "inapt": ((3, "1.9", 1), (5, "-2.2", 1)),
        "proper": ((3, "3.8", 1), (5, "4.0", 1)),
    },
    "divorce": {
        "imputed": ("17371", "16181", "16417"),
        "trends": ("19331", "19217", "16695"),
        "c": ("0.008", "0.042"),
        "inapt": ((3, "-13.7", 1), (5, "-24.8", 1)),
        "proper": ((3, "-0.59", 2), (5, "-13.6", 1)),
    },
    "age": {
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
        series = load_sample(name)
        dec = display_decimals(series.unit)
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
