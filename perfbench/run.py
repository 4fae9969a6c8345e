#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout of the repository::

    python3 perfbench/run.py --workload series_audit --seed 1 --seconds 20 --trace 0

The program under test is ``src/myetrends`` beside this directory, imported
from source; without it the run exits with code 2 and prints no result.

With ``--trace 0`` the result holds the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run. The loop runs whole cycles of the workload's ops until
``--seconds`` have passed; a traced run alternates untraced and traced cycles
so that it can report the trace's own overhead. Lines before the JSON line
record the environment and a human-readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from children import child_env, run_child, time_until_ready
from gauge import SpeedGauge, one_cpu
from tracing import Tracer

# workloads imports myetrends, so functions import it only once main() has
# put the program's source on sys.path.

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cli_cold", "series_audit", "design_sweep", "monte_carlo")

# Set-up runs timed in fresh interpreters per run; setup_s is their median.
SETUP_REPEATS = 3
# Import probes per traced run; the import metrics are their medians.
IMPORT_REPEATS = 3

# Layer functions timed around the benchmark's calls; "<name>_ms" is the mean
# per call over the traced ops, or over the set-up reference check for a
# function the workload's ops do not call.
TIMED_CALLS = (
    "filterdesign.design_filters",
    "filterdesign.verify_filter_set",
    "filterdesign.variance_inflation",
    "myeseries.load_csv",
    "myeseries.impute_random_walk",
    "myeseries.write_csv",
    "analysis.trend_estimates",
    "analysis.compatibility",
    "analysis.compare",
    "analysis.simulate_bias",
    "analysis.expected_bias",
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="Run one myetrends benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measure whole cycles for at least this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics instead")
    p.add_argument("--tiny", action="store_true", help="small inputs and one set-up repeat, for the smoke check")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "limits": "timing is process-local (perf_counter, getrusage, wait4); no system-wide "
                  "profiler runs, no cache is dropped, no cgroup or kernel setting is changed",
    }


def time_setups(args, work: Path) -> list[float]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.tiny:
        argv.append("--tiny")
    setups = []
    with one_cpu():
        gauge = SpeedGauge("process")
        for _ in range(1 if args.tiny else SETUP_REPEATS):
            gauge.before(setups[-1] if setups else 0.0)
            seconds = time_until_ready(argv, ROOT, dict(os.environ), work)
            setups.append(seconds * gauge.factor(seconds))
    return setups


# -X importtime probes: the statement each runs, and the modules whose
# cumulative import time it reports. numpy and scipy.special are imported
# explicitly, so their cost is measured whether or not myetrends imports them.
IMPORT_PROBES = (
    ("import sys, myetrends; print(len(sys.modules))", ("myetrends",)),
    ("import numpy, scipy.special", ("numpy", "scipy.special")),
)


def import_probe(work: Path, repeats: int) -> dict[str, tuple[float, str, int]]:
    """Interpreter start and package import, each timed in fresh children.

    ``import.modules_loaded`` is the ``sys.modules`` count after ``import
    myetrends`` alone.
    """
    from workloads import parse_importtime

    env = child_env(SRC)
    ms = {"interp": [run_child([sys.executable, "-c", "pass"], work, env, work).seconds
                     for _ in range(repeats)]}
    modules = set()
    for statement, names in IMPORT_PROBES:
        for _ in range(repeats):
            res = run_child([sys.executable, "-X", "importtime", "-c", statement], work, env, work)
            if res.returncode != 0:
                raise RuntimeError(f"import probe exited {res.returncode}: {res.stderr[-500:]}")
            if res.stdout:
                modules.add(int(res.stdout))
            times = parse_importtime(res.stderr)
            for name in names:
                if name not in times:
                    raise RuntimeError(f"no import time for {name} in: {res.stderr[-500:]}")
                ms.setdefault(name.replace(".", "_"), []).append(times[name])
    if len(modules) != 1:
        raise RuntimeError(f"import loads a varying number of modules: {sorted(modules)}")
    metrics = {f"import.{name}_ms": (1e3 * statistics.median(values), "ms", repeats)
               for name, values in ms.items()}
    metrics["import.modules_loaded"] = (modules.pop(), "count", repeats)
    return metrics


def _by_op():
    return {False: defaultdict(list), True: defaultdict(list)}


@dataclass
class Loop:
    """What the measurement loop saw. ``raw[traced][i]`` and
    ``scaled[traced][i]`` hold the times of the i-th op of the cycle in
    every cycle where it completed, untraced or traced."""

    raw: dict = field(default_factory=_by_op)
    scaled: dict = field(default_factory=_by_op)
    units: dict[int, int] = field(default_factory=dict)  # work units of the i-th op
    covered_s: float = 0.0  # span time within completed traced ops
    attempted: int = 0
    failed: int = 0
    cycles: int = 0


def flat(times_by_op: dict[int, list[float]]) -> list[float]:
    return [t for times in times_by_op.values() for t in times]


def measure(wl, op_tr, seconds: float, traced_run: bool) -> Loop:
    """Run whole cycles of the workload's ops for at least ``seconds``.

    A traced run starts with a warm-up cycle, whose ops are checked but not
    timed, then alternates untraced and traced cycles and ends after a
    traced one, so both kinds cover the same ops. Each op's wall time is
    kept raw and scaled to the reference speed by a gauge sampled around
    it (see ``gauge.py``); gauge samples and output checks happen outside
    the op's timed interval.
    """
    from workloads import CheckFailed

    gauge = SpeedGauge(wl.gauge)
    last_s = {}  # the i-th op's latest time, to size the gauge sample before it
    loop = Loop()
    t_start = time.perf_counter()
    while True:
        warm_up = traced_run and loop.cycles == 0
        traced = traced_run and not warm_up and loop.cycles % 2 == 0
        op_tr.enabled = traced
        for i, op in enumerate(wl.ops()):
            loop.attempted += 1
            gauge.before(last_s.get(i, 0.0))
            spans_before = op_tr.covered_s
            t0 = time.perf_counter()
            try:
                units, out = wl.run(op)
                dt = last_s[i] = time.perf_counter() - t0
                factor = gauge.factor(dt)
                wl.check(op, out)
            except CheckFailed as exc:
                loop.failed += 1
                print(f"check failed: {exc}", file=sys.stderr)
                continue
            except Exception:
                loop.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            if warm_up:
                continue
            loop.raw[traced][i].append(dt)
            loop.scaled[traced][i].append(dt * factor)
            loop.units[i] = units
            loop.covered_s += op_tr.covered_s - spans_before
        loop.cycles += 1
        if time.perf_counter() - t_start >= seconds and (
                not traced_run or (loop.cycles >= 3 and loop.cycles % 2 == 1)):
            break
    op_tr.enabled = False
    return loop


def latency_metrics(times_by_op: dict[int, list[float]], units: dict[int, int]):
    """Latency quantiles over every op run, and throughput of a typical
    cycle: each op at its median time over the cycles (one client, no think
    time), so one disturbed cycle cannot move it."""
    lat = flat(times_by_op)
    cycle_s = sum(statistics.median(times) for times in times_by_op.values())
    work = sum(units[i] for i in times_by_op)
    # (value, unit, sample count)
    return {
        "op_p50_ms": (1e3 * statistics.median(lat), "ms", len(lat)),
        "op_p90_ms": (1e3 * statistics.quantiles(lat, n=10)[8], "ms", len(lat)),
        "ops_per_s": (len(times_by_op) / cycle_s, "1/s", len(lat)),
        "work_per_s": (work / cycle_s, "1/s", len(lat)),
    }


def end_to_end(wl, loop: Loop, setups: list[float]) -> dict[str, tuple[float, str, int]]:
    if wl.name == "cli_cold":
        peak_kb = wl.max_child_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        **latency_metrics(loop.scaled[False], loop.units),
        "peak_rss_mb": (peak_kb / 1024, "MB", 1),
    }


def per_layer(ctx, wl, loop: Loop, setup_tr, op_tr, refs, ref_draws, work: Path):
    from workloads import cli_main_probe

    metrics = {}
    for name in TIMED_CALLS:
        tr = op_tr if op_tr.calls[name] else setup_tr
        metrics[name + "_ms"] = (tr.mean_ms(name), "ms", tr.calls[name])
    # quantile time per simulate_bias call, so that simulate = quantile + self
    sim = "analysis.simulate_bias"
    tr = op_tr if op_tr.calls[sim] else setup_tr
    quantile_ms = 1e3 * tr.busy["analysis.quantile"] / tr.calls[sim]
    metrics["analysis.quantile_ms"] = (quantile_ms, "ms", tr.calls[sim])
    metrics["analysis.simulate_self_ms"] = (tr.mean_ms(sim) - quantile_ms, "ms", tr.calls[sim])
    metrics["analysis.quantile_draws"] = (ref_draws, "count", 1)
    metrics["ratpoly.coeff_bits"] = (refs["coeff_bits"], "bits", 1)
    bom = "myeseries.bom_load"
    metrics[bom + "_ms"] = (setup_tr.mean_ms(bom), "ms", setup_tr.calls[bom])

    metrics.update(import_probe(work, IMPORT_REPEATS))
    ctx.tr = Tracer(enabled=False)
    metrics["cli.main_ms"] = (cli_main_probe(ctx), "ms", 3)

    # the same ops ran in the untraced and the traced cycles
    traced = flat(loop.scaled[True])
    overhead = sum(traced) / sum(flat(loop.scaled[False])) - 1
    metrics["trace.overhead_pct"] = (100 * overhead, "%", len(traced))
    coverage = loop.covered_s / sum(flat(loop.raw[True]))
    metrics["trace.coverage_pct"] = (100 * coverage, "%", len(traced))
    return metrics


def run(args, work: Path) -> int:
    import myetrends

    if Path(myetrends.__file__).resolve().parent != (SRC / "myetrends").resolve():
        print(f"error: imported myetrends from {myetrends.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Context, reference_check

    setup_tr, op_tr = Tracer(enabled=bool(args.trace)), Tracer()
    wl_class = WORKLOADS[args.workload]
    ctx = Context(SRC, work, args.seed, args.tiny, setup_tr)
    # the reference check simulates only where ops simulate too, or in a
    # traced run, which reports simulation metrics on every workload
    refs = reference_check(ctx, simulate=wl_class.simulates or bool(args.trace))
    ref_draws = setup_tr.counts["analysis.quantile_draws"]
    wl = wl_class(ctx)
    wl.setup()
    if args.setup_only:
        print("ready", flush=True)
        return 0
    setups = [] if args.trace else time_setups(args, work)

    ctx.tr = op_tr
    with one_cpu() if wl.gauge == "process" else contextlib.nullcontext():
        loop = measure(wl, op_tr, args.seconds, bool(args.trace))
    if not loop.raw[False] or (args.trace and not loop.raw[True]):
        print(f"error: all {loop.attempted} ops failed", file=sys.stderr)
        return 1
    # UTF-8-BOM inputs are loaded at set-up, not in ops (see README.md)
    bom_written = refs["bom_written"] + getattr(wl, "bom_written", 0)
    bom_rejected = refs["bom_rejected"] + getattr(wl, "bom_rejected", 0)
    if args.trace:
        metrics = per_layer(ctx, wl, loop, setup_tr, op_tr, refs, ref_draws, work)
    else:
        metrics = end_to_end(wl, loop, setups)

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"summary workload={args.workload} seed={args.seed} trace={args.trace} "
          f"cycles={loop.cycles} ops_per_cycle={len(wl.ops())} attempted={loop.attempted} "
          f"failed={loop.failed} failed_frac={loop.failed / loop.attempted:.4f} "
          f"bom_rejected={bom_rejected}/{bom_written}"
          + (f" setup_samples_s={[round(x, 4) for x in setups]}" if setups else ""))
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    if not args.trace:
        for name, (value, unit, n) in latency_metrics(loop.raw[False], loop.units).items():
            print(f"unscaled {name} = {value:.6g} {unit} (n={n})")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds, so children are reaped and files removed


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not (SRC / "myetrends" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'myetrends'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


if __name__ == "__main__":
    sys.exit(main())
