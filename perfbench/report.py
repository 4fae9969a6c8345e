#!/usr/bin/env python3
"""Print every workload's metrics, by name and with units, in one table.

    python3 perfbench/report.py [--seed 1] [--seconds 20]

Runs ``run.py`` once per workload, one after another. Besides the metrics in
each result it prints the failed share of ops, and ``work_per_s`` under the
name that fits the workload (commands, observations, families or
replicates per second).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("cli_cold", "series_audit", "design_sweep", "monte_carlo")
WORK_NAMES = {
    "cli_cold": "commands_per_s",
    "series_audit": "obs_per_s",
    "design_sweep": "families_per_s",
    "monte_carlo": "replicates_per_s",
}
RUN_TIMEOUT_S = 900


def run_workload(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    """One ``run.py`` run; returns its JSON result, or raises with its stderr."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        argv.append("--tiny")
    proc = subprocess.run(argv, cwd=BENCH.parent, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    args = p.parse_args(argv)
    for workload in WORKLOADS:
        res = run_workload(workload, args.seed, args.seconds, 0, False)
        print(f"{workload}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} failed_frac={res['failed'] / res['attempted']:.4f}")
        for name, m in res["metrics"].items():
            print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
            if name == "work_per_s":
                print(f"  {WORK_NAMES[workload]:36s} {m['value']:14.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
