#!/usr/bin/env python3
"""Smoke check of the benchmark: every workload at tiny size, in both modes.

    python3 perfbench/smoke.py

Checks that ``BENCHMARK.json`` keeps its format's limits; that each tiny run
exits 0 with a last line holding exactly ``correct``, ``attempted``,
``failed`` and ``metrics``, and ``correct`` true; that the metrics are
exactly the end-to-end ones (``--trace 0``) or the per-layer ones
(``--trace 1``), each with the unit ``BENCHMARK.json`` gives and a name
matching ``[A-Za-z0-9_.-]+``; and that ``run.py``, copied without the
program's source, exits non-zero without printing a result. Takes under a
minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from report import WORKLOADS, run_workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def check_spec(spec: dict) -> list[str]:
    problems = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    need(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
         f"top-level keys are {sorted(spec)}")
    cmd = spec["command"]
    need(1 <= len(cmd) <= 32 and all(isinstance(a, str) and len(a) <= 200 for a in cmd),
         "command must be 1-32 strings of at most 200 characters")
    need(not any(a.startswith("/") or ".." in a.split("/") for a in cmd), "command leaves the repo")
    paths = spec["paths"]
    need(1 <= len(paths) <= 16 and all(PATH.fullmatch(p) for p in paths), f"bad paths {paths}")
    need(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
         "run_seconds must be a whole number from 1 to 60")
    need(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    for w in spec["workloads"]:
        need(set(w) == {"name", "why"}, f"workload keys {sorted(w)}")
        need(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']} too long")
    need(1 <= len(spec["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    for m in spec["end_to_end"]:
        need(set(m) == {"name", "unit", "better", "bound"}, f"end-to-end keys {sorted(m)}")
        need(0 < m["bound"] <= 0.25, f"bound of {m['name']} must be at most 0.25")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    need(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
         "setup_s in s, lower is better")
    need(1 <= len(spec["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    for m in spec["per_layer"]:
        need(set(m) == {"name", "unit", "better"}, f"per-layer keys {sorted(m)}")
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in spec[key]]
    need(len(names) == len(set(names)), "names must be unique")
    for m in spec["end_to_end"] + spec["per_layer"]:
        need(m["better"] in ("lower", "higher"), f"better of {m['name']}")
        need(UNIT.fullmatch(m["unit"]) is not None, f"unit {m['unit']!r}")
    need(all(NAME.fullmatch(n) for n in names), "a name does not match [A-Za-z0-9_.-]+")
    return problems


def check_result(res: dict, expected: dict[str, str]) -> list[str]:
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(res)}")
    if res.get("correct") is not True:
        problems.append("correct is not true")
    if not (isinstance(res.get("attempted"), int) and res["attempted"] >= 1
            and isinstance(res.get("failed"), int)):
        problems.append("attempted/failed are not whole numbers with attempted >= 1")
    metrics = res.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metrics differ: missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        if not NAME.fullmatch(name):
            problems.append(f"metric name {name!r}")
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            problems.append(f"{name}: {m}")
        elif m["unit"] != expected.get(name):
            problems.append(f"{name}: unit {m['unit']!r}, expected {expected.get(name)!r}")
    return problems


def check_without_source(spec: dict) -> list[str]:
    """Run the benchmark in a directory holding only BENCHMARK.json and its paths."""
    bare = ROOT / ".bench_work" / "smoke-without-source"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([*spec["command"], "--workload", WORKLOADS[0], "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare,
                              capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run's directory is still there
    problems = []
    if proc.returncode == 0:
        problems.append("run without the program source exited 0")
    if proc.stdout.strip():
        problems.append(f"run without the program source printed {proc.stdout[-200:]!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = [f"BENCHMARK.json: {p}" for p in check_spec(spec)]
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            try:
                res = run_workload(workload, 1, 1, trace, tiny=True)
            except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
                problems.append(f"{workload} trace={trace}: {exc}")
                continue
            problems += [f"{workload} trace={trace}: {p}" for p in check_result(res, expected[trace])]
            print(f"{workload} trace={trace}: {len(res.get('metrics', {}))} metrics", flush=True)
    problems += check_without_source(spec)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke check passed" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
