#!/usr/bin/env python3
"""Compare two commits on the benchmark in interleaved pairs and write BENCH_<pr>.json.

Usage, from anywhere inside the repository::

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pr 7 \\
        --claim design_sweep:work_per_s --trace design_sweep

Each commit is exported with ``git archive`` into its own temporary
directory, so both sides run the benchmark code and the program exactly as
committed. For every workload and pair ``i``, ``perfbench/run.py --workload W
--seed S --seconds T --trace 0`` runs once on each side, one run at a time,
with ``S = --seed + i`` and ``T`` the ``run_seconds`` of the change's
``BENCHMARK.json``; the change runs first on odd seeds and the parent on even
ones. Metric names, units, directions and bounds come from the same file. The
result goes to ``BENCH_<pr>.json`` at the root of the repository.

A gain is claimed only for ``--claim WORKLOAD:METRIC``: the change must be
better in at least nine tenths of the pairs (ties count for neither side),
and its median must differ from the parent's, in the better direction, by
more than the parent's quartile spread. ``--trace W`` adds one ``--trace 1``
run per side on workload ``W`` (first seed) for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

CLAIM_RULE = ("change better in >= 9/10 of the pairs and median difference "
              "> parent's quartile spread")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--parent", required=True, help="commit measured as the baseline")
    p.add_argument("--change", default="HEAD", help="commit measured against it (default HEAD)")
    p.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    p.add_argument("--pairs", type=int, default=10, help="pairs per workload (default 10)")
    p.add_argument("--seed", type=int, default=841, help="seed of the first pair (default 841)")
    p.add_argument("--workload", action="append", dest="workloads",
                   help="workload to run; repeat for several (default: all in BENCHMARK.json)")
    p.add_argument("--claim", help="WORKLOAD:METRIC on which a gain is claimed")
    p.add_argument("--trace", action="append", default=[], metavar="WORKLOAD",
                   help="also take one traced run per side on this workload")
    p.add_argument("--note", action="append", default=[], help="free-text note; repeatable")
    return p.parse_args(argv)


def git(*args: str, cwd: Path) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(repo: Path, commit: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", commit], cwd=repo, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), {})
    return {**json.loads(lines[-1]), "env": env}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def summarize(spec: dict, parent: list[float], change: list[float]) -> dict:
    lower = spec["better"] == "lower"
    p, c = spread(parent), spread(change)
    wins = sum((b < a) if lower else (b > a) for a, b in zip(parent, change))
    limit = p["median"] * (1 + spec["bound"] if lower else 1 - spec["bound"])
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": p,
        "change": c,
        "median_change_pct": round(100 * (c["median"] / p["median"] - 1), 2),
        "within_bound": c["median"] <= limit if lower else c["median"] >= limit,
        "change_better_pairs": f"{wins}/{len(parent)}",
        "parent_quartile_spread": p["q3"] - p["q1"],
    }


def judge_claim(metric: dict) -> dict:
    wins, pairs = map(int, metric["change_better_pairs"].split("/"))
    gain = metric["change"]["median"] - metric["parent"]["median"]
    if metric["better"] == "lower":
        gain = -gain
    return {
        "median_gain": gain,
        "parent_quartile_spread": metric["parent_quartile_spread"],
        "change_better_pairs": metric["change_better_pairs"],
        "met": wins >= math.ceil(0.9 * pairs) and gain > metric["parent_quartile_spread"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    repo = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    commits = {side: git("rev-parse", rev, cwd=repo)
               for side, rev in (("parent", args.parent), ("change", args.change))}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as work:
        trees = {side: Path(work) / side for side in commits}
        for side, tree in trees.items():
            export(repo, commits[side], tree)
        results = compare(args, trees)
    out = {
        "pr": args.pr,
        "change": git("log", "-1", "--format=%s", commits["change"], cwd=repo),
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        **results,
    }
    path = repo / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    if out["claim"]:
        verdict = "met" if out["claim"]["met"] else "not met"
        print(f"claim {args.claim}: {verdict}", file=sys.stderr)
    return 0


def compare(args: argparse.Namespace, trees: dict[str, Path]) -> dict:
    """Run the pairs and traced runs; the result in BENCH_<pr>.json's shape."""
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    if args.claim:
        claim_workload, claim_metric = args.claim.split(":")
        if claim_workload not in workloads or claim_metric not in metrics:
            raise SystemExit(f"--claim {args.claim}: not a measured workload and metric")

    env = {}
    report: dict = {}
    for workload in workloads:
        seeds = [args.seed + i for i in range(args.pairs)]
        results: dict[str, list[dict]] = {"parent": [], "change": []}
        first = {}
        for seed in seeds:
            order = ("change", "parent") if seed % 2 else ("parent", "change")
            first[str(seed)] = order[0]
            for side in order:
                print(f"{workload} seed {seed}: {side}", file=sys.stderr, flush=True)
                res = run_once(trees[side], workload, seed, seconds, 0)
                env = res["env"] or env
                results[side].append(res)
        report[workload] = {
            "pairs": len(seeds),
            "seeds": seeds,
            "first_in_pair": first,
            "all_correct": all(r["correct"] for rs in results.values() for r in rs),
            "failed_ops": {s: sum(r["failed"] for r in rs) for s, rs in results.items()},
            "attempted_ops": {s: sum(r["attempted"] for r in rs) for s, rs in results.items()},
            "metrics": {
                name: summarize(spec, *([r["metrics"][name]["value"] for r in results[s]]
                                        for s in ("parent", "change")))
                for name, spec in metrics.items()
            },
        }

    per_layer = {}
    for workload in args.trace:
        traced = {}
        for side in ("parent", "change"):
            print(f"{workload} traced: {side}", file=sys.stderr, flush=True)
            traced[side] = run_once(trees[side], workload, args.seed, seconds, 1)["metrics"]
        per_layer[workload] = {
            "command": f"python3 perfbench/run.py --workload {workload} --seed {args.seed} "
                       f"--seconds {seconds:g} --trace 1",
            "metrics": {name: {"unit": m["unit"], "parent": traced["parent"][name]["value"],
                               "change": m["value"]}
                        for name, m in traced["change"].items() if name in traced["parent"]},
        }

    out = {
        "host": {"cpus": env.get("nproc"), "cpu": env.get("cpu_model"),
                 "python": env.get("python"), "numpy": env.get("numpy"), "scipy": env.get("scipy")},
        "method": (
            "Each side is a git archive of its commit in its own directory. Per pair, "
            f"`python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0` "
            "runs once on each side, one run at a time, the side that runs first alternating "
            "with the seed (odd seeds: change first). Medians and quartiles are over the pairs "
            "(statistics.quantiles, n=4, inclusive). Written by tools/bench_pairs.py."
        ),
        "claim": None,
        "notes": args.note,
        "workloads": report,
        "per_layer": per_layer,
    }
    if args.claim:
        out["claim"] = {"workload": claim_workload, "metric": claim_metric, "rule": CLAIM_RULE,
                        **judge_claim(report[claim_workload]["metrics"][claim_metric])}
    return out


if __name__ == "__main__":
    sys.exit(main())
