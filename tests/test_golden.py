"""Golden digests: the exact outputs of the comparison and simulation paths.

Each digest is a SHA-256 over key-sorted JSON of results frozen when this
file was written. Floats enter the JSON as ``float.hex``, so a change in
any bit of any value, including the sign of a zero, changes the digest;
errors enter as their exception class. A refactor that keeps these
digests computes the same numbers. Do not regenerate a digest to make a
change pass: a changed digest means changed output.

The cases cover every comparison mode, zero and nonzero noise, replicate
counts on both sides of the simulator's batch size, the linear and the
quadratic {1,3,5} families, and the bundled samples (imputed, as
published, and without their 1y values so that proper mode falls back to
another reference period), plus two longer synthetic regions whose trends
differ, so that every quadratic filter window is complete.

A last digest covers the command line: the stdout bytes and exit code of
every subcommand, in text and in JSON where it has both.
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction as F

import pytest

from myetrends import (
    STANDARD_TARGETS,
    ComparisonSpec,
    DesignSpec,
    MyeSeries,
    MyeTrendsError,
    RegionPair,
    SimulationSpec,
    compare,
    design_filters,
    expected_bias,
    impute_random_walk,
    load_sample,
    sample_names,
    simulate_bias,
    synthetic_series,
)

LINEAR = design_filters(DesignSpec((1, 3, 5), 1))
QUADRATIC = design_filters(DesignSpec((1, 3, 5), 2))
FAMILIES = {"linear": LINEAR, "quadratic": QUADRATIC}

# (trend, noise_sd, mode, t0, replicates, seed, reference, other, family)
SIMULATIONS = (
    ((0, 1), {}, "inapt", 2010, 1, 0, 1, 3, None),
    ((0, 1), {1: 1.0, 3: 2.0}, "inapt", 2010, 2, 1, 1, 3, None),
    ((5, -2, "1/3"), {1: 1.0, 5: 0.5}, "inapt", 2010, 65535, 2, 1, 5, None),
    ((0, 0, 1), {}, "inapt", 2010, 65536, 3, 1, 5, None),
    ((0, 1), {3: 1.0}, "untimely", 2010, 65536, 4, 3, 3, None),
    ((1, 2, 3), {5: 1.5}, "untimely", 2010, 65537, 5, 5, 5, None),
    ((1, 2, 3), {}, "untimely", 2010, 7, 6, 3, 3, None),
    ((0, 1), {1: 1.0, 5: 2.0}, "proper", 2015, 131073, 7, 1, 5, "linear"),
    ((2, "1/2", -1), {1: 1.0, 3: 1.0, 5: 1.0}, "proper", 2015, 1000, 9, 3, 5, "quadratic"),
    ((2, "1/2", -1), {}, "proper", 2015, 65537, 11, 1, 3, "quadratic"),
    ((1, -2, 3, "5/4"), {1: 0.25}, "proper", 2015, 3, 2**64 - 1, 1, 5, "linear"),
    ((0, 1), {}, "proper", 2015, 65535, 12, 5, 1, "linear"),
)

COMPARISONS = (
    ("inapt", 1, 3), ("inapt", 1, 5),
    ("untimely", 3, 3), ("untimely", 5, 5),
    ("proper", 1, 3), ("proper", 1, 5), ("proper", 3, 5),
    ("proper", 5, 1), ("proper", 3, 1),
)


def _hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    return value


def _digest(payload) -> str:
    text = json.dumps(_hexed(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (MyeTrendsError, ValueError) as exc:
        return {"error": type(exc).__name__}


def simulation_payload() -> list:
    out = []
    for trend, noise, mode, t0, reps, seed, ref, other, family in SIMULATIONS:
        spec = SimulationSpec(trend, noise, mode, t0, reps, seed, ref, other)
        summary = simulate_bias(spec, FAMILIES.get(family))
        out.append([mode, reps, seed, ref, other, family, summary.to_dict()])
    return out


def expected_bias_payload() -> list:
    out = []
    for trend, _, mode, t0, _, _, ref, other, family in SIMULATIONS:
        cspec = ComparisonSpec(mode, t0, ref, other)
        for fs in (FAMILIES.get(family), None):
            out.append([[str(F(c)) for c in trend], mode, t0, ref, other,
                        fs is not None, expected_bias(trend, cspec, fs)])
    return out


def _regions(name: str) -> dict:
    published = load_sample(name)
    full = impute_random_walk(published, STANDARD_TARGETS)
    no_1y = MyeSeries(full.name, full.unit,
                      {key: ov for key, ov in full.items() if key[0] != 1})
    return {"full": full, "published": published, "no_1y": no_1y}


def _synthetic_regions() -> dict:
    return {
        "rising": synthetic_series((100, 2, "1/3"), (1, 3, 5), 1995, 2010),
        "falling": synthetic_series((90, 3, "-1/5"), (1, 3, 5), 1995, 2010),
    }


def compare_payload() -> list:
    out = []
    cases = [(name, _regions(name), (("full", "full"), ("full", "published"),
                                     ("published", "full"), ("no_1y", "full")))
             for name in sample_names()]
    cases.append(("synthetic", _synthetic_regions(), (("rising", "falling"),)))
    for name, regions, pairs in cases:
        for a, b in pairs:
            pair = RegionPair(regions[a], regions[b])
            for mode, ref, other in COMPARISONS:
                for family in (("linear", "quadratic") if mode == "proper" else (None,)):
                    fs = FAMILIES.get(family)
                    for t0 in range(2003, 2009):
                        spec = ComparisonSpec(mode, t0, ref, other)
                        res = _outcome(compare, pair, spec, fs)
                        if not isinstance(res, dict):
                            res = res.to_dict()
                        out.append([name, a, b, mode, ref, other, family, t0, res])
    return out


GOLDEN = {
    "simulate_bias": "e7e6bfe85948dae608cdad746a9088528db97de6f3dde9fdf71f98d6554856a1",
    "expected_bias": "839a21a7b29979a2653be6a777f14b3dba3df13384ee17afe3bf4ac7cd1aa368",
    "compare": "62638d34bef92784ad127abf24104d5f66a69553fcddfc8068ae7904bc7e04f3",
}

PAYLOADS = {
    "simulate_bias": simulation_payload,
    "expected_bias": expected_bias_payload,
    "compare": compare_payload,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    assert _digest(PAYLOADS[name]()) == GOLDEN[name]


# Every subcommand, run in process. Each case is an argv template, in which
# ``{dir}`` names a directory holding the imputed bundled samples, and
# ``json`` says whether to run it under both ``--format text`` and
# ``--format json`` or without ``--format`` (impute writes CSV only).
CLI_CASES = (
    (["design", "--degree", "0", "--periods", "1,3,5"], True),
    (["design", "--degree", "1", "--periods", "1,3,5"], True),
    (["design", "--degree", "2", "--periods", "1,3,5"], True),
    (["impute", "--in", "income", "--targets", "3:2006,5:2006,5:2007"], False),
    (["impute", "--in", "divorce", "--targets", "3:2006,5:2006,5:2007"], False),
    (["impute", "--in", "age", "--targets", "3:2006,5:2006,5:2007"], False),
    (["trends", "--in", "{dir}/income.csv", "--t0", "2007"], True),
    (["trends", "--in", "{dir}/age.csv", "--t0", "2007", "--periods", "1,3"], True),
    (["compat", "--in", "{dir}/divorce.csv"], True),
    (["compat", "--in", "{dir}/divorce.csv", "--exclude-imputed"], True),
    (["compat", "--in", "{dir}/divorce.csv", "--log-base", "e"], True),
    (["compat", "--in", "{dir}/divorce.csv", "--exclude-imputed", "--log-base", "e"], True),
    (["compat", "--in", "{dir}/income.csv", "--periods", "3"], True),
    (["compare", "--in-a", "{dir}/divorce.csv", "--in-b", "{dir}/divorce.csv",
      "--mode", "inapt", "--t0", "2007", "--other-period", "3"], True),
    (["compare", "--in-a", "income", "--in-b", "{dir}/income.csv",
      "--mode", "inapt", "--t0", "2006", "--other-period", "5"], True),
    (["compare", "--in-a", "{dir}/age.csv", "--in-b", "age",
      "--mode", "untimely", "--t0", "2005", "--other-period", "3"], True),
    (["compare", "--in-a", "{dir}/divorce.csv", "--in-b", "{dir}/divorce.csv",
      "--mode", "proper", "--t0", "2007", "--other-period", "5", "--periods", "1,3,5"], True),
    (["compare", "--in-a", "{dir}/income.csv", "--in-b", "{dir}/income.csv",
      "--mode", "proper", "--t0", "2007", "--reference-period", "3", "--other-period", "5",
      "--degree", "0", "--periods", "3,5"], True),
    (["simulate", "--trend", "0,1", "--noise", "1", "--mode", "inapt", "--t0", "2010",
      "--other-period", "5", "--replicates", "1000", "--seed", "3"], True),
    (["simulate", "--trend", "1,2,3", "--noise", "3:1.5", "--mode", "untimely",
      "--t0", "2010", "--other-period", "3", "--replicates", "500", "--seed", "4"], True),
    (["simulate", "--trend", "0,1", "--noise", "1:1,5:0.5", "--mode", "proper",
      "--t0", "2015", "--other-period", "5", "--replicates", "70000", "--seed", "7"], True),
    (["simulate", "--trend", "2,1/2,-1", "--noise", "0.5", "--mode", "proper",
      "--t0", "2015", "--reference-period", "3", "--other-period", "5",
      "--degree", "2", "--periods", "1,3,5", "--replicates", "2000", "--seed", "9"], True),
    (["demo"], True),
)


def cli_payload(workdir) -> list:
    from myetrends.cli import main

    for name in sample_names():
        assert main(["impute", "--in", name, "--targets", "3:2006,5:2006,5:2007",
                     "-o", f"{workdir}/{name}.csv"]) == 0
    out = []
    for template, both in CLI_CASES:
        argv = [arg.replace("{dir}", str(workdir)) for arg in template]
        for extra in ((["--format", "text"], ["--format", "json"]) if both else ([],)):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv + extra)
            stdout = buf.getvalue().encode("utf-8")
            out.append([template + extra, code, hashlib.sha256(stdout).hexdigest()])
    return out


GOLDEN_CLI = "743ab06d26281e4972d2454365593e5079958e7a1b54dc73dd555aa008f435ba"


def test_cli_output_digest(tmp_path, monkeypatch):
    # stdout bytes of every subcommand, text and JSON where it has both
    monkeypatch.delenv("MYETRENDS_FORMAT", raising=False)
    assert _digest(cli_payload(tmp_path)) == GOLDEN_CLI
