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
"""

import hashlib
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
