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

Another simulation digest covers specs whose noise falls on one side only
or on neither (absent, ``0.0`` or ``-0.0``), in every mode and with
both families, at 1, 65535, 65536, 65537 and 131073 replicates, including
trends that are zero at ``t0`` and a subnormal noise sd.

The ``simulate_bias_chunks`` digest covers proper comparisons with the
{1,3,5} families at degrees 0-12, whose replicates own 10 to 34 Philox
words, with noise on both sides, on one side and on neither, and inapt
1y-against-5y comparisons, at replicate counts on both sides of
multiples of 8,192 and of the batch size (1 to 200,003).

The ``series_index`` digest covers long regions (220, 800 and 2,000 end
years) with seeded interior 3y/5y gaps, a trailing 5y gap and some
observations already imputed: ``periods()``, ``years(k)`` for present and
absent periods, ``repr()``, ``impute_random_walk`` on targets given out of
order, its error messages, and every proper and inapt ``compare`` between
them.

The ``design_families`` digest covers design itself: every subset of
1..7 with one to four periods at trend degrees 0-8, and {1,3,5} at
degrees 0-40. Each family enters as its JSON, its printed ``phi``, its
printed verification report, and, for every period, the exact variance
inflation and the floated weights of that period's filter.

The ``simulation_rows`` digest covers the noise of every replicate, not
only the summaries, whose batch sums absorb a one-ulp change in a few
rows: each row block's output of one side, for single-batch proper
comparisons with the {1,3,5} families at degrees 1, 5 and 12 and inapt
1y-against-5y comparisons, at 8,195 and 65,536 replicates.

A last digest covers the command line: the stdout bytes and exit code of
every subcommand, in text and in JSON where it has both.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import warnings
from fractions import Fraction as F

import pytest

from myetrends import (
    STANDARD_TARGETS,
    ComparisonSpec,
    DesignSpec,
    IMPUTED,
    ImputationError,
    MyeSeries,
    MyeTrendsError,
    ObservedValue,
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
    variance_inflation,
    verify_filter_set,
)
from myetrends import simulation

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

# (mode, reference, other, family, trend, t0); each is run under every
# entry of SIDED_NOISE, whose keys "a" and "b" stand for that spec's
# reference and other period
SIDED_CASES = (
    ("inapt", 1, 3, None, (0, 1), 2010),
    ("inapt", 1, 5, None, (5, -2, "1/3"), 2010),
    ("untimely", 3, 3, None, (1, 2, 3), 2010),
    ("untimely", 5, 5, None, (-2010, 1), 2010),
    ("proper", 1, 5, "linear", (0, 1), 2015),
    ("proper", 3, 5, "quadratic", (2, "1/2", -1), 2015),
    ("proper", 5, 1, "quadratic", (-2015, 1), 2015),
    ("proper", 1, 3, "linear", (0,), 2015),
)
SIDED_NOISE = (
    {"a": 1.5},
    {"b": 0.75},
    {},
    {"a": 0.0, "b": -0.0, 7: 2.0},
    {"b": 5e-324},
)
SIDED_REPLICATES = (1, 65535, 65536, 65537, 131073)

CHUNK_REPLICATES = (1, 8191, 8192, 8193, 65535, 65536, 65537, 131073, 200003)
# (reference, other) of the proper comparison at each degree, by degree mod 6
CHUNK_SIDES = ((1, 5), (5, 3), (3, 1), (1, 3), (5, 1), (3, 5))
CHUNK_NOISE = ({"a": 1.25, "b": 0.5}, {"a": 2.0}, {"b": 0.75}, {})

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


def sided_simulation_payload() -> list:
    out = []
    for i, (mode, ref, other, family, trend, t0) in enumerate(SIDED_CASES):
        for j, noise in enumerate(SIDED_NOISE):
            sds = {{"a": ref, "b": other}.get(k, k): sd for k, sd in noise.items()}
            reps = SIDED_REPLICATES[(i + j) % len(SIDED_REPLICATES)]
            spec = SimulationSpec(trend, sds, mode, t0, reps, 100 + i, ref, other)
            summary = simulate_bias(spec, FAMILIES.get(family))
            out.append([mode, ref, other, family, sorted(sds.items()), reps,
                        summary.to_dict()])
    return out


def chunk_simulation_payload() -> list:
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # extreme weights past degree 10
        families = {d: design_filters(DesignSpec((1, 3, 5), d)) for d in range(13)}
    for d, fs in families.items():
        ref, other = CHUNK_SIDES[d % len(CHUNK_SIDES)]
        for j, noise in enumerate(CHUNK_NOISE):
            sds = {{"a": ref, "b": other}[k]: sd for k, sd in noise.items()}
            reps = CHUNK_REPLICATES[(d + j) % len(CHUNK_REPLICATES)]
            spec = SimulationSpec((3, "-1/2", "1/7"), sds, "proper", 2015, reps,
                                  200 + 4 * d + j, ref, other)
            out.append([d, ref, other, sorted(sds.items()), reps,
                        simulate_bias(spec, fs).to_dict()])
    for i, reps in enumerate(CHUNK_REPLICATES):
        spec = SimulationSpec((0, 1), {1: 1.0, 5: 1.5}, "inapt", 2010, reps, 300 + i, 1, 5)
        out.append(["inapt", reps, simulate_bias(spec).to_dict()])
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


def _long_region(n: int, periods, seed: int):
    """A published random-walk region of ``n`` end years ending 2010, with
    seeded interior 3y/5y gaps, a trailing 5y gap and some values marked
    imputed; returns the series and its gaps, shuffled."""
    rng = random.Random(seed)
    first = 2010 - n + 1
    obs = {}
    for k in periods:
        level = rng.uniform(50.0, 150.0)
        for t in range(first - (4 if k == 1 else 0), 2011):
            level += rng.uniform(-1.0, 1.0)
            obs[(k, t)] = ObservedValue(level)
    gaps = [(5, t) for t in range(2008, 2011)]
    for k in (3, 5):
        gaps += [(k, t) for t in range(first + 2, 2007) if rng.random() < 1 / 15]
    for key in gaps:
        del obs[key]
    for key in list(obs):
        if key[1] > first + 1 and key[1] < 2007 and rng.random() < 0.02:
            obs[key] = ObservedValue(obs[key].value, IMPUTED)
    rng.shuffle(gaps)
    return MyeSeries("long", "count", obs), gaps


def _imputation_errors(series: MyeSeries, gaps) -> list:
    first = min(series.years(3))
    published = next(key for key, ov in series.items() if ov.provenance != IMPUTED)
    imputed = next(key for key, ov in series.items() if ov.provenance == IMPUTED)
    cases = (
        [published],
        [imputed],
        [gaps[0], gaps[0]],
        [(3, first - 3)],
        [(7, 2012)],
        [(9, 2000)],
        [(5, 2012)],
    )
    out = []
    for targets in cases:
        try:
            out.append([targets, impute_random_walk(series, targets).value(*targets[-1])])
        except ImputationError as exc:
            out.append([targets, str(exc)])
    return out


def series_index_payload() -> list:
    out = []
    regions = {}
    for n, periods, seed in ((220, (1, 3, 5), 1), (800, (3, 5), 2), (2000, (1, 3, 5), 3)):
        raw, gaps = _long_region(n, periods, seed)
        if n == 2000:
            # a 7y period with one published value and one imputed after it
            raw = raw.with_observations({(7, 1990): ObservedValue(80.0),
                                         (7, 2000): ObservedValue(81.0, IMPUTED)})
        filled = impute_random_walk(raw, gaps)
        regions[f"raw{n}"], regions[f"filled{n}"] = raw, filled
        for name, s in (("raw", raw), ("filled", filled)):
            out.append([n, name, repr(s), s.periods(),
                        {k: s.years(k) for k in range(0, 10)}])
        out.append([n, "impute", gaps,
                    [[k, t, ov.value, ov.provenance] for (k, t), ov in filled.items()]])
        out.append([n, "errors", _imputation_errors(raw, gaps)])
    pairs = (("filled220", "raw220"), ("filled800", "filled2000"),
             ("filled2000", "filled800"), ("raw2000", "raw800"), ("filled2000", "raw2000"))
    modes = [("inapt", 1, 3), ("inapt", 1, 5)]
    modes += [("proper", ref, other) for ref, other in
              ((1, 3), (1, 5), (3, 5), (5, 1), (3, 1))]
    for a, b in pairs:
        pair = RegionPair(regions[a], regions[b])
        for mode, ref, other in modes:
            for family in (("linear", "quadratic") if mode == "proper" else (None,)):
                fs = FAMILIES.get(family)
                for t0 in range(1180, 2013, 3):
                    res = _outcome(compare, pair, ComparisonSpec(mode, t0, ref, other), fs)
                    if not isinstance(res, dict):
                        res = res.to_dict()
                    out.append([a, b, mode, ref, other, family, t0, res])
    return out


def design_payload() -> list:
    specs = [DesignSpec(ps, d) for r in range(1, 5)
             for ps in itertools.combinations(range(1, 8), r) for d in range(9)]
    specs += [DesignSpec((1, 3, 5), d) for d in range(41)]
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # extreme weights past degree 10
        for spec in specs:
            fs = design_filters(spec)
            out.append([fs.to_json(), str(fs.phi), str(verify_filter_set(fs)),
                        [[k, str(variance_inflation(fs.psi[k])), fs.psi[k].as_floats()]
                         for k in spec.periods]])
    return out


GOLDEN = {
    "design_families": "1b14d5ea4e24855011dd0e96dea6547560fb8ae3fcd22df1bb836a9a8816eeae",
    "simulate_bias": "e7e6bfe85948dae608cdad746a9088528db97de6f3dde9fdf71f98d6554856a1",
    "simulate_bias_chunks": "1bdbc7e2bbd4bf602e90037cabdbb74fc686a629c0530865a35df0c0e994d32f",
    "simulate_bias_sided": "165d866e19cd6e95ceb51db6e19fc7c131fd73edda09f132974a459928c3079a",
    "expected_bias": "839a21a7b29979a2653be6a777f14b3dba3df13384ee17afe3bf4ac7cd1aa368",
    "compare": "62638d34bef92784ad127abf24104d5f66a69553fcddfc8068ae7904bc7e04f3",
    "series_index": "075bfcded6f1b0a51b9cdabd9f736141aa490dc4a2f5cf1e24be438bb1320505",
}

PAYLOADS = {
    "design_families": design_payload,
    "simulate_bias": simulation_payload,
    "simulate_bias_chunks": chunk_simulation_payload,
    "simulate_bias_sided": sided_simulation_payload,
    "expected_bias": expected_bias_payload,
    "compare": compare_payload,
    "series_index": series_index_payload,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    assert _digest(PAYLOADS[name]()) == GOLDEN[name]


# (mode, reference, other, degree of the {1,3,5} family or None); each runs
# with noise on both sides at every count in ROW_REPLICATES, all of which
# fit one batch, so its blocks run in order in the calling thread
ROW_CASES = (
    ("proper", 1, 5, 1),
    ("proper", 5, 3, 5),
    ("proper", 3, 1, 12),
    ("inapt", 1, 5, None),
)
ROW_REPLICATES = (8195, 65536)


def test_simulation_rows_digest(monkeypatch):
    # float.hex of every row of each side's noise, side by side, so the
    # digest pins the rows' bits and not how they are split into blocks
    h = hashlib.sha256()
    side_noise = simulation._side_noise
    rows: dict[int, list[str]] = {}  # one side's rows in block order, by its weights

    def recorded(words, w, sd, out, quantile):
        side_noise(words, w, sd, out, quantile)
        rows.setdefault(id(w), []).extend(map(float.hex, out.tolist()))

    monkeypatch.setattr(simulation, "_side_noise", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # extreme weights past degree 10
        for i, (mode, ref, other, degree) in enumerate(ROW_CASES):
            fs = None if degree is None else design_filters(DesignSpec((1, 3, 5), degree))
            for reps in ROW_REPLICATES:
                spec = SimulationSpec((3, "-1/2", "1/7"), {ref: 1.25, other: 0.5}, mode,
                                      2015, reps, 400 + i, ref, other)
                simulate_bias(spec, fs)
                assert len(rows) == 2 and all(len(r) == reps for r in rows.values())
                for side in rows.values():
                    h.update(",".join(side).encode("ascii"))
                rows.clear()
    assert h.hexdigest() == GOLDEN_ROWS


GOLDEN_ROWS = "08cbb6b5b354546bef63d06208a500ebfae925e166d30a9c4bf3de72c0d533a2"


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


def test_cli_output_digest(tmp_path):
    # stdout bytes of every subcommand, text and JSON where it has both
    assert _digest(cli_payload(tmp_path)) == GOLDEN_CLI
