"""The columnar series store against a dict-of-ObservedValue reference.

``DictSeries`` keeps every observation in one dict keyed by ``(period,
end_year)`` and reads windows key by key. The reference operations below are
written over it the same way. Every public operation of :class:`MyeSeries`,
and every library function that reads its windows, must give the same
result, bit for bit, or raise the same error with the same text, on random
sparse, gappy and mixed-provenance series.
"""

import copy
import io
import math
import tracemalloc
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from myetrends.analysis import (
    CompatibilityEntry,
    CompatibilityReport,
    apply_filter,
    compatibility,
)
from myetrends.exceptions import DataError, DomainError, ImputationError, MissingDataError
from myetrends.myeseries import (
    IMPUTED,
    PUBLISHED,
    MyeSeries,
    ObservedValue,
    impute_random_walk,
    load_csv,
    sma_of_base,
    write_csv,
)
from myetrends.ratpoly import RatPoly

MODEL = settings(max_examples=120, deadline=None, derandomize=True)


class DictSeries:
    """One dict of :class:`ObservedValue`, sorted by key, read key by key."""

    def __init__(self, name, unit, observations):
        if not name or not isinstance(name, str):
            raise DataError(f"series name must be a nonempty string, got {name!r}")
        if not unit or not isinstance(unit, str):
            raise DataError(f"series unit must be a nonempty string, got {unit!r}")
        obs = {}
        for key, raw in observations.items():
            try:
                k, t = key
            except (TypeError, ValueError):
                raise DataError(f"observation key must be (period, end_year), got {key!r}")
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise DataError(f"period must be an integer >= 1, got {k!r}")
            if not isinstance(t, int) or isinstance(t, bool):
                raise DataError(f"end_year must be an integer, got {t!r}")
            obs[(k, t)] = raw if isinstance(raw, ObservedValue) else ObservedValue(float(raw))
        if not obs:
            raise DataError("series must contain at least one observation")
        self.name, self.unit, self.obs = name, unit, dict(sorted(obs.items()))

    def __len__(self):
        return len(self.obs)

    def __repr__(self):
        ks = ", ".join(f"{k}y:{len(self.years(k))}" for k in self.periods())
        return f"<MyeSeries {self.name!r} [{self.unit}] {ks}>"

    def items(self):
        return iter(self.obs.items())

    @staticmethod
    def check_key(k, t):
        """A key is read as it is stored: two integers, neither a bool."""
        for what, part in (("period", k), ("end_year", t)):
            if not isinstance(part, int) or isinstance(part, bool):
                raise ValueError(f"{what} must be an integer, got {part!r}")

    def has(self, k, t):
        self.check_key(k, t)
        return (k, t) in self.obs

    def get(self, k, t, default=None):
        self.check_key(k, t)
        ov = self.obs.get((k, t))
        return default if ov is None else ov.value

    def value(self, k, t):
        self.check_key(k, t)
        if (k, t) not in self.obs:
            raise MissingDataError(f"{self.name}: no {k}y observation ending {t}")
        return self.obs[(k, t)].value

    def provenance(self, k, t):
        self.check_key(k, t)
        if (k, t) not in self.obs:
            raise MissingDataError(f"{self.name}: no {k}y observation ending {t}")
        return self.obs[(k, t)].provenance

    def periods(self):
        return tuple(sorted({k for k, _ in self.obs}))

    def years(self, k):
        return tuple(t for kk, t in self.obs if kk == k)

    def column(self, k):
        return [(t, ov.value, ov.provenance) for (kk, t), ov in self.obs.items() if kk == k]

    def with_observations(self, extra):
        clash = set(extra) & set(self.obs)
        if clash:
            raise DataError(f"observations already present: {sorted(clash)}")
        return DictSeries(self.name, self.unit, {**self.obs, **extra})


def ref_apply_filter(weights, s, period, t):
    xs = [s.get(period, t - j) for j in range(weights.degree + 1)]
    if None in xs:
        missing = [(period, t - j) for j, x in enumerate(xs) if x is None]
        raise MissingDataError(f"{s.name}: filter window needs missing observations {missing}")
    try:
        total = math.fsum(w * x for w, x in zip(weights.as_floats(), xs))
    except (OverflowError, ValueError):
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(f"{s.name}: {period}y filter ending {t} overflows the float range")
    return total


def ref_sma_of_base(s, period, end_year):
    if period < 1:
        raise ValueError(f"period must be an integer >= 1, got {period}")
    window = range(end_year - period + 1, end_year + 1)
    xs = [s.get(1, t) for t in window]
    if None in xs:
        gaps = [t for t, x in zip(window, xs) if x is None]
        raise MissingDataError(
            f"{s.name}: 1y values missing for years {gaps} (window of {period} ending {end_year})")
    try:
        total = math.fsum(xs)
    except (OverflowError, ValueError):
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(
            f"{s.name}: sum of the 1y values in the window of {period} "
            f"ending {end_year} overflows the float range")
    return total / period


def ref_compatibility(s, periods, log_base, include_imputed):
    log = math.log10 if log_base == 10 else math.log
    entries = {}
    for k in sorted(set(periods)):
        table = {}
        for t in s.years(k):
            window = range(t - k + 1, t + 1)
            if not all(s.has(1, yr) for yr in window):
                continue
            touched = [s.provenance(k, t)] + [s.provenance(1, yr) for yr in window]
            if not include_imputed and IMPUTED in touched:
                continue
            y, base_mean = s.value(k, t), ref_sma_of_base(s, k, t)
            if y <= 0:
                raise DomainError(f"{s.name}: {k}y value ending {t} is {y}, not positive")
            if base_mean <= 0:
                raise DomainError(
                    f"{s.name}: 1y window mean ending {t} is {base_mean}, not positive")
            table[t] = log(y) - log(base_mean)
        if not table:
            raise MissingDataError(
                f"{s.name}: no end year has both a {k}y value and a complete 1y window")
        entries[k] = CompatibilityEntry(nsr=table, c=max(abs(v) for v in table.values()))
    return CompatibilityReport(series=s.name, log_base="10" if log_base == 10 else "e",
                               include_imputed=include_imputed, entries=entries)


def ref_impute(s, targets):
    filled = {}
    for key in targets:
        k, t = key
        if s.has(k, t) or key in filled:
            prov = filled[key].provenance if key in filled else s.provenance(k, t)
            article = "an" if prov == IMPUTED else "a"
            raise ImputationError(f"{s.name}: target {k}y ending {t} already has {article} {prov} value")
        anchors = [yr for yr in s.years(k) if s.provenance(k, yr) == PUBLISHED]
        before = [yr for yr in anchors if yr < t]
        after = [yr for yr in anchors if yr > t]
        if before and after:
            value = (s.value(k, before[-1]) + s.value(k, after[0])) / 2.0
        elif len(before) >= 2:
            # the drift formula, formed exactly and rounded once
            first, last = before[0], before[-1]
            y_first, y_last = Fraction(s.value(k, first)), Fraction(s.value(k, last))
            value = float(y_last + (t - last) * (y_last - y_first) / (last - first))
        elif before:
            raise ImputationError(
                f"{s.name}: cannot extrapolate {k}y ending {t}: only one "
                f"published {k}y value (ending {before[-1]}) precedes it")
        else:
            raise ImputationError(
                f"{s.name}: cannot impute {k}y ending {t}: no published {k}y value precedes it")
        filled[key] = ObservedValue(value, IMPUTED)
    return s.with_observations(filled) if filled else s


def assert_same_index(s, ref):
    """periods(), years(k) and column(k) agree, for present and absent k."""
    assert type(s.periods()) is tuple and s.periods() == ref.periods()
    for k in range(0, 8):
        assert type(s.years(k)) is tuple and s.years(k) == ref.years(k)
        assert [(t, v.hex(), p) for t, v, p in s.column(k)] == [
            (t, v.hex(), p) for t, v, p in ref.column(k)]


def rows(series):
    """Every observation, with its value's exact bits."""
    return [(key, ov.value.hex(), ov.provenance) for key, ov in series.items()]


def outcome(fn, *args, **kwargs):
    """What a call gives: its result, made comparable, or its error and text."""
    try:
        out = fn(*args, **kwargs)
    except (DataError, MissingDataError, DomainError, ImputationError, ValueError) as exc:
        return ("error", type(exc).__name__, str(exc))
    if isinstance(out, float):
        return out.hex()
    if isinstance(out, (MyeSeries, DictSeries)):
        return rows(out)
    if isinstance(out, CompatibilityReport):
        return repr(out.to_dict())  # repr keeps every float's digits
    return out


# End years cluster around 2000, so runs and gaps both occur, with now and
# then a year far away.
years = st.one_of(st.integers(1990, 2012), st.integers(1990, 2012),
                  st.sampled_from([-10**9, 10**9, 0, 5000]))
values = st.one_of(st.floats(1, 1e6), st.floats(-1e6, 1e6), st.sampled_from([1.7e308, 5e-324]))
observed = st.one_of(values, st.builds(ObservedValue, values, st.sampled_from([PUBLISHED, IMPUTED])))
observation_maps = st.dictionaries(
    st.tuples(st.sampled_from([1, 1, 2, 3, 5, 6]), years), observed, min_size=1, max_size=50)
keys = st.tuples(st.integers(0, 7), years)
# Dense, positive series, where most k-year values have a complete 1y window
# and an NSR, so the audit's provenance filter is what decides.
positive = st.floats(1, 1e6)
audit_maps = st.dictionaries(
    st.tuples(st.sampled_from([1, 1, 1, 2, 3, 5]), st.integers(1995, 2006)),
    st.builds(ObservedValue, positive, st.sampled_from([PUBLISHED, PUBLISHED, PUBLISHED, IMPUTED])),
    min_size=1, max_size=60)



@st.composite
def gap_patterns(draw):
    """Observations over 1990-2019 whose 1y/3y/5y sub-series have random
    gaps after 1991 and some values marked imputed, with targets in random
    order: its gaps, a few years past the end, and at times one target that
    fails (already present, repeated, of an absent period, before every
    anchor, or after a lone anchor)."""
    obs, gaps = {}, []
    for k in draw(st.sets(st.sampled_from([1, 3, 5]), min_size=1)):
        obs[(k, 1990)] = obs[(k, 1991)] = ObservedValue(draw(st.floats(-1e6, 1e6)))
        for t in range(1992, 2020):
            if draw(st.integers(0, 9)) < 3:
                gaps.append((k, t))
            else:
                prov = IMPUTED if draw(st.integers(0, 9)) == 0 else PUBLISHED
                obs[(k, t)] = ObservedValue(draw(st.floats(-1e6, 1e6)), prov)
    targets = draw(st.lists(st.sampled_from(gaps), unique=True)) if gaps else []
    periods = sorted({k for k, _ in obs})
    targets += draw(st.lists(st.tuples(st.sampled_from(periods), st.integers(2020, 2024)),
                             unique=True, max_size=3))
    failing = draw(st.sampled_from(
        [None, None, None, "existing", "repeat", "absent", "early", "lone"]))
    if failing == "existing":
        targets.append(draw(st.sampled_from(sorted(obs))))
    elif failing == "repeat" and targets:
        targets.append(draw(st.sampled_from(targets)))
    elif failing == "absent":
        targets.append((7, draw(st.integers(1980, 2024))))
    elif failing == "early":
        targets.append((draw(st.sampled_from(periods)), draw(st.integers(1980, 1989))))
    elif failing == "lone":
        obs[(9, 2000)] = ObservedValue(1.0)
        targets.append((9, draw(st.integers(2001, 2024))))
    return obs, draw(st.permutations(targets))


class TestAgainstDictReference:
    @given(observation_maps)
    @MODEL
    def test_store_and_lookups(self, obs):
        s, ref = MyeSeries("x", "count", obs), DictSeries("x", "count", obs)
        assert rows(s) == rows(ref)
        assert all(type(ov) is ObservedValue for _, ov in s.items())
        assert len(s) == len(ref) and repr(s) == repr(ref)
        assert_same_index(s, ref)
        probes = {key for k, t in obs for key in ((k, t), (k, t - 1), (k, t + 1), (k + 1, t))}
        for k, t in sorted(probes) + [(4, 2000), (1, 2000.0), (True, 2000), (1, 2000.5)]:
            assert outcome(s.has, k, t) == outcome(ref.has, k, t)
            # ``in`` answers False where ``has`` raises
            assert ((k, t) in s) == (outcome(ref.has, k, t) is True)
            assert outcome(s.value, k, t) == outcome(ref.value, k, t)
            assert outcome(s.provenance, k, t) == outcome(ref.provenance, k, t)

    @given(observation_maps, observation_maps)
    @MODEL
    def test_equality_and_with_observations(self, obs, other):
        s = MyeSeries("x", "count", obs)
        assert s == MyeSeries("x", "count", dict(reversed(list(obs.items()))))
        ref = DictSeries("x", "count", obs)
        assert (s == MyeSeries("x", "count", other)) == (ref.obs == DictSeries("x", "count", other).obs)
        assert s != MyeSeries("y", "count", obs)
        extra = {key: ov if isinstance(ov, ObservedValue) else ObservedValue(ov)
                 for key, ov in other.items()}
        fresh = {key: ov for key, ov in extra.items() if key not in obs}
        for add in (extra, fresh):
            assert outcome(s.with_observations, add) == outcome(ref.with_observations, add)
        # the merged index is rebuilt, and the original's is left as it was
        assert_same_index(s.with_observations(fresh), ref.with_observations(fresh))
        assert_same_index(s, ref)

    @given(observation_maps, observation_maps)
    # a fill that joins two runs, one that precedes a run, one that extends
    # a run, and a new period between existing periods
    @example({(3, 2000): 1.0, (3, 2002): 3.0}, {(3, 2001): 2.0})
    @example({(3, 2001): 2.0, (3, 2002): 3.0, (3, 1990): 0.0}, {(3, 2000): 1.0})
    @example({(3, 2000): 1.0, (3, 2001): 2.0, (3, 2010): 0.0}, {(3, 2002): 3.0})
    @example({(1, 2000): 1.0, (5, 2000): 5.0}, {(3, 2000): 3.0, (3, 2001): 4.0})
    @MODEL
    def test_with_observations_splices_into_the_runs(self, obs, other):
        s = MyeSeries("x", "count", obs)
        before, runs_before = rows(s), copy.deepcopy(s._runs)
        fresh = {key: ov if isinstance(ov, ObservedValue) else ObservedValue(ov, IMPUTED)
                 for key, ov in other.items() if key not in obs}
        merged = s.with_observations(fresh)
        rebuilt = MyeSeries("x", "count", {**obs, **fresh})
        # canonical: the same runs as a series built from the same rows
        assert merged._runs == rebuilt._runs and merged == rebuilt
        assert len(merged) == len(rebuilt)
        assert list(merged.periods()) == sorted(merged.periods())
        assert_same_index(merged, DictSeries("x", "count", {**obs, **fresh}))
        # the source reads exactly as before, down to its run lists
        assert rows(s) == before and len(s) == len(obs)
        assert s._runs == runs_before
        # a run that no new observation touches is shared, list for list
        for k, (starts, values, provs) in s._runs.items():
            spliced = merged._runs[k]
            for first, vs, ps in zip(starts, values, provs):
                if (k, first - 1) not in fresh and (k, first + len(vs)) not in fresh:
                    assert any(x is vs for x in spliced[1]) and any(x is ps for x in spliced[2])

    @given(st.dictionaries(st.one_of(keys, st.just("k"), st.tuples(st.integers(1, 3))), observed,
                           max_size=4),
           st.sampled_from([(1, 2000.0), (1, "2000"), (True, 2000), (1, 2000)]),
           st.sampled_from([1.0, "2.5", ObservedValue(3.0)]))
    @MODEL
    def test_constructor_errors(self, obs, key, raw):
        obs = {**obs, key: raw}
        for name, unit in (("x", "count"), ("", "count"), ("x", "")):
            assert outcome(MyeSeries, name, unit, obs) == outcome(DictSeries, name, unit, obs)
        assert outcome(MyeSeries, "x", "count", {}) == outcome(DictSeries, "x", "count", {})

    @given(observation_maps,
           st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=7), max_size=6),
           st.sampled_from([1, 2, 3, 5, 7]), years)
    @MODEL
    def test_apply_filter_and_sma_of_base(self, obs, coeffs, period, t):
        s, ref = MyeSeries("x", "count", obs), DictSeries("x", "count", obs)
        weights = RatPoly([Fraction(c) for c in coeffs])
        for k, u in [(period, t), *obs]:
            assert outcome(apply_filter, weights, s, k, u) == outcome(ref_apply_filter, weights, ref, k, u)
            for length in (0, 1, 2, 3, k):
                assert outcome(sma_of_base, s, length, u) == outcome(ref_sma_of_base, ref, length, u)

    @given(st.one_of(observation_maps, audit_maps), st.sampled_from([10, "e"]))
    @MODEL
    def test_compatibility(self, obs, log_base):
        s, ref = MyeSeries("x", "count", obs), DictSeries("x", "count", obs)
        # one period at a time, so that no period's error hides another's
        for periods in [{k} for k in (1, 2, 3, 5, 6)] + [set(ref.periods())]:
            for include in (True, False):
                assert (outcome(compatibility, s, periods, log_base, include_imputed=include)
                        == outcome(ref_compatibility, ref, periods, log_base, include))

    @given(observation_maps, st.lists(keys.filter(lambda key: key[0] >= 1), max_size=6))
    @MODEL
    def test_impute_random_walk(self, obs, targets):
        s, ref = MyeSeries("x", "count", obs), DictSeries("x", "count", obs)
        absent = [key for key in targets if key not in obs]
        for chosen in (targets, absent, absent[::-1]):
            assert outcome(impute_random_walk, s, chosen) == outcome(ref_impute, ref, chosen)

    @given(gap_patterns())
    # the float formula, rounded four times, gives 0x1.a1a34f72c2350p+10 here;
    # the exact value, 48446/29, rounds to 0x1.a1a34f72c234fp+10
    @example(({(1, 1990): ObservedValue(5494.0), (1, 1991): ObservedValue(5494.0),
               (1, 2019): ObservedValue(2134.0)}, [(1, 2023)]))
    @settings(MODEL, max_examples=200)
    def test_impute_random_walk_on_gap_patterns(self, case):
        obs, targets = case
        s, ref = MyeSeries("x", "count", obs), DictSeries("x", "count", obs)
        assert outcome(impute_random_walk, s, targets) == outcome(ref_impute, ref, targets)

    @given(observation_maps)
    # end years 0-99 load as written, not as a guessed century
    @example({(1, 7): ObservedValue(1.0), (3, 0): ObservedValue(2.0, IMPUTED),
              (3, 2000): ObservedValue(3.0)})
    @MODEL
    def test_csv_round_trip(self, obs):
        s = MyeSeries("x", "count", obs)
        text = write_csv(s)
        assert text.splitlines()[1:] == [
            f"x,count,{k},{t},{ov.value!r},{ov.provenance}"
            for (k, t), ov in DictSeries("x", "count", obs).items()]
        assert load_csv(io.StringIO(text)) == s


def test_far_apart_end_years_stay_small():
    # storage grows with the observations, not with the span of end years
    tracemalloc.start()
    try:
        s = MyeSeries("x", "count", {(3, -10**9): 10.0, (3, 10**9): 20.0})
        filled = impute_random_walk(s, [(3, 0)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert filled.value(3, 0) == 15.0 and filled.provenance(3, 0) == IMPUTED
    assert filled.years(3) == (-10**9, 0, 10**9)
    assert peak < 1_000_000
