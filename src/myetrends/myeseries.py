"""Multi-year estimate series: storage, CSV interchange, imputation, display.

A series holds one variable for one region across several overlapping
sampling windows. Each observation is keyed by ``(period, end_year)``:
``period`` is the window length in years, ``end_year`` the final year of the
window. Values carry a provenance tag, ``"published"`` or ``"imputed"``, so
downstream diagnostics can tell real data from forecast extensions.

Storage is columnar. Each period's observations are kept as runs of
consecutive end years, each a first end year with a list of values and a
parallel list of provenance tags; a missing year ends one run and starts
the next. Every window a filter, an average or an audit reads is one slice
of one run, found by bisecting the runs' first years, and memory grows with
the number of observations, not with the span of their end years.

CSV layout (one observation per row, header required)::

    variable,unit,period,end_year,value,provenance
    income,dollars,3,2005,40404,published

``provenance`` may be blank or the column omitted entirely; rows then count
as published. Writing uses shortest round-trip float formatting, so a
written file loads back to an identical series.
"""

from __future__ import annotations

import bisect
import csv
import io
import itertools
import math
import os
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal
from typing import IO, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .exceptions import CsvError, DataError, DomainError, ImputationError, MissingDataError, check_int

__all__ = [
    "PUBLISHED",
    "IMPUTED",
    "ObservedValue",
    "MyeSeries",
    "RegionPair",
    "load_csv",
    "write_csv",
    "sma_of_base",
    "impute_random_walk",
    "round_half_away",
    "render_value",
    "display_decimals",
]

PUBLISHED = "published"
IMPUTED = "imputed"

_CSV_COLUMNS = ("variable", "unit", "period", "end_year", "value", "provenance")

# Display precision by unit. Counts and currency print as whole numbers;
# anything unlisted gets two decimals.
_UNIT_DECIMALS = {
    "dollars": 0,
    "persons": 0,
    "households": 0,
    "count": 0,
    "years": 2,
}
_DEFAULT_DECIMALS = 2


@dataclass(frozen=True)
class ObservedValue:
    """A single estimate with its provenance tag."""

    value: float
    provenance: str = PUBLISHED

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _checked_value(self.value, self.provenance))


def _checked_value(value, provenance: str) -> float:
    """``value`` as a float, once ``provenance`` is a known tag and the value
    is finite; raises :class:`DataError` otherwise."""
    if provenance not in (PUBLISHED, IMPUTED):
        raise DataError(
            f"provenance must be {PUBLISHED!r} or {IMPUTED!r}, got {provenance!r}"
        )
    v = float(value)
    if not math.isfinite(v):
        raise DataError(f"value must be finite, got {value!r}")
    return v


def _stored(value: float, provenance: str) -> ObservedValue:
    """An :class:`ObservedValue` of a stored value and tag, which were checked
    when they were stored, so its checks are skipped."""
    ov = object.__new__(ObservedValue)
    object.__setattr__(ov, "value", value)
    object.__setattr__(ov, "provenance", provenance)
    return ov


# One observation as (period, end_year, value, provenance).
_Row = tuple[int, int, float, str]
# Per period: the first end year of each run, and each run's values and
# provenance tags.
_Runs = dict[int, tuple[list[int], list[list[float]], list[list[str]]]]


def _validated_rows(
    observations: Mapping[tuple[int, int], Union[ObservedValue, float]]
) -> list[_Row]:
    """The rows of an observation map, in its order, with every key checked."""
    rows = []
    for key, raw in observations.items():
        try:
            k, t = key
        except (TypeError, ValueError):
            raise DataError(f"observation key must be (period, end_year), got {key!r}")
        check_int(k, "period", 1, DataError)
        check_int(t, "end_year", error=DataError)
        if isinstance(raw, ObservedValue):
            rows.append((k, t, raw.value, raw.provenance))
        else:
            rows.append((k, t, _checked_value(float(raw), PUBLISHED), PUBLISHED))
    return rows


def _pack(rows: Iterable[_Row]) -> _Runs:
    """Each period's runs of consecutive end years, from rows sorted by key.

    Returns ``{period: (starts, values, provenances)}``, periods ascending.
    Run ``i`` holds the end years ``starts[i]`` up to ``starts[i] +
    len(values[i]) - 1``; ``provenances[i]`` tags ``values[i]`` item by item.
    A year missing between two observations ends one run and starts the next.
    """
    runs: _Runs = {}
    period = next_year = None
    for k, t, v, p in rows:
        if k != period:
            period, next_year = k, None
            starts, values, provs = runs[k] = ([], [], [])
        if t != next_year:
            starts.append(t)
            vs, ps = [], []
            values.append(vs)
            provs.append(ps)
        vs.append(v)
        ps.append(p)
        next_year = t + 1
    return runs


def _as_year(t) -> Optional[int]:
    """The integer end year a lookup of ``t`` matches, or None if no integer
    equals ``t`` (a float such as ``2007.0`` matches 2007, as a dict key would)."""
    try:
        year = int(t)
    except (TypeError, ValueError, OverflowError):
        return None
    return year if year == t else None


class MyeSeries:
    """Observations of one variable, keyed by ``(period, end_year)``.

    Parameters
    ----------
    name : str
        Variable name, e.g. ``"income"``. Nonempty.
    unit : str
        Measurement unit, e.g. ``"dollars"``. Nonempty.
    observations : mapping
        ``(period, end_year) -> ObservedValue`` (bare floats are accepted
        and wrapped as published values).

    The series is immutable. Each period is stored as runs of consecutive
    end years: a run is its first end year, a list of values and a parallel
    list of provenance tags, and a gap between end years ends a run. A
    lookup bisects the runs' first years, and :meth:`window` returns a
    stretch of end years as one slice of one run; :meth:`column` walks one
    period's observations in end-year order. Memory grows with the
    number of observations, however far apart their end years lie.
    :class:`ObservedValue` objects are built only when :meth:`items` yields
    them.
    """

    def __init__(
        self,
        name: str,
        unit: str,
        observations: Mapping[tuple[int, int], Union[ObservedValue, float]],
    ) -> None:
        if not name or not isinstance(name, str):
            raise DataError(f"series name must be a nonempty string, got {name!r}")
        if not unit or not isinstance(unit, str):
            raise DataError(f"series unit must be a nonempty string, got {unit!r}")
        rows = _validated_rows(observations)
        if not rows:
            raise DataError("series must contain at least one observation")
        rows.sort()  # keys are distinct, so only they are compared
        self._name, self._unit, self._runs, self._len = name, unit, _pack(rows), len(rows)

    @classmethod
    def _from_rows(cls, name: str, unit: str, rows: list[_Row]) -> "MyeSeries":
        """A series of rows already validated and sorted by key."""
        self = cls.__new__(cls)
        self._name, self._unit, self._runs, self._len = name, unit, _pack(rows), len(rows)
        return self

    @property
    def name(self) -> str:
        return self._name

    @property
    def unit(self) -> str:
        return self._unit

    def __len__(self) -> int:
        return self._len

    def __contains__(self, key: tuple[int, int]) -> bool:
        try:
            k, t = key
        except (TypeError, ValueError):
            return False
        return self.window(k, t, 1) is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MyeSeries):
            return NotImplemented
        return (
            self._name == other._name
            and self._unit == other._unit
            and self._runs == other._runs
        )

    def __repr__(self) -> str:
        ks = ", ".join(f"{k}y:{sum(map(len, values))}" for k, (_, values, _) in self._runs.items())
        return f"<MyeSeries {self._name!r} [{self._unit}] {ks}>"

    def _rows(self) -> Iterator[_Row]:
        """Every observation as a row, in (period, end_year) order."""
        return itertools.chain.from_iterable(
            zip(itertools.repeat(k), range(first, first + len(vs)), vs, ps)
            for k, (starts, values, provs) in self._runs.items()
            for first, vs, ps in zip(starts, values, provs)
        )

    def items(self) -> Iterable[tuple[tuple[int, int], ObservedValue]]:
        """Observations in (period, end_year) order."""
        return (((k, t), _stored(v, p)) for k, t, v, p in self._rows())

    def window(
        self, period: int, end_year: int, length: int
    ) -> Optional[tuple[list[float], list[str]]]:
        """The ``length`` observations of ``period`` ending at ``end_year``.

        Returns ``(values, provenances)``, oldest end year first, as new
        lists sliced from one run; ``None`` if any of the end years is
        absent. A ``length`` of 0 gives two empty lists.
        """
        if not length:
            return [], []
        if type(end_year) is not int:
            end_year = _as_year(end_year)
        runs = self._runs.get(period)
        if runs is None or end_year is None:
            return None
        starts, values, provs = runs
        i = bisect.bisect_right(starts, end_year) - 1
        if i >= 0:
            stop = end_year - starts[i] + 1
            start = stop - length
            if start >= 0 and stop <= len(values[i]):
                return values[i][start:stop], provs[i][start:stop]
        return None

    def _missing(self, period: int, end_year: int) -> MissingDataError:
        return MissingDataError(f"{self._name}: no {period}y observation ending {end_year}")

    def has(self, period: int, end_year: int) -> bool:
        return self.window(period, end_year, 1) is not None

    def value(self, period: int, end_year: int) -> float:
        """The estimate for (period, end_year); raises if absent."""
        found = self.window(period, end_year, 1)
        if found is None:
            raise self._missing(period, end_year)
        return found[0][0]

    def get(self, period: int, end_year: int, default=None):
        found = self.window(period, end_year, 1)
        return default if found is None else found[0][0]

    def provenance(self, period: int, end_year: int) -> str:
        found = self.window(period, end_year, 1)
        if found is None:
            raise self._missing(period, end_year)
        return found[1][0]

    def periods(self) -> tuple[int, ...]:
        """Distinct window lengths present, ascending."""
        return tuple(self._runs)

    def column(self, period: int) -> Iterator[tuple[int, float, str]]:
        """Every observation of one window length as ``(end_year, value,
        provenance)``, end years ascending; empty if the period is absent."""
        starts, values, provs = self._runs.get(period, ((), (), ()))
        return itertools.chain.from_iterable(
            zip(itertools.count(first), vs, ps) for first, vs, ps in zip(starts, values, provs))

    def years(self, period: int) -> tuple[int, ...]:
        """End years available for one window length, ascending."""
        return tuple(t for t, _, _ in self.column(period))

    def with_observations(
        self, extra: Mapping[tuple[int, int], ObservedValue]
    ) -> "MyeSeries":
        """A new series with ``extra`` added; keys may not collide."""
        clash = [key for key in extra if key in self]
        if clash:
            raise DataError(f"observations already present: {sorted(clash)}")
        rows = [*self._rows(), *_validated_rows(extra)]
        rows.sort()
        return MyeSeries._from_rows(self._name, self._unit, rows)


def load_csv(source: Union[str, os.PathLike, IO[str]]) -> MyeSeries:
    """Read one series from a CSV file, path, or open text stream.

    The header must name at least ``variable, unit, period, end_year,
    value``; ``provenance`` is optional and defaults to published. All rows
    must agree on variable and unit, and no ``(period, end_year)`` key may
    repeat. Two-digit end years are accepted as shorthand and normalized
    to four digits (00-68 map to 2000-2068, 69-99 to 1969-1999). A file's
    UTF-8 byte-order mark, as spreadsheets export it, is skipped. Blank
    lines are skipped. Parse failures raise :class:`CsvError` naming the
    1-based line.
    """
    if hasattr(source, "read"):
        return _load_csv_stream(source, name=getattr(source, "name", "<stream>"))
    with open(source, "r", encoding="utf-8-sig", newline="") as fh:
        return _load_csv_stream(fh, name=str(source))


def _load_csv_stream(fh: IO[str], name: str) -> MyeSeries:
    # a stream opened as utf-8, not utf-8-sig, keeps the BOM: drop it before
    # csv reads the header, so a quoted first name still parses as quoted
    lines = iter(fh)
    first = next(lines, "").removeprefix("\ufeff")
    reader = csv.reader(itertools.chain([first] if first else [], lines))
    header = next(reader, None)
    if header is None:
        raise CsvError(f"{name}: empty file, expected a header row")
    fields = [f.strip() for f in header]
    missing = [c for c in _CSV_COLUMNS[:-1] if c not in fields]
    if missing:
        raise CsvError(f"{name}: header lacks required columns {missing}")
    # a name given twice reads its last column; a short row reads None past
    # its end, as csv.DictReader gives them
    column = {f: i for i, f in enumerate(fields)}
    iv, iu, ik, it, ix = (column[c] for c in _CSV_COLUMNS[:-1])
    ip = column.get("provenance")
    pad = [None] * len(fields)

    variable = unit = None
    rows: list[_Row] = []
    seen: set[tuple[int, int]] = set()
    for row in reader:
        if not row:
            continue
        line = reader.line_num
        if len(row) < len(pad):
            row += pad[len(row):]
        var = (row[iv] or "").strip()
        un = (row[iu] or "").strip()
        if var != variable or un != unit:
            if not var or not un:
                raise CsvError(f"{name} line {line}: variable and unit must be nonempty")
            if variable is not None:
                raise CsvError(
                    f"{name} line {line}: row has variable/unit {var!r}/{un!r}, "
                    f"expected {variable!r}/{unit!r}"
                )
            variable, unit = var, un
        try:
            k = int((row[ik] or "").strip())
        except ValueError:
            raise CsvError(f"{name} line {line}: period {row[ik]!r} is not an integer")
        if k < 1:
            raise CsvError(f"{name} line {line}: period must be >= 1, got {k}")
        try:
            t = int((row[it] or "").strip())
        except ValueError:
            raise CsvError(
                f"{name} line {line}: end_year {row[it]!r} is not an integer"
            )
        if 0 <= t <= 99:
            # two-digit shorthand; same century pivot as strptime's %y
            t += 2000 if t <= 68 else 1900
        try:
            v = float((row[ix] or "").strip())
        except ValueError:
            raise CsvError(f"{name} line {line}: value {row[ix]!r} is not a number")
        prov = (ip is not None and (row[ip] or "").strip()) or PUBLISHED
        key = (k, t)
        if key in seen:
            raise CsvError(
                f"{name} line {line}: duplicate observation for period {k}, end year {t}"
            )
        seen.add(key)
        try:
            v = _checked_value(v, prov)
        except DataError as exc:
            raise CsvError(f"{name} line {line}: {exc}") from None
        # one shared string per tag, not one per row
        rows.append((k, t, v, IMPUTED if prov == IMPUTED else PUBLISHED))
    if not rows:
        raise CsvError(f"{name}: no observation rows")
    rows.sort()
    return MyeSeries._from_rows(variable, unit, rows)


def write_csv(series: MyeSeries, target: Union[str, os.PathLike, IO[str], None] = None) -> str:
    """Write ``series`` in the interchange layout; returns the CSV text.

    ``target`` may be a path or an open text stream; with ``None`` the text
    is only returned. Values use shortest round-trip formatting, so
    ``load_csv`` on the output reproduces the series exactly.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    # csv writes a float as its repr, the shortest round-trip form
    writer.writerows(map((series.name, series.unit).__add__, series._rows()))
    text = buf.getvalue()
    if target is None:
        pass
    elif hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


def _base_mean(name: str, xs: Sequence[float], period: int, end_year: int) -> float:
    """Mean of the 1y values ``xs`` of the window of ``period`` ending
    ``end_year``; raises :class:`DomainError` if their sum overflows."""
    try:
        total = math.fsum(xs)
    except (OverflowError, ValueError):  # a partial sum past the float range
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(
            f"{name}: sum of the 1y values in the window of {period} "
            f"ending {end_year} overflows the float range"
        )
    return total / period


def sma_of_base(series: MyeSeries, period: int, end_year: int) -> float:
    """Equal-weight mean of the 1y values over one window.

    Averages the single-year observations ending ``end_year`` back through
    ``end_year - period + 1``. This is what a ``period``-length estimate
    would be if it aggregated the published single-year data exactly.

    Raises
    ------
    MissingDataError
        Listing the years whose 1y values are absent.
    DomainError
        If the window's sum leaves the float range.
    ValueError
        If ``period`` is not an integer >= 1 or ``end_year`` is not an integer.
    """
    check_int(period, "period", 1)
    check_int(end_year, "end_year")
    found = series.window(1, end_year, period)
    if found is None:
        gaps = [t for t in range(end_year - period + 1, end_year + 1) if (1, t) not in series]
        raise MissingDataError(
            f"{series.name}: 1y values missing for years {gaps} "
            f"(window of {period} ending {end_year})"
        )
    return _base_mean(series.name, found[0], period, end_year)


def impute_random_walk(
    series: MyeSeries, targets: Iterable[tuple[int, int]]
) -> MyeSeries:
    """Fill missing observations by random-walk forecasting; returns a new series.

    Under a random-walk model the best guess for a gap between two published
    values is their midpoint. Beyond the last published value, the fill
    continues the estimated per-year drift; for a random walk the drift
    estimate from a stretch of observations uses only its endpoints
    (intermediate increments telescope away), so the step is
    ``(Y_last - Y_first) / (t_last - t_first)`` over the published years
    before the target. Only published observations anchor the fill; values
    imputed earlier (in the input or in this call) are never used as
    anchors.

    Parameters
    ----------
    series : MyeSeries
        Source data; never modified.
    targets : iterable of (period, end_year)
        Keys to fill. Each must be absent from ``series``.

    Raises
    ------
    ValueError
        If a target is not a ``(period, end_year)`` pair, its period is not
        an integer >= 1 or its end year is not an integer; the message names
        the target.
    ImputationError
        If a target already exists or lacks the anchors its position needs
        (an interior gap needs one published value on each side; a trailing
        gap needs two published values before it).
    """
    filled: dict[tuple[int, int], ObservedValue] = {}
    # per period, the published end years and their values, read from the
    # provenance lists on the period's first target; values filled by this
    # call never join them
    anchors: dict[int, tuple[list[int], list[float]]] = {}
    for key in targets:
        try:
            k, t = key
        except (TypeError, ValueError):
            raise ValueError(f"target {key!r}: must be a (period, end_year) pair") from None
        check_int(k, f"target {key!r}: period", 1)
        check_int(t, f"target {key!r}: end year")
        if series.has(k, t) or key in filled:
            prov = filled[key].provenance if key in filled else series.provenance(k, t)
            raise ImputationError(
                f"{series.name}: target {k}y ending {t} already has a {prov} value"
            )
        if k not in anchors:
            published = [(yr, v) for yr, v, p in series.column(k) if p == PUBLISHED]
            anchors[k] = [yr for yr, _ in published], [v for _, v in published]
        years, values = anchors[k]
        # t is absent from the series, so years[:i] < t < years[i:]
        i = bisect.bisect_left(years, t)
        if 0 < i < len(years):
            value = (values[i - 1] + values[i]) / 2.0
        elif i >= 2:
            first, last = years[0], years[i - 1]
            step = (values[i - 1] - values[0]) / (last - first)
            value = values[i - 1] + (t - last) * step
        elif i == 1:
            raise ImputationError(
                f"{series.name}: cannot extrapolate {k}y ending {t}: only one "
                f"published {k}y value (ending {years[0]}) precedes it"
            )
        else:
            raise ImputationError(
                f"{series.name}: cannot impute {k}y ending {t}: no published "
                f"{k}y value precedes it"
            )
        filled[key] = ObservedValue(value, IMPUTED)
    return series.with_observations(filled) if filled else series


def round_half_away(x: float, decimals: int = 0) -> float:
    """Round with ties moving away from zero (0.5 -> 1, -0.5 -> -1)."""
    return float(_decimal_render(x, decimals))


def render_value(x: float, decimals: int = 0) -> str:
    """Fixed-point string with half-away-from-zero ties, e.g. 41327.5 -> '41328'.

    Raises
    ------
    DomainError
        If ``x`` is NaN or infinite.
    """
    return str(_decimal_render(x, decimals))


def _decimal_render(x: float, decimals: int) -> Decimal:
    check_int(decimals, "decimals", 0)
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"cannot render {x!r}: not a finite number")
    d = Decimal(repr(x))
    # digits before the point, the decimals and a carry, so quantize never
    # runs out of the default context's 28 digits
    ctx = Context(prec=max(d.adjusted(), 0) + decimals + 2)
    return d.quantize(Decimal(1).scaleb(-decimals), rounding=ROUND_HALF_UP, context=ctx)


def display_decimals(unit: str) -> int:
    """Digits after the point used when rendering values of ``unit``."""
    return _UNIT_DECIMALS.get(unit, _DEFAULT_DECIMALS)


@dataclass(frozen=True)
class RegionPair:
    """Two regions' series for the same variable, for cross-region comparison.

    Region ``a`` is the reference (typically richer data), region ``b`` the
    one being compared against it. Both must measure the same variable in
    the same unit.
    """

    a: MyeSeries
    b: MyeSeries

    def __post_init__(self) -> None:
        if self.a.name != self.b.name or self.a.unit != self.b.unit:
            raise DataError(
                f"regions measure different things: "
                f"{self.a.name!r} [{self.a.unit}] vs {self.b.name!r} [{self.b.unit}]"
            )
