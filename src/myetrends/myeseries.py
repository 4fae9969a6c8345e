"""Multi-year estimate series: storage, CSV interchange, imputation, display.

A series holds one variable for one region across several overlapping
sampling windows. Each observation is keyed by ``(period, end_year)``:
``period`` is the window length in years, ``end_year`` the final year of the
window. Values carry a provenance tag, ``"published"`` or ``"imputed"``, so
downstream diagnostics can tell real data from forecast extensions.

Storage is columnar. Each period's observations are kept as runs of
consecutive end years, each a first end year with a list of values and a
parallel list of provenance tags; a missing year ends one run and starts
the next. One lookup bisects the runs' first years; a filter reads its
window's values as one slice of one run, newest first and with no tags,
and the NSR audit walks a period's runs beside the 1y runs in one pass.
Adding observations splices them into the runs they touch and shares the
rest. Memory grows with the number of observations, not with the span of
their end years.

CSV layout (one observation per row, header required)::

    variable,unit,period,end_year,value,provenance
    income,dollars,3,2005,40404,published

``provenance`` may be blank or the column omitted entirely; rows then count
as published. Rows may come in any order; a repeated key is an error named
at its own line. Writing uses shortest round-trip float formatting and
reading takes every end year as written, so a written file loads back to
an identical series for every integer end year; only a name's or unit's
surrounding whitespace is stripped on reading.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import math
import os
from decimal import ROUND_HALF_UP, Context, Decimal
from operator import itemgetter

from .exceptions import (
    CsvError,
    DataError,
    DomainError,
    ImputationError,
    MissingDataError,
    Record,
    _set,
    _show,
    _to_float,
    check_int,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import IO, Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

__all__ = [
    "PUBLISHED",
    "IMPUTED",
    "ObservedValue",
    "MyeSeries",
    "RegionPair",
    "load_csv",
    "write_csv",
    "impute_random_walk",
    "render_value",
    "display_decimals",
]

PUBLISHED = "published"
IMPUTED = "imputed"

_CSV_COLUMNS = ("variable", "unit", "period", "end_year", "value", "provenance")
_HEADER = ",".join(_CSV_COLUMNS) + "\n"
# A provenance cell as written, to its tag; a blank cell is published.
_TAGS = {"": PUBLISHED, PUBLISHED: PUBLISHED, IMPUTED: IMPUTED}

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


class ObservedValue(Record):
    """A single estimate with its provenance tag."""

    def __init__(self, value: float, provenance: str = PUBLISHED) -> None:
        _set(self, "value", _checked_value(value, provenance))
        _set(self, "provenance", provenance)


def _checked_value(value, provenance: str) -> float:
    """``value`` as a float, once ``provenance`` is a known tag and the value
    is a finite number within the float range; raises :class:`DataError`
    otherwise. A value of a type ``float()`` does not take (``None``, a
    list) is a programming error and raises its ``TypeError``."""
    if provenance not in (PUBLISHED, IMPUTED):
        raise DataError(
            f"provenance must be {PUBLISHED!r} or {IMPUTED!r}, got {provenance!r}"
        )
    try:
        v = float(value)
    except OverflowError:
        raise DataError("value is beyond the float range") from None
    except ValueError:
        raise DataError(f"value {value!r} is not a number") from None
    if not math.isfinite(v):
        raise DataError(f"value must be finite, got {value!r}")
    return v


def _stored(value: float, provenance: str) -> ObservedValue:
    """An :class:`ObservedValue` of a stored value and tag, which were checked
    when they were stored, so its checks are skipped."""
    ov = object.__new__(ObservedValue)
    _set(ov, "value", value)
    _set(ov, "provenance", provenance)
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
            raise DataError(f"observation key must be (period, end_year), got {_show(key)}")
        if type(k) is not int or type(t) is not int or k < 1:
            check_int(k, "period", 1, DataError)
            check_int(t, "end_year", error=DataError)
        if isinstance(raw, ObservedValue):
            rows.append((k, t, raw.value, raw.provenance))
        else:
            try:
                rows.append((k, t, _checked_value(raw, PUBLISHED), PUBLISHED))
            except DataError as exc:
                raise DataError(f"observation for period {k}, end year {t}: {exc}") from None
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
    list of provenance tags, and a gap between end years ends a run. The
    runs are canonical: no two runs of a period are adjacent, and periods
    and runs ascend, so two series of the same observations store equal
    runs.

    Every lookup bisects the runs' first years once, in one place.
    :meth:`window` returns a stretch of end years as one slice of one run,
    values and tags, oldest first; a filter reads the values alone, as one
    slice taken newest first, the order of its weights, and :meth:`value`,
    :meth:`has` and ``in`` slice nothing. The NSR audit
    reads each k-year value with its 1y window in one walk over the runs,
    and :meth:`column` walks one period's observations in end-year order.
    :meth:`with_observations` copies only the runs a new observation
    extends or joins and shares every other run with this series. Memory
    grows with the number of observations, however far apart their end
    years lie. :class:`ObservedValue` objects are built only when
    :meth:`items` yields them.

    A key is read as it is stored: both parts must be integers (an ``int``
    subclass other than ``bool`` is accepted). A lookup with a ``bool``, a
    float or a string raises ``ValueError`` naming ``period`` or
    ``end_year``; ``key in series`` answers False for it.
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
    def _from_runs(cls, name: str, unit: str, runs: _Runs, length: int) -> "MyeSeries":
        """A series of canonical runs of ``length`` validated observations."""
        self = cls.__new__(cls)
        self._name, self._unit, self._runs, self._len = name, unit, runs, length
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
            return self._find(k, t, 1) is not None
        except (TypeError, ValueError):
            return False

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

    def _find(
        self, period: int, end_year: int, length: int
    ) -> Optional[tuple[list[float], list[str], int]]:
        """The run holding the ``length`` end years of ``period`` ending at
        ``end_year``, as ``(values, provenances, stop)``: the window is
        ``[stop - length:stop]`` of both lists. ``None`` if any of the end
        years is absent; a ``length`` of 0 gives two new empty lists.

        Every lookup reads through here, so here the key rule holds:
        ``period`` and ``end_year`` must be integers, or a ``ValueError``
        names the argument (``in`` answers False instead). ``length`` is
        taken as an integer >= 0: :meth:`window` checks a caller's, and the
        other readers pass 1 or a length already checked.
        """
        if type(period) is not int or type(end_year) is not int:
            check_int(period, "period")
            check_int(end_year, "end_year")
        if not length:
            return [], [], 0
        runs = self._runs.get(period)
        if runs is not None:
            starts, values, provs = runs
            i = bisect.bisect_right(starts, end_year) - 1
            if i >= 0:
                vs = values[i]
                stop = end_year - starts[i] + 1
                if length <= stop <= len(vs):
                    return vs, provs[i], stop
        return None

    def window(
        self, period: int, end_year: int, length: int
    ) -> Optional[tuple[list[float], list[str]]]:
        """The ``length`` observations of ``period`` ending at ``end_year``.

        Returns ``(values, provenances)``, oldest end year first, as new
        lists sliced from one run; ``None`` if any of the end years is
        absent. A ``length`` of 0 gives two empty lists. A key that breaks
        the key rule, or a ``length`` that is not an integer >= 0, raises
        ``ValueError`` naming the argument, the key's parts first.
        """
        if type(length) is not int or length < 0:
            check_int(period, "period")
            check_int(end_year, "end_year")
            check_int(length, "length", 0)
        found = self._find(period, end_year, length)
        if found is None:
            return None
        values, provs, stop = found
        return values[stop - length:stop], provs[stop - length:stop]

    def _window_values(self, period: int, end_year: int, length: int) -> Optional[list[float]]:
        """The values of :meth:`window` without their tags, newest end year
        first, the order of a filter's weights: one slice of one run, or
        ``None``."""
        found = self._find(period, end_year, length)
        if found is None:
            return None
        values, _, stop = found
        # a window that starts its run is sliced down to index 0 by None, as
        # the index before it, -1, would count from the end
        return values[stop - 1:stop - length - 1 if stop > length else None:-1]

    def _base_windows(
        self, period: int, published_only: bool
    ) -> Iterator[tuple[int, float, list[float]]]:
        """Each observation of ``period`` whose 1y window is complete, as
        ``(end_year, value, base)``, end years ascending: ``base`` holds the
        1y values of the ``period`` years ending ``end_year``, one slice of
        one run. With ``published_only``, an observation is skipped if it or
        a value of its window is imputed.

        One pass: the period's runs and the 1y runs are walked together, so
        no end year is looked up on its own. A pair of runs shares the end
        years from the later of the period run's first year and the 1y
        run's ``period``-th year, to the earlier of their last years. With
        ``published_only``, whether a 1y run holds an imputed value is
        decided once per run, and only such a run's windows have their
        tags scanned.
        """
        runs, base = self._runs.get(period), self._runs.get(1)
        if runs is None or base is None:
            return
        starts, values, provs = runs
        base_starts, base_values, base_provs = base
        if published_only:
            base_imputed = [IMPUTED in xps for xps in base_provs]
        i = j = 0
        while i < len(starts) and j < len(base_starts):
            first, vs, ps = starts[i], values[i], provs[i]
            base_first, xs, xps = base_starts[j], base_values[j], base_provs[j]
            last = first + len(vs) - 1
            base_last = base_first + len(xs) - 1
            scan = published_only and base_imputed[j]
            for t in range(max(first, base_first + period - 1), min(last, base_last) + 1):
                stop = t - base_first + 1
                if published_only and (ps[t - first] == IMPUTED
                                       or scan and IMPUTED in xps[stop - period:stop]):
                    continue
                yield t, vs[t - first], xs[stop - period:stop]
            # the run that ends first can share no end year with a later run
            if last <= base_last:
                i += 1
            else:
                j += 1

    def _missing(self, period: int, end_year: int) -> MissingDataError:
        return MissingDataError(
            f"{self._name}: no {_show(int(period))}y observation ending {_show(int(end_year))}")

    def has(self, period: int, end_year: int) -> bool:
        return self._find(period, end_year, 1) is not None

    def value(self, period: int, end_year: int) -> float:
        """The estimate for (period, end_year); raises if absent."""
        found = self._find(period, end_year, 1)
        if found is None:
            raise self._missing(period, end_year)
        values, _, stop = found
        return values[stop - 1]

    def provenance(self, period: int, end_year: int) -> str:
        found = self._find(period, end_year, 1)
        if found is None:
            raise self._missing(period, end_year)
        _, provs, stop = found
        return provs[stop - 1]

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
        """A new series with ``extra`` added; keys may not collide.

        Each new observation is spliced into its period's runs: a run it
        extends is copied first, and a fill that closes the gap between two
        runs joins them. Every other run is shared with this series, which
        both leave unchanged.
        """
        clash = [key for key in extra if key in self]
        if clash:
            raise DataError(f"observations already present: {sorted(clash)}")
        return self._with_rows(_validated_rows(extra))

    def _with_rows(self, rows: list[_Row]) -> "MyeSeries":
        """A new series with ``rows`` added: valid rows of new, distinct keys."""
        rows.sort()
        runs = dict(self._runs)
        for k, group in itertools.groupby(rows, itemgetter(0)):
            runs[k] = _spliced(runs.get(k, ((), (), ())), group)
        if len(runs) > len(self._runs):
            # a new period: keep the periods ascending
            runs = {k: runs[k] for k in sorted(runs)}
        return MyeSeries._from_runs(self._name, self._unit, runs, self._len + len(rows))


def _spliced(
    runs: tuple[Sequence[int], Sequence[list[float]], Sequence[list[str]]],
    rows: Iterable[_Row],
) -> tuple[list[int], list[list[float]], list[list[str]]]:
    """One period's runs with ``rows`` spliced in, canonical again.

    ``rows`` are of that period, sorted by end year, and none is present.
    Each row is a run of one; the old and new runs, in order of first end
    year, are joined wherever one ends the year before the next begins. A
    joined old run is copied before it grows, so every old run is either
    shared as it is or left unchanged.
    """
    starts, values, provs = runs
    pieces = [*zip(starts, values, provs, itertools.repeat(False)),
              *((t, [v], [p], True) for _, t, v, p in rows)]
    pieces.sort(key=itemgetter(0))
    new_starts: list[int] = []
    new_values: list[list[float]] = []
    new_provs: list[list[str]] = []
    owned = False  # whether the last run's lists were made here
    end = None     # the year after the last run's last end year
    for first, vs, ps, fresh in pieces:
        if first == end:
            if not owned:
                new_values[-1] = new_values[-1][:]
                new_provs[-1] = new_provs[-1][:]
                owned = True
            new_values[-1] += vs
            new_provs[-1] += ps
        else:
            new_starts.append(first)
            new_values.append(vs)
            new_provs.append(ps)
            owned = fresh
        end = first + len(vs)
    return new_starts, new_values, new_provs


def load_csv(source: Union[str, os.PathLike, IO[str]]) -> MyeSeries:
    """Read one series from a CSV file, path, or open text stream.

    The header must name at least ``variable, unit, period, end_year,
    value``; ``provenance`` is optional and defaults to published. All rows
    must agree on variable and unit. Rows may come in any order, but no
    ``(period, end_year)`` key may repeat; a repeat is named at its own
    line. An end year is any integer and is read as written, so ``07`` is
    the year 7. A name or unit loses its surrounding whitespace. One
    leading UTF-8 byte-order mark is skipped, from a path or a stream
    alike. Blank lines are skipped. Parse failures raise
    :class:`CsvError` naming the source and the 1-based line; so does text
    that csv cannot parse, and undecodable text names only the source.
    """
    if hasattr(source, "read"):
        return _load_csv_stream(source, name=getattr(source, "name", "<stream>"))
    with open(source, "r", encoding="utf-8", newline="") as fh:
        return _load_csv_stream(fh, name=str(source))


def _reread(read: Callable[[str], float], cell: str, field: str, name: str, line: int) -> float:
    """``read`` (``int`` or ``float``) of ``cell`` stripped, once it has
    refused ``cell`` as written; raises :class:`CsvError` naming ``field``
    if that fails too. Both give a cell they accept the value of its
    stripped form, so only a refused cell is stripped: ``strip()`` also
    removes \\x1c-\\x1f, which they refuse."""
    try:
        return read(cell.strip())
    except ValueError:
        kind = "an integer" if read is int else "a number"
        raise CsvError(f"{name} line {line}: {field} {cell!r} is not {kind}") from None


def _load_csv_stream(fh: IO[str], name: str) -> MyeSeries:
    # the one BOM rule: drop one BOM before csv reads the header, so a
    # quoted first name still parses as quoted
    lines = iter(fh)
    try:
        first = next(lines, "").removeprefix("\ufeff")
        reader = csv.reader(itertools.chain([first] if first else [], lines))
        header = next(reader, None)
        if header is None:
            raise CsvError(f"{name}: empty file, expected a header row")
        fields = [f.strip() for f in header]
        missing = [c for c in _CSV_COLUMNS[:-1] if c not in fields]
        if missing:
            raise CsvError(f"{name}: header lacks required columns {missing}")
        # a name given twice reads its last column
        column = {f: i for i, f in enumerate(fields)}
        iv, iu, ik, it, ix = (column[c] for c in _CSV_COLUMNS[:-1])
        ip = column.get("provenance")
        need = max(iv, iu, ik, it, ix) + 1

        variable = unit = raw_var = raw_unit = None
        rows: list[_Row] = []
        # the last key read, as its two parts; a key above it is new, and a
        # set of the keys read is built on the first row out of order
        last_k = last_t = 0
        seen = None
        for row in reader:
            if not row:
                continue
            if len(row) < need:
                raise CsvError(
                    f"{name} line {reader.line_num}: row ends after {len(row)} fields, "
                    f"but the header's required columns need {need}"
                )
            # a name and unit as written are stripped and checked only when
            # they differ from the row before
            rv, ru = row[iv], row[iu]
            if rv != raw_var or ru != raw_unit:
                var, un = rv.strip(), ru.strip()
                if var != variable or un != unit:
                    if not var or not un:
                        raise CsvError(
                            f"{name} line {reader.line_num}: variable and unit must be nonempty")
                    if variable is not None:
                        raise CsvError(
                            f"{name} line {reader.line_num}: row has variable/unit "
                            f"{var!r}/{un!r}, expected {variable!r}/{unit!r}"
                        )
                    variable, unit = var, un
                raw_var, raw_unit = rv, ru
            try:
                k = int(row[ik])
            except ValueError:
                k = _reread(int, row[ik], "period", name, reader.line_num)
            if k < 1:
                raise CsvError(f"{name} line {reader.line_num}: period must be >= 1, got {k}")
            try:
                t = int(row[it])
            except ValueError:
                t = _reread(int, row[it], "end_year", name, reader.line_num)
            try:
                v = float(row[ix])
            except ValueError:
                v = _reread(float, row[ix], "value", name, reader.line_num)
            if seen is None and (k > last_k or k == last_k and t > last_t):
                last_k, last_t = k, t
            else:
                seen = seen or {r[:2] for r in rows}  # built once: rows is not empty
                if (k, t) in seen:
                    raise CsvError(
                        f"{name} line {reader.line_num}: duplicate observation for "
                        f"period {k}, end year {t}"
                    )
                seen.add((k, t))
            # one shared string per tag, not one per row; a cell the map
            # lacks is stripped and looked up again
            cell = row[ip] if ip is not None and ip < len(row) else ""
            tag = _TAGS.get(cell)
            if tag is None:
                cell = cell.strip()
                tag = _TAGS.get(cell)
            if tag is None or not math.isfinite(v):
                try:
                    _checked_value(v, tag or cell)
                except DataError as exc:
                    raise CsvError(f"{name} line {reader.line_num}: {exc}") from None
            rows.append((k, t, v, tag))
    except csv.Error as exc:
        raise CsvError(f"{name} line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start:exc.end]
        raise CsvError(f"{name}: not {exc.encoding} text: {exc.reason} {bad!r}") from None
    if not rows:
        raise CsvError(f"{name}: no observation rows")
    if seen is not None:  # a row came out of key order
        rows.sort()
    return MyeSeries._from_runs(variable, unit, _pack(rows), len(rows))


def write_csv(series: MyeSeries, target: Union[str, os.PathLike, IO[str], None] = None) -> str:
    """Write ``series`` in the interchange layout; returns the CSV text.

    ``target`` may be a path or an open text stream; with ``None`` the text
    is only returned. Values use shortest round-trip formatting, so
    ``load_csv`` on the output reproduces the series exactly, for every
    integer end year; only a name's or unit's surrounding whitespace is
    lost, as ``load_csv`` strips it. The text is
    the same on every supported Python: byte for byte what Python 3.13's
    ``csv`` writer (``QUOTE_MINIMAL``, line terminator ``"\\n"``) writes
    for the header and one row per observation.

    Raises
    ------
    DataError
        Naming the field, before anything is written, if the series' name
        or unit is one ``load_csv`` could not read back: blank once its
        surrounding whitespace is stripped, or not encodable as UTF-8 (a
        lone surrogate).
    """
    for field, text in (("name", series.name), ("unit", series.unit)):
        if not text.strip():
            raise DataError(f"series {field} {text!r} is blank once stripped, "
                            "so load_csv could not read it back")
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise DataError(f"series {field} {text!r} is not encodable as UTF-8") from None
    # the name and unit are quoted once, and each period formatted once, in
    # the prefix "name,unit,period," of its rows; as csv does, an int is written
    # as its str (hence !s: an int subclass such as an IntEnum may format
    # otherwise) and a float as its repr (the shortest round-trip form), and no
    # finite float, int or tag needs quoting, so the rest is formatted directly
    prefix = f"{_quoted(series.name)},{_quoted(series.unit)},"
    lines = [_HEADER]
    for k, (starts, values, provs) in series._runs.items():
        head = f"{prefix}{k!s},"
        lines += [f"{head}{t},{v!r},{p}\n" for first, vs, ps in zip(starts, values, provs)
                  for t, v, p in zip(range(first, first + len(vs)), vs, ps)]
    text = "".join(lines)
    if target is None:
        pass
    elif hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "wb") as fh:
            fh.write(text.encode("utf-8"))
    return text


def _quoted(field: str) -> str:
    """``field`` as a CSV cell: in quotes, with its quotes doubled, if it
    holds a comma, a quote or a line break (RFC 4180), else as it is."""
    if any(c in field for c in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


def impute_random_walk(
    series: MyeSeries, targets: Iterable[tuple[int, int]]
) -> MyeSeries:
    """Fill missing observations by random-walk forecasting; returns a new series.

    A gap between two published values takes their midpoint. Under a
    random-walk model that is the conditional mean only for a one-year gap
    (one missing end year between its anchors); a longer interior gap also
    gets the midpoint today, where the conditional mean would move along
    the line between the anchors. Beyond the last published value, the fill
    continues the estimated per-year drift; for a random walk the drift
    estimate from a stretch of observations uses only its endpoints
    (intermediate increments telescope away), so the step is
    ``(Y_last - Y_first) / (t_last - t_first)`` over the published years
    before the target. Only published observations anchor the fill; values
    imputed earlier (in the input or in this call) are never used as
    anchors.

    Each fill is the exact value of its formula rounded once to the nearest
    float: the midpoint ``(Y_before + Y_after) / 2``, or the trailing value
    ``Y_last + (t - t_last) * step`` formed exactly from the published
    floats and end years, however large.

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
    DomainError
        If an extrapolated value lies beyond the float range, however far
        its end year; the message names the series and the target.
    """
    filled: dict[tuple[int, int], _Row] = {}
    # per period, the published end years and their values, read from the
    # period's runs and tag lists on its first target; values filled by this
    # call never join them
    anchors: dict[int, tuple[list[int], list[float]]] = {}
    for key in targets:
        try:
            k, t = key
        except (TypeError, ValueError):
            raise ValueError(f"target {_show(key)}: must be a (period, end_year) pair") from None
        if type(k) is not int or type(t) is not int or k < 1:
            check_int(k, f"target {_show(key)}: period", 1)
            check_int(t, f"target {_show(key)}: end year")
        if series.has(k, t) or key in filled:
            prov = IMPUTED if key in filled else series.provenance(k, t)
            raise ImputationError(
                f"{series.name}: target {_show(int(k))}y ending {_show(int(t))} already has "
                f"{'an' if prov == IMPUTED else 'a'} {prov} value"
            )
        if k not in anchors:
            years, values = anchors[k] = [], []
            for first, vs, ps in zip(*series._runs.get(k, ((), (), ()))):
                published = [p == PUBLISHED for p in ps]
                years += itertools.compress(range(first, first + len(vs)), published)
                values += itertools.compress(vs, published)
        years, values = anchors[k]
        # t is absent from the series, so years[:i] < t < years[i:]
        i = bisect.bisect_left(years, t)
        if 0 < i < len(years):
            a, b = values[i - 1], values[i]
            value = (a + b) / 2.0
            if not math.isfinite(value):
                # the sum overflowed; the sum of the halves cannot
                value = a / 2.0 + b / 2.0
        elif i >= 2:
            # loaded here, so a call with only interior targets never loads it
            from fractions import Fraction

            b, last = Fraction(values[i - 1]), years[i - 1]
            drift = (b - Fraction(values[0])) / (last - years[0])
            value = _to_float(b + (t - last) * drift,
                              f"{series.name}: imputed {_show(int(k))}y ending {_show(int(t))}")
        elif i == 1:
            raise ImputationError(
                f"{series.name}: cannot extrapolate {_show(int(k))}y ending {_show(int(t))}: only "
                f"one published {_show(int(k))}y value (ending {_show(years[0])}) precedes it"
            )
        else:
            raise ImputationError(
                f"{series.name}: cannot impute {_show(int(k))}y ending {_show(int(t))}: no "
                f"published {_show(int(k))}y value precedes it"
            )
        filled[key] = (k, t, value, IMPUTED)
    # each key is new and each value finite, so the rows need no more checks
    return series._with_rows(list(filled.values())) if filled else series


def render_value(x: float, decimals: int = 0) -> str:
    """Fixed-point string with half-away-from-zero ties, e.g. 41327.5 -> '41328'.

    An exact ``x`` (an ``int`` or a ``Fraction``) is rounded once to the
    nearest float first.

    Raises
    ------
    DomainError
        If ``x`` is NaN or infinite, or is exact and beyond the float range.
    """
    check_int(decimals, "decimals", 0)
    x = _to_float(x, f"cannot render {_show(x)}: it")
    if not math.isfinite(x):
        raise DomainError(f"cannot render {x!r}: not a finite number")
    d = Decimal(repr(x))
    # digits before the point, the decimals and a carry, so quantize never
    # runs out of the default context's 28 digits
    ctx = Context(prec=max(d.adjusted(), 0) + decimals + 2)
    return str(d.quantize(Decimal(1).scaleb(-decimals), rounding=ROUND_HALF_UP, context=ctx))


def display_decimals(unit: str) -> int:
    """Digits after the point used when rendering values of ``unit``."""
    return _UNIT_DECIMALS.get(unit, _DEFAULT_DECIMALS)


class RegionPair(Record):
    """Two regions' series for the same variable, for cross-region comparison.

    Region ``a`` is the reference (typically richer data), region ``b`` the
    one being compared against it. Both must measure the same variable in
    the same unit.
    """

    def __init__(self, a: MyeSeries, b: MyeSeries) -> None:
        _set(self, "a", a)
        _set(self, "b", b)
        if self.a.name != self.b.name or self.a.unit != self.b.unit:
            raise DataError(
                f"regions measure different things: "
                f"{self.a.name!r} [{self.a.unit}] vs {self.b.name!r} [{self.b.unit}]"
            )
