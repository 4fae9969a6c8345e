"""Multi-year estimate series: storage, CSV interchange, imputation, display.

A series holds one variable for one region across several overlapping
sampling windows. Each observation is keyed by ``(period, end_year)``:
``period`` is the window length in years, ``end_year`` the final year of the
window. Values carry a provenance tag, ``"published"`` or ``"imputed"``, so
downstream diagnostics can tell real data from forecast extensions.

CSV layout (one observation per row, header required)::

    variable,unit,period,end_year,value,provenance
    income,dollars,3,2005,40404,published

``provenance`` may be blank or the column omitted entirely; rows then count
as published. Writing uses shortest round-trip float formatting, so a
written file loads back to an identical series.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal
from typing import IO, Iterable, Mapping, Sequence, Union

from .exceptions import CsvError, DataError, DomainError, ImputationError, MissingDataError

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
        if self.provenance not in (PUBLISHED, IMPUTED):
            raise DataError(
                f"provenance must be {PUBLISHED!r} or {IMPUTED!r}, "
                f"got {self.provenance!r}"
            )
        v = float(self.value)
        if not math.isfinite(v):
            raise DataError(f"value must be finite, got {self.value!r}")
        object.__setattr__(self, "value", v)


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
        obs: dict[tuple[int, int], ObservedValue] = {}
        for key, raw in observations.items():
            try:
                k, t = key
            except (TypeError, ValueError):
                raise DataError(f"observation key must be (period, end_year), got {key!r}")
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise DataError(f"period must be an integer >= 1, got {k!r}")
            if not isinstance(t, int) or isinstance(t, bool):
                raise DataError(f"end_year must be an integer, got {t!r}")
            if not isinstance(raw, ObservedValue):
                raw = ObservedValue(float(raw))
            obs[(k, t)] = raw
        if not obs:
            raise DataError("series must contain at least one observation")
        self._name = name
        self._unit = unit
        self._obs = dict(sorted(obs.items()))

    @property
    def name(self) -> str:
        return self._name

    @property
    def unit(self) -> str:
        return self._unit

    def __len__(self) -> int:
        return len(self._obs)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._obs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MyeSeries):
            return NotImplemented
        return (
            self._name == other._name
            and self._unit == other._unit
            and self._obs == other._obs
        )

    def __repr__(self) -> str:
        ks = ", ".join(f"{k}y:{len(self.years(k))}" for k in self.periods())
        return f"<MyeSeries {self._name!r} [{self._unit}] {ks}>"

    def items(self) -> Iterable[tuple[tuple[int, int], ObservedValue]]:
        """Observations in (period, end_year) order."""
        return iter(self._obs.items())

    def has(self, period: int, end_year: int) -> bool:
        return (period, end_year) in self._obs

    def value(self, period: int, end_year: int) -> float:
        """The estimate for (period, end_year); raises if absent."""
        try:
            return self._obs[(period, end_year)].value
        except KeyError:
            raise MissingDataError(
                f"{self._name}: no {period}y observation ending {end_year}"
            ) from None

    def get(self, period: int, end_year: int, default=None):
        ov = self._obs.get((period, end_year))
        return ov.value if ov is not None else default

    def provenance(self, period: int, end_year: int) -> str:
        try:
            return self._obs[(period, end_year)].provenance
        except KeyError:
            raise MissingDataError(
                f"{self._name}: no {period}y observation ending {end_year}"
            ) from None

    def periods(self) -> tuple[int, ...]:
        """Distinct window lengths present, ascending."""
        return tuple(sorted({k for k, _ in self._obs}))

    def years(self, period: int) -> tuple[int, ...]:
        """End years available for one window length, ascending."""
        return tuple(sorted(t for k, t in self._obs if k == period))

    def with_observations(
        self, extra: Mapping[tuple[int, int], ObservedValue]
    ) -> "MyeSeries":
        """A new series with ``extra`` added; keys may not collide."""
        clash = set(extra) & set(self._obs)
        if clash:
            raise DataError(f"observations already present: {sorted(clash)}")
        merged = dict(self._obs)
        merged.update(extra)
        return MyeSeries(self._name, self._unit, merged)


def load_csv(source: Union[str, os.PathLike, IO[str]]) -> MyeSeries:
    """Read one series from a CSV file, path, or open text stream.

    The header must name at least ``variable, unit, period, end_year,
    value``; ``provenance`` is optional and defaults to published. All rows
    must agree on variable and unit, and no ``(period, end_year)`` key may
    repeat. Two-digit end years are accepted as shorthand and normalized
    to four digits (00-68 map to 2000-2068, 69-99 to 1969-1999). A file's
    UTF-8 byte-order mark, as spreadsheets export it, is skipped. Parse
    failures raise :class:`CsvError` naming the 1-based line.
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
    reader = csv.DictReader(itertools.chain([first] if first else [], lines))
    if reader.fieldnames is None:
        raise CsvError(f"{name}: empty file, expected a header row")
    # rows are looked up by these names, so they must be the stripped ones
    reader.fieldnames = fields = [f.strip() for f in reader.fieldnames]
    missing = [c for c in _CSV_COLUMNS[:-1] if c not in fields]
    if missing:
        raise CsvError(f"{name}: header lacks required columns {missing}")

    variable = unit = None
    obs: dict[tuple[int, int], ObservedValue] = {}
    for row in reader:
        line = reader.line_num
        var = (row.get("variable") or "").strip()
        un = (row.get("unit") or "").strip()
        if not var or not un:
            raise CsvError(f"{name} line {line}: variable and unit must be nonempty")
        if variable is None:
            variable, unit = var, un
        elif (var, un) != (variable, unit):
            raise CsvError(
                f"{name} line {line}: row has variable/unit {var!r}/{un!r}, "
                f"expected {variable!r}/{unit!r}"
            )
        try:
            k = int((row.get("period") or "").strip())
        except ValueError:
            raise CsvError(f"{name} line {line}: period {row.get('period')!r} is not an integer")
        if k < 1:
            raise CsvError(f"{name} line {line}: period must be >= 1, got {k}")
        try:
            t = int((row.get("end_year") or "").strip())
        except ValueError:
            raise CsvError(
                f"{name} line {line}: end_year {row.get('end_year')!r} is not an integer"
            )
        if 0 <= t <= 99:
            # two-digit shorthand; same century pivot as strptime's %y
            t += 2000 if t <= 68 else 1900
        try:
            v = float((row.get("value") or "").strip())
        except ValueError:
            raise CsvError(f"{name} line {line}: value {row.get('value')!r} is not a number")
        prov = (row.get("provenance") or "").strip() or PUBLISHED
        if (k, t) in obs:
            raise CsvError(
                f"{name} line {line}: duplicate observation for period {k}, end year {t}"
            )
        try:
            obs[(k, t)] = ObservedValue(v, prov)
        except DataError as exc:
            raise CsvError(f"{name} line {line}: {exc}") from None
    if not obs:
        raise CsvError(f"{name}: no observation rows")
    return MyeSeries(variable, unit, obs)


def write_csv(series: MyeSeries, target: Union[str, os.PathLike, IO[str], None] = None) -> str:
    """Write ``series`` in the interchange layout; returns the CSV text.

    ``target`` may be a path or an open text stream; with ``None`` the text
    is only returned. Values use shortest round-trip formatting, so
    ``load_csv`` on the output reproduces the series exactly.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for (k, t), ov in series.items():
        writer.writerow([series.name, series.unit, k, t, repr(ov.value), ov.provenance])
    text = buf.getvalue()
    if target is None:
        pass
    elif hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


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
    """
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    window = range(end_year - period + 1, end_year + 1)
    gaps = [t for t in window if not series.has(1, t)]
    if gaps:
        raise MissingDataError(
            f"{series.name}: 1y values missing for years {gaps} "
            f"(window of {period} ending {end_year})"
        )
    try:
        total = math.fsum(series.value(1, t) for t in window)
    except (OverflowError, ValueError):  # a partial sum past the float range
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(
            f"{series.name}: sum of the 1y values in the window of {period} "
            f"ending {end_year} overflows the float range"
        )
    return total / period


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
    ImputationError
        If a target already exists or lacks the anchors its position needs
        (an interior gap needs one published value on each side; a trailing
        gap needs two published values before it).
    """
    filled: dict[tuple[int, int], ObservedValue] = {}
    for key in targets:
        k, t = key
        if series.has(k, t) or key in filled:
            prov = filled[key].provenance if key in filled else series.provenance(k, t)
            raise ImputationError(
                f"{series.name}: target {k}y ending {t} already has a {prov} value"
            )
        anchors = [
            yr for yr in series.years(k) if series.provenance(k, yr) == PUBLISHED
        ]
        before = [yr for yr in anchors if yr < t]
        after = [yr for yr in anchors if yr > t]
        if before and after:
            lo, hi = before[-1], after[0]
            value = (series.value(k, lo) + series.value(k, hi)) / 2.0
        elif len(before) >= 2:
            first, last = before[0], before[-1]
            step = (series.value(k, last) - series.value(k, first)) / (last - first)
            value = series.value(k, last) + (t - last) * step
        elif before:
            raise ImputationError(
                f"{series.name}: cannot extrapolate {k}y ending {t}: only one "
                f"published {k}y value (ending {before[-1]}) precedes it"
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
    """Fixed-point string with half-away-from-zero ties, e.g. 41327.5 -> '41328'."""
    return str(_decimal_render(x, decimals))


def _decimal_render(x: float, decimals: int) -> Decimal:
    if decimals < 0:
        raise ValueError(f"decimals must be >= 0, got {decimals}")
    d = Decimal(repr(float(x)))
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
