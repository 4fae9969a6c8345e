"""Exception hierarchy for the package.

Everything raised deliberately by this package derives from
:class:`MyeTrendsError`, so callers (and the command-line tool) can catch one
type. Programming errors (wrong argument types and the like) still surface as
the usual built-ins.

Every integer argument (a period, a degree, an end year, a count) is checked
by :func:`check_int`, so each boundary rejects a ``bool``, a float or a
string with the same message, which starts with the argument's name.
A message shows a rejected value by :func:`_show`, so one too long for
``repr`` (an ``int`` past Python's digit limit) is still named.
Every exact value (a ``Fraction`` or an ``int``) becomes a float through
:func:`_to_float`, rounded once, so one beyond the float range raises
:class:`DomainError` naming it, never ``OverflowError``.
:data:`MODES` names the three comparison modes, here so that the command
line can offer them without loading the analysis code.

:class:`Record` is the frozen base of the package's record types (a
design request, a filter family, a comparison and its result, and the
like). It lives here because every command loads this module.
"""

MODES = ("inapt", "untimely", "proper")

# How a record's ``__init__`` stores a field, past the frozen ``__setattr__``.
_set = object.__setattr__


class Record:
    """Frozen record, compared and hashed by value.

    A record stores nothing but its fields: each subclass writes its own
    ``__init__``, which stores every field with ``_set``, in order, so a
    record's fields are ``vars(record)``. Assignment and deletion raise
    :class:`AttributeError`; ``==`` compares the fields with a record of the
    same class only; ``hash`` hashes the field tuple, so it raises
    :class:`TypeError` if a field is unhashable.
    """

    def _values(self) -> tuple:
        return tuple(vars(self).values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={value!r}" for name, value in vars(self).items()])
        return f"{self.__class__.__qualname__}({fields})"


class MyeTrendsError(Exception):
    """Base class for all errors raised by this package."""


class DataError(MyeTrendsError):
    """A series or its source rows violate the data contract."""


class CsvError(DataError):
    """A CSV source could not be parsed; messages carry 1-based line numbers."""


class MissingDataError(MyeTrendsError):
    """An operation needed observations that the series does not contain."""


class ImputationError(MyeTrendsError):
    """An imputation target is invalid or has insufficient anchors."""


class DomainError(MyeTrendsError):
    """A value is outside the mathematical domain of the requested operation."""


def check_int(value, what: str, minimum=None, error=ValueError):
    """``value``, if it is an ``int`` (not a ``bool``) of at least ``minimum``.

    Otherwise raises ``error`` with a message that starts with ``what``.
    """
    if (isinstance(value, int) and not isinstance(value, bool)
            and (minimum is None or value >= minimum)):
        return value
    bound = "" if minimum is None else f" >= {minimum}"
    raise error(f"{what} must be an integer{bound}, got {_show(value)}")


def _show(value) -> str:
    """``repr(value)``, or, for a number ``repr`` refuses (an ``int`` of more
    digits than Python converts to text, or a ``Fraction`` holding one), its
    type, sign and bit length: ``<negative int of 16610 bits>``, or
    ``<positive Fraction of 16610 bits over 2 bits>`` for a numerator over a
    denominator. A tuple or list that holds such a number, such as the key
    ``(3, 10**5000)``, is shown item by item: ``(3, <positive int of 16610
    bits>)``."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, (tuple, list)):
            items = ", ".join(map(_show, value))
            if isinstance(value, list):
                return f"[{items}]"
            return f"({items},)" if len(value) == 1 else f"({items})"
        num, den = value.as_integer_ratio()
        size = f"{abs(num).bit_length()} bits"
        if den != 1:
            size += f" over {den.bit_length()} bits"
        sign = "negative" if num < 0 else "positive"
        return f"<{sign} {type(value).__name__} of {size}>"


def _to_float(x, what: str) -> float:
    """The exact ``x`` rounded once to the nearest float, or a
    :class:`DomainError` naming ``what`` when ``x`` lies beyond the float
    range."""
    try:
        return float(x)
    except OverflowError:
        raise DomainError(f"{what} is beyond the float range") from None
