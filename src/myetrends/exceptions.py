"""Exception hierarchy for the package.

Everything raised deliberately by this package derives from
:class:`MyeTrendsError`, so callers (and the command-line tool) can catch one
type. Programming errors (wrong argument types and the like) still surface as
the usual built-ins.

Every integer argument (a period, a degree, an end year, a count) is checked
by :func:`check_int`, so each boundary rejects a ``bool``, a float or a
string with the same message, which starts with the argument's name.
"""


class MyeTrendsError(Exception):
    """Base class for all errors raised by this package."""


class DesignInfeasibleError(MyeTrendsError):
    """The filter design constraint system has no solution.

    Design no longer raises it: the constraints have a solution for every
    period set and degree. The class stays for code that catches it.
    """


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
    raise error(f"{what} must be an integer{bound}, got {value!r}")
