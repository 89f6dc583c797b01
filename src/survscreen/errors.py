import numbers


class SurvScreenError(Exception):
    """Base class for all survscreen errors."""


class InputError(SurvScreenError):
    """Malformed user input: bad CSV schema, invalid option values, etc.

    Maps to CLI exit code 2.
    """


class DegeneracyError(SurvScreenError):
    """Numerical degeneracy: a variance or survival-weight floor was hit.

    Raised instead of silently truncating, because truncation would bias the
    estimates.  Maps to CLI exit code 3.
    """


# The argument rules of the public entry points, each written once.  numpy
# scalars pass: numpy registers its integer and float types with ``numbers``.


def _integer(name, value, low=None, high=None) -> int:
    """``value`` as an int: a count, an index or a seed.  An integral float is
    accepted; a bool, a string or a non-integral number is not.  With ``low``
    it must be >= low, and with ``high`` as well it must be in [low, high]."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not integral:
        raise InputError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if high is not None and not low <= value <= high:
        raise InputError(f"{name} must be in [{low}, {high}], got {value}")
    if low is not None and value < low:
        raise InputError(f"{name} must be >= {low}, got {value}")
    return value


def _real(name, value, low, high) -> float:
    """``value`` as a float, if it is a real number (not a bool) strictly
    between ``low`` and ``high``; NaN never is."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not low < value < high:
        raise InputError(f"{name} must be a number in ({low}, {high}), got {value!r}")
    return float(value)


def _level(alpha) -> float:
    """The test level alpha, in (0, 1)."""
    return _real("alpha", alpha, 0, 1)


def _instance(name, value, cls) -> None:
    """``value`` must be a ``cls``: an entry point's dataset or scenario."""
    if not isinstance(value, cls):
        raise InputError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def _choice(name, value, options) -> None:
    """``value`` must be one of the strings ``options``."""
    if not (isinstance(value, str) and value in options):
        raise InputError(f"{name} must be one of {tuple(options)}, got {value!r}")
