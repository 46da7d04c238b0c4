"""Exception types raised across the package, and the checks that raise
them for typed arguments, integer and real arguments, intervals, arrays
of reals and the distance exponent.  A check's message is a str.format
template, filled only when the check refuses: {} by the value, shown()."""

import math
import numbers
import sys
from contextlib import contextmanager

import numpy as np


class WaveotError(Exception):
    """Base class for all package-specific errors."""


class UnknownWavelet(WaveotError, KeyError):
    """Requested wavelet name is not in the catalog."""

    # KeyError's str() quotes its argument; report the name as plain text
    __str__ = Exception.__str__


class InvalidLevels(WaveotError, ValueError):
    """Number of decomposition levels is not a positive integer."""


class EmptyInput(WaveotError, ValueError):
    """Transform input array is empty."""


class ShapeMismatch(WaveotError, ValueError):
    """Coefficient pyramid arrays are inconsistent with the stated mode."""


class InvalidExponent(WaveotError, ValueError):
    """Distance exponent s lies outside (0, 1]."""


class InvalidInterval(WaveotError, ValueError):
    """Interval endpoints or dilation factor are invalid."""


class DomainOverflow(WaveotError, ValueError):
    """Density support exceeds the dyadic sampling domain [0, 2^-j0]."""


class InvalidGrid(WaveotError, ValueError):
    """A grid is malformed, too small, or past its memory budget."""


class UnbalancedMarginals(WaveotError, ValueError):
    """Input measures do not both have unit total mass."""


class InvalidConfig(WaveotError, ValueError):
    """A distance, transform, filter or sweep configuration violates an
    invariant."""


class ConfigMismatch(WaveotError, ValueError):
    """Embedded vectors come from incompatible configurations."""


class DegenerateFit(WaveotError, ValueError):
    """Normalization fit has no usable rows (all wavelet values zero)."""


class MalformedWlot(WaveotError, ValueError):
    """A .wlot text breaks the format; the message names the line."""


class SolverDidNotConverge(WaveotError, RuntimeError):
    """The transportation simplex used up its pivot budget."""


class InvalidFunction(WaveotError, ValueError):
    """Cascade asked for neither the 'scaling' nor the 'wavelet' function."""


@contextmanager
def add_context(context: str):
    """Prefix `context` to the message of an exception raised in the
    `with` block, in place, and let it propagate.

    The exception keeps its type and identity, so callers' `except`
    clauses and the CLI's one-line report see the original error. A
    WaveotError carries its message as its one argument, which gets the
    prefix; any other exception keeps its arguments, which its type may
    read, and gets the context as a note where Python has notes (3.11+).
    """
    try:
        yield
    except Exception as err:
        if isinstance(err, WaveotError) and len(err.args) == 1:
            err.args = (f"{context}: {err.args[0]}",)
        elif hasattr(err, "add_note"):
            err.add_note(context)
        raise


class _Shown(str):
    """A message's stand-in for a value, the same text under {} and {!r}."""

    __repr__ = str.__str__


def shown(value):
    """value as a message names it: itself, but an integer past the double
    range, which str() may refuse (past 4,300 digits), by its digit count,
    also inside a tuple or list."""
    if type(value) in (tuple, list):
        return type(value)(map(shown, value))
    if not (isinstance(value, numbers.Integral) and abs(value) >= 2 ** 1024):
        return value
    magnitude = abs(int(value))
    digits = int(magnitude.bit_length() * math.log10(2))  # the count or one less
    digits += 10 ** digits <= magnitude
    return _Shown(f"{'-' if value < 0 else ''}<{digits}-digit integer>")


def _refusal(error, message, value, **fields):
    """error(message), its {} filled by value and named fields by fields, each shown()."""
    return error(message.format(shown(value), **{k: shown(v) for k, v in fields.items()}))


def checked_instance(value, cls, error):
    """value, when it is an instance of cls; otherwise raise error naming both."""
    if not isinstance(value, cls):
        raise error(f"expected a {cls.__name__}, got {shown(value)!r}")
    return value


def checked_int(value, error, message, lo=-sys.float_info.max, hi=sys.float_info.max, **fields):
    """value as an int, when it is an integer or a real number with an
    integral value (so 3.0 passes as 3) in [lo, hi], by default the double
    range; otherwise raise error(message), with {lo}, {hi} and the named
    fields filled."""
    if isinstance(value, numbers.Integral) or (
            isinstance(value, numbers.Real) and float(value).is_integer()):
        if lo <= value <= hi:
            return int(value)
    raise _refusal(error, message, value, lo=lo, hi=hi, **fields)


# the least positive double, so checked_real(..., lo=LEAST_POSITIVE) refuses x <= 0
LEAST_POSITIVE = math.ulp(0.0)


def _double(value):
    """value as a float, when it is a real number that a double holds;
    otherwise NaN, which no bound admits."""
    if isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:
            pass
    return math.nan


def checked_real(value, error, message, lo=-math.inf, hi=math.inf, **fields):
    """value as a float, when it is a real number that a double holds (not
    NaN, nor an integer past the double range) in [lo, hi]; otherwise
    raise error(message), with the named fields filled."""
    if lo <= (x := _double(value)) <= hi:
        return x
    raise _refusal(error, message, value, **fields)


def checked_interval(pair, error, message):
    """pair as (lo, hi), ends as given, when it is a pair of real numbers
    lo < hi whose width, taken in Python floats (where an overflow reads
    inf without a numpy warning), is a finite double; otherwise raise
    error(message), {} filled by the pair."""
    try:
        lo, hi = pair
    except (TypeError, ValueError):
        lo = hi = None  # not a pair
    a, b = _double(lo), _double(hi)
    if not (a < b and b - a < math.inf):
        raise _refusal(error, message, pair)
    return lo, hi


def checked_reals(values, error, message):
    """values as a float array, when numpy reads them as an array of real
    numbers, not of str, complex or object values nor a ragged list;
    otherwise raise error(message)."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError):  # a ragged list
        raise error(message) from None
    if arr.dtype.kind not in "biuf":
        raise error(message)
    return arr.astype(float, copy=False)


def check_exponent(s):
    """Raise InvalidExponent unless s is a real number in (0, 1]."""
    checked_real(s, InvalidExponent, "s must lie in (0, 1], got {}", LEAST_POSITIVE, 1.0)
