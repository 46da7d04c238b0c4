"""Exception types raised across the package, and the checks that raise
them for typed arguments, integer arguments, intervals, arrays of reals
and the distance exponent."""

import math
import numbers
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


def checked_instance(value, cls, error):
    """value, when it is an instance of cls; otherwise raise error naming both."""
    if not isinstance(value, cls):
        raise error(f"expected a {cls.__name__}, got {value!r}")
    return value


def checked_int(value, error, message, lo=-math.inf, hi=math.inf):
    """value as an int, when it is an integer or a real number with an
    integral value (so 3.0 passes as 3) in [lo, hi]; otherwise raise
    error(message)."""
    if isinstance(value, numbers.Integral) or (
            isinstance(value, numbers.Real) and float(value).is_integer()):
        if lo <= value <= hi:
            return int(value)
    raise error(message)


def checked_interval(pair, error, message):
    """pair as (lo, hi), when it is a pair of finite real numbers with
    lo < hi; otherwise raise error(message)."""
    try:
        lo, hi = pair
    except (TypeError, ValueError):
        raise error(message) from None
    if not (isinstance(lo, numbers.Real) and isinstance(hi, numbers.Real)
            and -math.inf < lo < hi < math.inf):
        raise error(message)
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
    if not (isinstance(s, numbers.Real) and 0.0 < s <= 1.0):
        raise InvalidExponent(f"s must lie in (0, 1], got {s}")
