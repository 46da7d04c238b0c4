"""Exception types raised across the package, and the checks that raise
them for integer arguments."""

import math
import numbers


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


def add_context(err: BaseException, context: str) -> None:
    """Prefix `context` to the message of `err` in place, for a handler
    that then re-raises it with a bare `raise`.

    The exception keeps its type and identity, so callers' `except`
    clauses and the CLI's one-line report see the original error. A
    WaveotError carries its message as its one argument, which gets the
    prefix; any other exception keeps its arguments, which its type may
    read, and gets the context as a note where Python has notes (3.11+).
    """
    if isinstance(err, WaveotError) and len(err.args) == 1:
        err.args = (f"{context}: {err.args[0]}",)
    elif hasattr(err, "add_note"):
        err.add_note(context)


def checked_int(value, error, message, lo=-math.inf, hi=math.inf):
    """value as an int, when it is an integer or a real number with an
    integral value (so 3.0 passes as 3) in [lo, hi]; otherwise raise
    error(message)."""
    if isinstance(value, numbers.Integral) or (
            isinstance(value, numbers.Real) and float(value).is_integer()):
        if lo <= value <= hi:
            return int(value)
    raise error(message)
