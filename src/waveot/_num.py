"""Small numeric helpers shared across modules."""

import numpy as np


def abs_power(x, s):
    """|x| ** s, elementwise, for s in (0, 1]; zeros map to zero.  Works in
    place: the float array x is overwritten with the result and returned,
    so callers pass a fresh array.  `x **= s` takes numpy's sqrt and
    identity paths at s = 0.5 and 1, as `np.abs(x) ** s` does, so the
    values are the same bits."""
    np.abs(x, out=x)
    x **= s
    return x
