"""Small numeric helpers shared across modules."""

import numpy as np


def abs_power(x, s):
    """|x| ** s, elementwise, for s in (0, 1]; zeros map to zero."""
    return np.abs(x) ** s
