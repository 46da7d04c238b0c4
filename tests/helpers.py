"""Shared fixtures-in-spirit for the test suite: random measure factories,
the brute-force LP oracle, and densities built from wavelet function parts.
"""

import numpy as np
from scipy.optimize import linprog

from waveot.cascade import cascade_evaluate
from waveot.densities import Density, DiscreteMeasure, _mass
from waveot.filters import build_wavelet_system


class CodedError(Exception):
    """An exception whose constructor takes more than a message."""

    def __init__(self, code, detail):
        super().__init__(code, detail)


def trapezoid(values, dx):
    """Trapezoid rule on a uniform grid, summed as np.trapezoid sums it
    (which needs numpy >= 2.0)."""
    values = np.asarray(values, dtype=float)
    return float(np.sum(dx * (values[1:] + values[:-1]) / 2.0))


def window_grid(offset, values, spacing):
    """The points of a sampled window: values[i] sits at (offset + i) * spacing."""
    return (offset + np.arange(len(values))) * spacing


def random_measure(rng, max_atoms, lo=0.0, hi=3.0, min_atoms=2):
    """Random discrete measure with distinct sorted positions."""
    k = int(rng.integers(min_atoms, max_atoms + 1))
    pos = np.sort(rng.uniform(lo, hi, k))
    while np.any(np.diff(pos) <= 0):
        pos = np.sort(rng.uniform(lo, hi, k))
    w = rng.uniform(0.05, 1.0, k)
    w /= w.sum()
    return DiscreteMeasure(pos, w)


def brute_force_lp(mu, nu, s):
    """Exact transport cost via a dense LP (scipy HiGHS); independent of
    the transportation simplex it checks."""
    m, n = len(mu), len(nu)
    cost = (np.abs(mu.positions[:, None] - nu.positions[None, :]) ** s).ravel()
    rows = []
    for i in range(m):
        block = np.zeros((m, n))
        block[i, :] = 1.0
        rows.append(block.ravel())
    for j in range(n):
        block = np.zeros((m, n))
        block[:, j] = 1.0
        rows.append(block.ravel())
    res = linprog(cost, A_eq=np.array(rows),
                  b_eq=np.concatenate([mu.weights, nu.weights]),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def density_from_grid(values, origin, spacing):
    """Unit-mass density interpolating nonnegative grid values linearly.

    Returns (density, mass) where mass is the integral of the raw values,
    computed by the same midpoint rule the Density constructor uses.
    """
    values = np.asarray(values, dtype=float)
    grid = origin + spacing * np.arange(len(values))
    lo, hi = float(grid[0]), float(grid[-1])

    def raw(x):
        return np.interp(np.asarray(x, dtype=float), grid, values,
                         left=0.0, right=0.0)

    mass = _mass(raw, lo, hi)
    return Density(lambda x: raw(x) / mass, (lo, hi)), mass


def wavelet_part_densities(name, j_level, k_shift, depth=12):
    """Densities proportional to the positive/negative parts of the
    L2-normalized wavelet at (j_level, k_shift).

    Returns (mu, nu, C) with C the common mass of both parts.
    """
    system = build_wavelet_system(name)
    psi = cascade_evaluate(system, "wavelet", depth)
    vals = 2.0 ** (j_level / 2.0) * psi
    origin = k_shift * 2.0 ** (-j_level)
    spacing = 2.0 ** (-depth - j_level)
    mu, c_pos = density_from_grid(np.maximum(vals, 0.0), origin, spacing)
    nu, c_neg = density_from_grid(np.maximum(-vals, 0.0), origin, spacing)
    assert abs(c_pos - c_neg) < 1e-7 * max(c_pos, 1.0)
    return mu, nu, c_pos


def multiscale_part_densities(name, a_coeffs, j_start, s, depth=12):
    """Densities from the positive/negative parts of
    sum_j a(j) 2^(j(s+1)) psi(2^j x) over consecutive levels j_start....

    Returns (mu, nu, C).
    """
    system = build_wavelet_system(name)
    psi = cascade_evaluate(system, "wavelet", depth)
    width = system.support_length * 2.0 ** (-j_start)
    j_top = j_start + len(a_coeffs) - 1
    dx = 2.0 ** (-(depth - 2) - j_top)
    xs = np.arange(0.0, width + dx, dx)
    g = np.zeros_like(xs)
    for idx, aj in enumerate(a_coeffs):
        j = j_start + idx
        g += aj * 2.0 ** (j * (s + 1.0)) * np.interp(
            2.0 ** j * xs, window_grid(0, psi, 2.0 ** -depth), psi, left=0.0, right=0.0)
    mu, c_pos = density_from_grid(np.maximum(g, 0.0), 0.0, dx)
    nu, c_neg = density_from_grid(np.maximum(-g, 0.0), 0.0, dx)
    assert abs(c_pos - c_neg) < 1e-6 * max(c_pos, 1.0)
    return mu, nu, c_pos
