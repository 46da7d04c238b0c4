"""Dyadic evaluation of scaling/wavelet functions and derived constants.

The scaling function is obtained exactly on dyadic grids: its values at
the integers solve the eigenproblem of the two-scale transfer matrix
M[i, j] = sqrt(2) g_{2i-j}, and each refinement halving fills in the new
midpoints through the two-scale relation

    phi(x) = sqrt(2) * sum_k g_k phi(2x - k).

The wavelet follows from psi(x) = sqrt(2) * sum_k h_k phi(2x - k).  Both
functions are supported on [0, L-1] for a length-L filter.

Integrals against these grids use the trapezoid rule.  For every filter of
length >= 4 the partition of unity makes the trapezoidal mass of phi exact;
the Haar scaling function carries a jump at the right support endpoint, so
its trapezoidal integrals are off by half a grid step (2^-(depth+1)).
"""

import math
from dataclasses import dataclass

import numpy as np

from ._num import abs_power
from .densities import _BLOCK_POINTS, _MAX_SAMPLE_POINTS, SampledDensity
from .errors import InvalidExponent, InvalidFunction, InvalidLevels
from .filters import WaveletSystem

__all__ = ["cascade_evaluate", "estimate_constants", "HolderConstants"]

DEFAULT_CASCADE_DEPTH = 12
_R_CANDIDATES = 4096
# entries per block of the candidate scan: 15 rows of the 4,097-point
# coarse grid, under 512 KB of float64, so a block, which abs_power
# overwrites in place, fits in a core's L2 cache
_SCAN_BLOCK = 1 << 16


def _integer_values(system: WaveletSystem):
    """phi at the integers 0 .. L-1, normalized so they sum to 1."""
    g = system.g
    L = len(g)
    n = L - 1  # unknowns phi(0) .. phi(L-2); phi(L-1) = 0
    M = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            k = 2 * i - j
            if 0 <= k < L:
                M[i, j] = math.sqrt(2.0) * g[k]
    eigvals, eigvecs = np.linalg.eig(M)
    idx = np.argmin(np.abs(eigvals - 1.0))
    v = np.real(eigvecs[:, idx])
    v = v / v.sum()
    return np.concatenate([v, [0.0]])


def _two_scale(phi, filt, shift, first, out):
    """out[i] = sqrt(2) sum_k filt[k] phi[first + 2i - k shift] for every
    i, with phi zero off its grid: the two-scale relation on every other
    point of a grid whose spacing is 1/shift, read through strided slices.
    out arrives zeroed and is filled _BLOCK_POINTS entries at a time, so
    the only temporary is one block of one term; out is returned."""
    for b0 in range(0, len(out), _BLOCK_POINTS):
        block = out[b0: b0 + _BLOCK_POINTS]
        for k, c in enumerate(filt):
            start = first + 2 * b0 - k * shift  # index into phi of block[0]
            lo = max(0, -(start // 2))
            hi = min(len(block), (len(phi) - 1 - start) // 2 + 1)
            if lo < hi:
                block[lo:hi] += c * phi[start + 2 * lo: start + 2 * hi - 1: 2]
        block *= math.sqrt(2.0)
    return out


def cascade_evaluate(system: WaveletSystem, which: str,
                     refinement_depth: int = DEFAULT_CASCADE_DEPTH) -> SampledDensity:
    """Values of the scaling ('scaling') or wavelet ('wavelet') function on
    the dyadic grid of spacing 2^-refinement_depth over [0, L-1].  A grid
    of more than densities._MAX_SAMPLE_POINTS points is refused before
    anything is allocated."""
    if which not in ("scaling", "wavelet"):
        raise InvalidFunction(
            f"which must be 'scaling' or 'wavelet', got {which!r}")
    if refinement_depth < 1 or int(refinement_depth) != refinement_depth:
        raise InvalidLevels(f"refinement_depth must be a positive integer, "
                            f"got {refinement_depth}")
    g = system.g
    L = len(g)
    width = L - 1
    # the final grid holds width * 2^depth + 1 points; the first test
    # keeps the power from being formed for absurd depths.  Each step fills
    # its new points in place, so by tracemalloc the refinement peaks at
    # 12.4 bytes a final point (the old grid and the new) and the wavelet
    # at 16.4 (phi and psi), db20 at depth 13: the budget admits about 550 MB
    if (refinement_depth > _MAX_SAMPLE_POINTS.bit_length()
            or width * 2 ** refinement_depth + 1 > _MAX_SAMPLE_POINTS):
        raise InvalidLevels(
            f"refinement_depth {refinement_depth} needs more than the "
            f"sampling budget of {_MAX_SAMPLE_POINTS} points for a "
            f"length-{L} filter")
    phi = _integer_values(system)
    for d in range(refinement_depth):
        # the old grid holds the even points of the new one; the point
        # m/2^(d+1) at odd m reads phi at indices m - k*2^d of the old grid
        new = np.zeros(width * 2 ** (d + 1) + 1)
        new[::2] = phi
        _two_scale(phi, g, 2 ** d, 1, new[1::2])
        phi = new
    if which == "wavelet":
        phi = _two_scale(phi, system.h, 2 ** refinement_depth, 0, np.zeros(len(phi)))

    return SampledDensity(offset=0, spacing=2.0 ** (-refinement_depth), values=phi)


@dataclass(frozen=True)
class HolderConstants:
    """Constants entering the two-sided comparison bounds: a11 and a12 are
    reciprocals of centered s-moment infima of |phi| and |psi|, a13 is the
    reciprocal L1 norm of phi."""

    a11: float
    a12: float
    a13: float


def _golden_min(f, a, b, tol=1e-8):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _centered_moment_inf(spacing, weighted, s):
    """inf over r of sum |x - r|^s * weighted(x) over the grid x = i *
    spacing, with weighted already carrying the quadrature weights;
    located by a candidate scan plus golden-section refinement.

    The scan evaluates candidates against the coarse grid in blocks of at
    most _SCAN_BLOCK entries (a single candidate row when one row is
    longer), so its working set is one block, not the full
    candidate-by-grid matrix.  Each objective call forms the grid points,
    their |x - r|^s and its weighting in place, one _BLOCK_POINTS block at
    a time, and adds the block sums with math.fsum, so no array of the
    grid's size is made and the value hardly depends on the block size."""
    n = len(weighted)

    def block_sum(b0, r):
        w = weighted[b0: b0 + _BLOCK_POINTS]
        y = np.arange(b0, b0 + len(w)) * spacing
        y -= r
        abs_power(y, s)
        y *= w
        return float(np.sum(y))

    def objective(r):
        return math.fsum(block_sum(b0, r) for b0 in range(0, n, _BLOCK_POINTS))

    candidates = np.linspace(0.0, (n - 1) * spacing, _R_CANDIDATES)
    step = candidates[1] - candidates[0]
    # locate the basin with a decimated quadrature grid (the objective is
    # an integral, so fine-scale structure washes out), then refine the
    # winner against the full-resolution objective
    stride = max(1, n // 4096)
    coarse_grid = np.arange(0, n, stride) * spacing
    coarse_w = weighted[::stride] * stride
    best_val = np.inf
    best_r = candidates[0]
    rows = max(1, _SCAN_BLOCK // len(coarse_grid))
    for start in range(0, len(candidates), rows):
        rs = candidates[start: start + rows]
        vals = abs_power(coarse_grid[None, :] - rs[:, None], s) @ coarse_w
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_r = float(rs[i])
    r = _golden_min(objective, best_r - 2 * step, best_r + 2 * step)
    return min(objective(r), objective(best_r))


def _weighted_abs(values, spacing):
    """|values| times the trapezoid weights of the given spacing, in place
    over values.  The spacing and the end weight 1/2 are powers of two, so
    every product is exact."""
    np.abs(values, out=values)
    values *= spacing
    values[[0, -1]] *= 0.5
    return values


def estimate_constants(system: WaveletSystem, s: float) -> HolderConstants:
    """Numerically estimate a11, a12 (centered-moment infima) and a13
    (reciprocal L1 norm) for the given wavelet system and 0 < s <= 1, on
    the dyadic grid of depth DEFAULT_CASCADE_DEPTH.  The weighted |phi| and
    |psi| overwrite the function values and the searches work in blocks,
    so the peak is phi and psi, two grid-sized arrays: 3.0 MiB by
    tracemalloc for db20."""
    if not 0.0 < s <= 1.0:
        raise InvalidExponent(f"s must lie in (0, 1], got {s}")
    phi = cascade_evaluate(system, "scaling", DEFAULT_CASCADE_DEPTH)
    psi = _two_scale(phi.values, system.h, 2 ** DEFAULT_CASCADE_DEPTH, 0,
                     np.zeros(len(phi.values)))
    spacing = phi.spacing
    weighted = _weighted_abs(phi.values, spacing)
    l1_phi = float(np.sum(weighted))
    inf_phi = _centered_moment_inf(spacing, weighted, s)
    del phi, weighted  # release phi's values before the psi search
    inf_psi = _centered_moment_inf(spacing, _weighted_abs(psi, spacing), s)
    return HolderConstants(a11=1.0 / inf_phi, a12=1.0 / inf_psi, a13=1.0 / l1_phi)
