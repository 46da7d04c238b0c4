"""Dyadic evaluation of scaling/wavelet functions and derived constants.

The scaling function is obtained exactly on dyadic grids: its values at
the integers are the eigenvector of eigenvalue 1 of the two-scale
transfer matrix M[i, j] = sqrt(2) g_{2i-j}, found by one linear solve,
and each refinement halving fills in the new midpoints through the
two-scale relation

    phi(x) = sqrt(2) * sum_k g_k phi(2x - k).

The wavelet follows from psi(x) = sqrt(2) * sum_k h_k phi(2x - k), which
reads phi only on the grid one level coarser than psi's.  Both
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
from .errors import (InvalidConfig, InvalidFunction, InvalidLevels, check_exponent,
                     checked_int)
from .filters import WaveletSystem

__all__ = ["cascade_evaluate", "estimate_constants", "HolderConstants"]

DEFAULT_CASCADE_DEPTH = 12
_R_CANDIDATES = 4096
# entries per block of the candidate scan: 15 rows of the 4,097-point
# coarse grid, under 512 KB of float64, so a block, which abs_power
# overwrites in place, fits in a core's L2 cache.  It is not
# densities._BLOCK_POINTS: 2^14-entry blocks give hex-identical constants,
# but the nine of db2, db10 and db20 at s = 1, 0.5 and 0.25 then take
# about a fifth longer (1.45-1.55 s against 1.19-1.26 s on 2 CPUs)
_SCAN_BLOCK = 1 << 16


def _integer_values(system: WaveletSystem):
    """phi at the integers 0 .. L-1, normalized so they sum to 1: the
    eigenvector of eigenvalue 1 of M.  Each column of M sums to 1 (the
    even and the odd taps of g each sum to 1/sqrt(2)), so the rows of
    M - I add up to zero and the last one gives way to the sum condition;
    the system is singular exactly when eigenvalue 1 is repeated, which
    leaves phi undetermined."""
    g = system.g
    L = len(g)
    n = L - 1  # unknowns phi(0) .. phi(L-2); phi(L-1) = 0
    A = -np.eye(n)
    for i in range(n):
        for j in range(n):
            k = 2 * i - j
            if 0 <= k < L:
                A[i, j] += math.sqrt(2.0) * g[k]
    A[-1] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        v = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        raise InvalidConfig(
            f"{system.name}: the filter does not determine the scaling "
            "function (its transfer matrix has eigenvalue 1 more than once)") from None
    return np.concatenate([v, [0.0]])


def _two_scale(phi, filt, shift, first, out, _stride=2):
    """out[i] = sqrt(2) sum_k filt[k] phi[first + _stride i - k shift] for
    every i, with phi zero off its grid: the two-scale relation read
    through strided slices.  With the default stride phi is on a grid of
    spacing 1/shift and out is every other point of it; with stride 1
    phi is the grid of half out's resolution, whose points are the even
    points of out's grid.  out arrives zeroed and is filled _BLOCK_POINTS
    entries at a time, so the only temporary is one block of one term;
    out is returned."""
    for b0 in range(0, len(out), _BLOCK_POINTS):
        block = out[b0: b0 + _BLOCK_POINTS]
        for k, c in enumerate(filt):
            start = first + _stride * b0 - k * shift  # index into phi of block[0]
            lo = max(0, -(start // _stride))
            hi = min(len(block), (len(phi) - 1 - start) // _stride + 1)
            if lo < hi:
                block[lo:hi] += c * phi[start + _stride * lo:
                                        start + _stride * (hi - 1) + 1: _stride]
        block *= math.sqrt(2.0)
    return out


def _refine(phi, g, d):
    """The depth-(d+1) scaling grid from the depth-d grid phi: the old grid
    holds the even points of the new one, and the point m/2^(d+1) at odd m
    reads phi at indices m - k*2^d of the old grid."""
    new = np.zeros(2 * len(phi) - 1)
    new[::2] = phi
    _two_scale(phi, g, 2 ** d, 1, new[1::2])
    return new


def _wavelet(half, h, depth):
    """psi on the depth grid from phi on the depth - 1 grid, half: psi at
    i/2^depth reads phi at 2i - k*2^depth of the depth grid, which is
    half[i - k*2^(depth-1)], so the finest phi grid is never built."""
    return _two_scale(half, h, 2 ** (depth - 1), 0, np.zeros(2 * len(half) - 1), _stride=1)


def cascade_evaluate(system: WaveletSystem, which: str,
                     refinement_depth: int = DEFAULT_CASCADE_DEPTH) -> SampledDensity:
    """Values of the scaling ('scaling') or wavelet ('wavelet') function on
    the dyadic grid of spacing 2^-refinement_depth over [0, L-1].  A grid
    of more than densities._MAX_SAMPLE_POINTS points is refused before
    anything is allocated."""
    if which not in ("scaling", "wavelet"):
        raise InvalidFunction(
            f"which must be 'scaling' or 'wavelet', got {which!r}")
    refinement_depth = checked_int(
        refinement_depth, InvalidLevels,
        f"refinement_depth must be a positive integer, got {refinement_depth}", lo=1)
    g = system.g
    L = len(g)
    width = L - 1
    # the final grid holds width * 2^depth + 1 points; the first test
    # keeps the power from being formed for absurd depths.  Each step fills
    # its new points in place, and the wavelet is read from the scaling
    # grid one level coarser, so by tracemalloc both functions peak at
    # 12.4 bytes a final point (a grid and the one of half its
    # resolution), db20 at depth 13: the budget admits about 420 MB
    if (refinement_depth > _MAX_SAMPLE_POINTS.bit_length()
            or width * 2 ** refinement_depth + 1 > _MAX_SAMPLE_POINTS):
        raise InvalidLevels(
            f"refinement_depth {refinement_depth} needs more than the "
            f"sampling budget of {_MAX_SAMPLE_POINTS} points for a "
            f"length-{L} filter")
    phi = _integer_values(system)
    wavelet = which == "wavelet"
    for d in range(refinement_depth - wavelet):
        phi = _refine(phi, g, d)
    if wavelet:
        phi = _wavelet(phi, system.h, refinement_depth)

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
    the dyadic grid of depth DEFAULT_CASCADE_DEPTH.  phi and psi both come
    from the scaling grid one level coarser, which is kept until psi is
    built; the weighted |phi| and |psi| overwrite the function values and
    the searches work in blocks, so the peak is one and a half grids plus
    a scan block: 2.4 MiB by tracemalloc for db20."""
    check_exponent(s)
    depth = DEFAULT_CASCADE_DEPTH
    half = cascade_evaluate(system, "scaling", depth - 1).values
    spacing = 2.0 ** -depth
    weighted = _weighted_abs(_refine(half, system.g, depth - 1), spacing)
    l1_phi = float(np.sum(weighted))
    inf_phi = _centered_moment_inf(spacing, weighted, s)
    del weighted  # release phi before psi is built
    psi = _wavelet(half, system.h, depth)
    del half
    inf_psi = _centered_moment_inf(spacing, _weighted_abs(psi, spacing), s)
    return HolderConstants(a11=1.0 / inf_phi, a12=1.0 / inf_psi, a13=1.0 / l1_phi)
