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

from .densities import _BLOCK_POINTS, _MAX_SAMPLE_POINTS, SampledDensity
from .errors import (InvalidConfig, InvalidFunction, InvalidLevels, check_exponent,
                     checked_instance, checked_int, shown)
from .exact import abs_power
from .filters import WaveletSystem

__all__ = ["cascade_evaluate", "estimate_constants", "HolderConstants"]

DEFAULT_CASCADE_DEPTH = 12
_R_CANDIDATES = 4096
# entries per block of the candidate scan: 15 rows of the 4,097-point
# coarse grid, under 512 KB of float64, so a block, which abs_power
# overwrites in place, fits in a core's L2 cache.  It is not
# densities._BLOCK_POINTS: 2^14-entry blocks give hex-identical constants,
# but the nine of db2, db10 and db20 at s = 1, 0.5 and 0.25 then take
# about a tenth longer (medians 1.16 s against 1.06 s, slower in 13 of 16
# interleaved pairs, on 2 CPUs)
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
    k = 2 * np.arange(n)[:, None] - np.arange(n)  # A[i, j] takes tap 2i - j
    A = np.where((0 <= k) & (k < L), math.sqrt(2.0) * g[k.clip(0, L - 1)], 0.0) - np.eye(n)
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
    points of out's grid.  out is filled _BLOCK_POINTS entries at a time,
    from the last block down, each summed in one reused buffer before it
    is written, so out may start where phi does: block [b0, b1) reads phi
    only below b1, which no block has written yet.  out is returned."""
    buf = np.empty(min(len(out), _BLOCK_POINTS))
    for b0 in reversed(range(0, len(out), _BLOCK_POINTS)):
        block = buf[: len(out[b0: b0 + _BLOCK_POINTS])]
        block.fill(0.0)
        for k, c in enumerate(filt):
            start = first + _stride * b0 - k * shift  # index into phi of block[0]
            lo = max(0, -(start // _stride))
            hi = min(len(block), (len(phi) - 1 - start) // _stride + 1)
            if lo < hi:
                block[lo:hi] += c * phi[start + _stride * lo:
                                        start + _stride * (hi - 1) + 1: _stride]
        block *= math.sqrt(2.0)
        out[b0: b0 + len(block)] = block
    return out


def _wavelet(grid, h, depth):
    """psi on the depth grid, in place over phi on it: psi at i/2^depth
    reads phi at 2i - k*2^depth, the even points, which is the depth - 1
    grid.  Those move to the front, one block at a time, and psi is built
    over them."""
    half = (len(grid) + 1) // 2
    for b0 in range(0, half, _BLOCK_POINTS):
        b1 = min(b0 + _BLOCK_POINTS, half)
        grid[b0: b1] = grid[2 * b0: 2 * b1: 2]
    return _two_scale(grid[:half], h, 2 ** (depth - 1), 0, grid, _stride=1)


def cascade_evaluate(system: WaveletSystem, which: str,
                     refinement_depth: int = DEFAULT_CASCADE_DEPTH) -> SampledDensity:
    """Values of the scaling ('scaling') or wavelet ('wavelet') function on
    the dyadic grid of spacing 2^-refinement_depth over [0, L-1].  A grid
    of more than densities._MAX_SAMPLE_POINTS points is refused before
    anything is allocated."""
    checked_instance(system, WaveletSystem, InvalidConfig)
    if which not in ("scaling", "wavelet"):
        raise InvalidFunction(
            f"which must be 'scaling' or 'wavelet', got {shown(which)!r}")
    refinement_depth = checked_int(
        refinement_depth, InvalidLevels,
        "refinement_depth must be a positive integer, got {}", lo=1)
    g = system.g
    L = len(g)
    width = L - 1
    # the final grid holds width * 2^depth + 1 points; the first test
    # keeps the power from being formed for absurd depths.  The depth-d
    # grid is every 2^(depth-d)-th point of it, so each step fills its
    # midpoints in place, and the wavelet is built over the scaling grid
    # one level coarser: by tracemalloc both functions hold the grid and
    # two blocks, 8.8 bytes a final point for db20 at depth 13 (8.1 at
    # depth 16), so the budget admits about 270 MB
    if (refinement_depth > _MAX_SAMPLE_POINTS.bit_length()
            or width * 2 ** refinement_depth + 1 > _MAX_SAMPLE_POINTS):
        raise InvalidLevels(
            f"refinement_depth {refinement_depth} needs more than the "
            f"sampling budget of {_MAX_SAMPLE_POINTS} points for a "
            f"length-{L} filter")
    grid = np.zeros(width * 2 ** refinement_depth + 1)
    grid[:: 2 ** refinement_depth] = _integer_values(system)
    wavelet = which == "wavelet"
    for d in range(refinement_depth - wavelet):
        step = 2 ** (refinement_depth - d)
        _two_scale(grid[::step], g, 2 ** d, 1, grid[step // 2:: step])
    if wavelet:
        _wavelet(grid, system.h, refinement_depth)
    return SampledDensity(offset=0, spacing=2.0 ** (-refinement_depth), values=grid)


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


def _weighted_sum(values, spacing, term):
    """The trapezoid rule for the integral of term(x) |f(x)| over the grid
    x = i * spacing of the values f, where term maps an array of grid
    points to their factors (>= 0) and may overwrite it.  The weights are
    applied one _BLOCK_POINTS block at a time, ends halved, and the block
    sums are added with math.fsum, so no array of the grid's size is made
    and the value hardly depends on the block size; the spacing, a power
    of two, scales the sum to the same bits as it would each term."""
    n = len(values)
    sums = []
    for b0 in range(0, n, _BLOCK_POINTS):
        y = term(np.arange(b0, min(b0 + _BLOCK_POINTS, n), dtype=float) * spacing)
        y *= values[b0: b0 + len(y)]
        np.abs(y, out=y)
        if b0 == 0:
            y[0] *= 0.5
        if b0 + len(y) == n:
            y[-1] *= 0.5
        sums.append(float(np.sum(y)))
    return spacing * math.fsum(sums)


def _centered_moment_inf(spacing, values, s):
    """inf over r of the trapezoid integral of |x - r|^s |f(x)| over the
    grid x = i * spacing of the values f; located by a candidate scan plus
    golden-section refinement.

    The scan evaluates candidates against the coarse grid in blocks of at
    most _SCAN_BLOCK entries (one candidate row when a row is longer) in
    one reused array, not the candidate-by-grid matrix, keeps each
    block's values and takes the first least of them all.  Each objective
    call goes through _weighted_sum, one _BLOCK_POINTS block at a time."""
    n = len(values)

    def objective(r):
        return _weighted_sum(values, spacing, lambda y: abs_power(np.subtract(y, r, out=y), s))

    candidates = np.linspace(0.0, (n - 1) * spacing, _R_CANDIDATES)
    step = candidates[1] - candidates[0]
    # locate the basin with a decimated quadrature grid (the objective is
    # an integral, so fine-scale structure washes out), then refine the
    # winner against the full-resolution objective
    stride = max(1, n // 4096)
    coarse_grid = np.arange(0, n, stride) * spacing
    coarse_w = np.abs(values[::stride]) * (stride * spacing)
    # both ends are on the decimated grid: at depth 12, n - 1 = (L - 1) 2^12
    # and the stride n // 4096 is L - 1
    coarse_w[[0, -1]] *= 0.5
    rows = max(1, _SCAN_BLOCK // len(coarse_grid))
    block = np.empty((min(rows, len(candidates)), len(coarse_grid)))
    vals = [abs_power(np.subtract(coarse_grid, rs[:, None], out=block[:len(rs)]), s) @ coarse_w
            for rs in np.split(candidates, range(rows, len(candidates), rows))]
    del block  # freed before the objective makes its blocks
    best_r = float(candidates[np.argmin(np.concatenate(vals))])
    r = _golden_min(objective, best_r - 2 * step, best_r + 2 * step)
    return min(objective(r), objective(best_r))


def estimate_constants(system: WaveletSystem, s: float) -> HolderConstants:
    """Numerically estimate a11, a12 (centered-moment infima) and a13
    (reciprocal L1 norm) for the given wavelet system and 0 < s <= 1, on
    the dyadic grid of depth DEFAULT_CASCADE_DEPTH.  The trapezoid weights
    are applied block by block as the sums are formed, and psi is built
    in place over phi once phi's constants are taken, so the peak is one
    grid, a scan block and its values: 1.9 MiB by tracemalloc for db20."""
    check_exponent(s)
    depth = DEFAULT_CASCADE_DEPTH
    grid = cascade_evaluate(system, "scaling", depth).values
    spacing = 2.0 ** -depth
    l1_phi = _weighted_sum(grid, spacing, np.ones_like)
    inf_phi = _centered_moment_inf(spacing, grid, s)
    inf_psi = _centered_moment_inf(spacing, _wavelet(grid, system.h, depth), s)
    return HolderConstants(a11=1.0 / inf_phi, a12=1.0 / inf_psi, a13=1.0 / l1_phi)
