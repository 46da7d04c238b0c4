"""Probability densities on the line and their discretizations.

Densities are immutable value objects wrapping a vectorized evaluator and
a compact support interval, so the same object can feed both the dyadic
DWT grid and the uniform grid of the exact discrete solver without
interpolation.  Unit mass is validated at construction by the midpoint
rule on 2^18 equal cells of the support, refined around jumps.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainOverflow, InvalidGrid, InvalidInterval, UnbalancedMarginals,
                     checked_int)

__all__ = [
    "Density", "SampledDensity", "DiscreteMeasure",
    "uniform_density", "bump_density", "translate", "dilate",
    "sample_for_dwt", "discretize",
]

_MASS_TOL = 1e-8
_BLOCK_POINTS = 1 << 14    # most points per evaluator call: 128 KB a float array, so L2-sized
_MASS_CELLS = 1 << 18      # equal cells of the first pass over the support
_MASS_SPLIT = 16           # subcells of a refined cell
_MASS_REFINE = 1 << 12     # most cells refined after one pass
_MASS_PASSES = 16          # most passes, the first included
_MASS_CELL_ERR = 1e-12     # error estimate above which a cell is refined
_CELL_POINTS = 64          # midpoint-rule points per cell in sample_for_dwt
_MAX_SAMPLE_POINTS = 1 << 25   # most points sample_for_dwt or discretize evaluates


def _mass(f, lo, hi):
    """Integral of the vectorized f over [lo, hi]: the midpoint rule on
    _MASS_CELLS equal cells, refined where it is not yet accurate.

    A cell's error estimate, its width times the second difference of the
    midpoint values around it, is O(h^3) where f is smooth, O(h^2) at a
    kink and O(h) at a jump.  The worst _MASS_REFINE cells whose estimate
    exceeds _MASS_CELL_ERR are split into _MASS_SPLIT subcells for the next
    pass while a subcell stays a few float spacings wide.  Groups of cells
    are sampled one cell beyond either end, so a jump is seen whichever
    cell holds it.  _BLOCK_POINTS cells per call keep the arrays in cache,
    which makes the first pass two to four times faster than one call.
    Positions are kept relative to lo and rounded once, when f gets them.
    """
    n, width, total = _BLOCK_POINTS, (hi - lo) / _MASS_CELLS, 0.0
    starts = n * width * np.arange(_MASS_CELLS // n)
    for npass in range(1, _MASS_PASSES + 1):
        offsets, flagged = np.arange(-1, n + 1) + 0.5, []
        for block in np.array_split(starts, -(-len(starts) * n // _BLOCK_POINTS)):
            rel = block[:, None] + offsets * width
            vals = f(lo + rel.ravel()).reshape(rel.shape)
            err = np.abs(np.diff(vals, 2))
            cells = np.flatnonzero(err > _MASS_CELL_ERR / width)
            mids = vals[:, 1:-1]
            flagged.append((err.flat[cells], rel[:, 1:-1].flat[cells], mids.flat[cells]))
            mids.flat[cells] = 0.0
            total += width * float(np.sum(mids))
        err, centres, values = (np.concatenate(parts) for parts in zip(*flagged))
        split = np.zeros(len(err), dtype=bool)
        split[np.argsort(err)[::-1][:_MASS_REFINE]] = npass < _MASS_PASSES
        split &= width > 4 * _MASS_SPLIT * np.spacing(np.abs(lo + centres))
        total += width * float(np.sum(values[~split]))
        if not split.any():
            break
        starts, width, n = centres[split] - 0.5 * width, width / _MASS_SPLIT, _MASS_SPLIT
    return total


@dataclass(frozen=True)
class Density:
    """A probability density with compact support [lo, hi].

    The evaluator is kept as given and takes a 1-D array of points inside
    the support; calling the density masks once and is zero outside.
    Construction fails if the support is not finite or if the mass, by
    the refined midpoint rule of _mass, deviates from 1 by more than 1e-8.
    An integrable singularity at a support end far from 0 can fail it:
    0.5 / sqrt(x - 1000) on (1000, 1001) measures 5.8e-7 short, as _mass
    splits no cell below a few float spacings (1.1e-13 there).
    """

    evaluator: callable
    support: tuple

    def __post_init__(self):
        lo, hi = self.support
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise InvalidInterval(
                f"support must be finite with lo < hi, got {self.support}")
        mass = _mass(self, lo, hi)
        if not abs(mass - 1.0) <= _MASS_TOL:
            raise InvalidInterval(
                f"density mass is {mass:.12g}, expected 1 within {_MASS_TOL}")

    def __call__(self, x):
        """The density at x, a scalar or an array: the evaluator on the
        points of the half-open support [lo, hi), zero elsewhere, so dyadic
        grid points landing exactly on hi sample as zero."""
        lo, hi = self.support
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        inside = (arr >= lo) & (arr < hi)
        out = np.zeros_like(arr)
        if np.any(inside):
            out[inside] = self.evaluator(arr[inside])
        return out[0] if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class SampledDensity:
    """Values on a window of a uniform grid: values[i] belongs to grid
    index offset + i, i.e. to x = (offset + i) * spacing.

    Grid cells outside the window hold exact zeros.
    """

    offset: int
    spacing: float
    values: np.ndarray

    def grid(self):
        return (self.offset + np.arange(len(self.values))) * self.spacing

    def trimmed(self):
        """The window without leading and trailing zeros, or None when
        every value is zero."""
        nz = np.flatnonzero(self.values)
        if len(nz) == 0:
            return None
        return SampledDensity(offset=self.offset + int(nz[0]), spacing=self.spacing,
                              values=self.values[nz[0]: nz[-1] + 1])


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted point masses on strictly increasing positions."""

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)
        if pos.ndim != 1 or pos.shape != w.shape or pos.size == 0:
            raise InvalidGrid("positions and weights must be matching 1-D arrays")
        if not (np.all(np.isfinite(pos)) and np.all(np.diff(pos) > 0)):
            raise InvalidGrid("positions must be finite and strictly increasing")
        if not np.all((w >= 0) & np.isfinite(w)):
            raise UnbalancedMarginals("weights must be finite and nonnegative")
        if not abs(w.sum() - 1.0) <= 1e-12:
            raise UnbalancedMarginals(f"weights sum to {w.sum():.15g}, expected 1")

    def __len__(self):
        return len(self.positions)


def uniform_density(lo: float, hi: float) -> Density:
    """Uniform density on [lo, hi]."""
    if not lo < hi:
        raise InvalidInterval(f"need lo < hi, got ({lo}, {hi})")
    height = 1.0 / (hi - lo)

    def evaluate(x):
        return np.full_like(np.asarray(x, dtype=float), height)

    return Density(evaluate, (lo, hi))


def _bump_profile(t):
    """exp(-1/(1 - t^2)) on (-1, 1), zero elsewhere, for an array t.  In
    binary64, u = 1 - t^2 > 0 holds exactly when |t| < 1."""
    u = 1.0 - t * t
    inside = u > 0
    out = np.zeros_like(u)
    np.divide(-1.0, u, out=out, where=inside)
    return np.exp(out, out=out, where=inside)


_BUMP_BASE_MASS = _mass(_bump_profile, -1.0, 1.0)


def bump_density(center: float, half_width: float) -> Density:
    """Smooth bump with unit mass supported on [center - hw, center + hw].

    Profile exp(-1/(1 - t^2)) in the rescaled coordinate t, vanishing to
    all orders at the support boundary; the normalizing constant is the
    profile's mass by the same midpoint rule the Density constructor uses,
    never a hard-coded literal.
    """
    if half_width <= 0:
        raise InvalidInterval(f"half_width must be positive, got {half_width}")
    scale = 1.0 / (half_width * _BUMP_BASE_MASS)

    def evaluate(x):
        return scale * _bump_profile((np.asarray(x, dtype=float) - center) / half_width)

    return Density(evaluate, (center - half_width, center + half_width))


def translate(d: Density, a: float) -> Density:
    """Shift a density by a.  The new evaluator composes d's, so a chain
    of transforms is masked once, by its own support, when it is called."""
    lo, hi = d.support
    inner = d.evaluator

    def evaluate(x):
        return inner(x - a)

    return Density(evaluate, (lo + a, hi + a))


def dilate(d: Density, b: float, about: float) -> Density:
    """Dilate a density by factor b > 0 about a point, preserving mass."""
    if b <= 0:
        raise InvalidInterval(f"dilation factor must be positive, got {b}")
    lo, hi = d.support
    inner = d.evaluator

    def evaluate(x):
        return inner(about + (x - about) / b) / b

    new_lo = about + b * (lo - about)
    new_hi = about + b * (hi - about)
    return Density(evaluate, (new_lo, new_hi))


def sample_for_dwt(d: Density, j0: int, M: int) -> SampledDensity:
    """DWT initialization on the grid of spacing 2^-(j0+M) over [0, 2^-j0].

    Cell k gets 2^(-(j0+M)/2) times the average of d over [k, k+1) *
    spacing (midpoint rule, _CELL_POINTS = 64 points per cell).  Cell
    averaging preserves the total mass of the samples, which matters for
    differences of densities: their true approximation coefficients sum to
    exactly zero (partition of unity), and point sampling of discontinuous
    densities breaks that identity by O(spacing), an error the
    coarse-level weights then amplify.

    The density must already live inside the dyadic domain (translating
    it there is the caller's job).  Only the cells meeting the support are
    evaluated and returned, so memory and work follow the support, not the
    2^M cells of the domain; every other cell is an exact zero.  Each
    evaluator call gets _BLOCK_POINTS points (256 cells), so the memory
    beyond the result is a few cache-sized blocks for any window.  A window
    of more than _MAX_SAMPLE_POINTS points is refused before evaluating,
    and one whose every cell averages to zero after it, as discretize
    refuses a grid that misses the density.
    """
    M = checked_int(M, InvalidGrid, f"M must be a positive integer, got {M}", lo=1)
    # a fractional j0 would put the window on a grid that is not dyadic
    j0 = checked_int(j0, InvalidGrid, f"j0 must be an integer, got {j0}")
    lo, hi = d.support
    domain_hi = 2.0 ** (-j0)
    if lo < -1e-12 or hi > domain_hi * (1.0 + 1e-12):
        raise DomainOverflow(
            f"support [{lo}, {hi}] exceeds the sampling domain [0, {domain_hi}]")
    spacing = 2.0 ** (-(j0 + M))
    # the window has at most (hi - lo) / spacing + 2 cells; multiplied out,
    # so a spacing that underflows to zero is refused too
    if _CELL_POINTS * (hi - lo) > (_MAX_SAMPLE_POINTS - 2 * _CELL_POINTS) * spacing:
        raise InvalidGrid(
            f"sampling the support [{lo}, {hi}] at M = {M} needs more than the "
            f"budget of {_MAX_SAMPLE_POINTS} points; use a smaller M")
    n = 2 ** M
    # densities vanish on [hi, inf), so the window ends before that cell
    k_lo = min(n - 1, max(0, int(math.floor(lo / spacing))))
    k_hi = min(n - 1, max(k_lo, int(math.ceil(hi / spacing)) - 1))
    offs = (np.arange(_CELL_POINTS) + 0.5) / _CELL_POINTS
    values = np.empty(k_hi + 1 - k_lo)
    block = _BLOCK_POINTS // _CELL_POINTS
    for start in range(0, len(values), block):
        ks = k_lo + np.arange(start, min(start + block, len(values)))
        pts = (ks[:, None] + offs) * spacing
        values[start: start + len(pts)] = d(pts.ravel()).reshape(pts.shape).mean(axis=1)
    if not np.any(values):
        raise InvalidGrid(
            f"density on [{lo}, {hi}] carries no mass on the sampling grid of "
            f"spacing {spacing}; use a larger M")
    values *= 2.0 ** (-(j0 + M) / 2.0)
    return SampledDensity(offset=k_lo, spacing=spacing, values=values)


def discretize(d: Density, num_points: int, domain: tuple = None) -> DiscreteMeasure:
    """Point masses on a uniform grid with weights proportional to the
    density values, renormalized to unit mass.

    domain defaults to the density support; pass a shared interval to put
    several measures on one grid for the exact solver.
    """
    num_points = checked_int(
        num_points, InvalidGrid,
        f"need 2 to {_MAX_SAMPLE_POINTS} grid points, got {num_points}", 2, _MAX_SAMPLE_POINTS)
    lo, hi = d.support if domain is None else domain
    if not lo < hi:
        raise InvalidInterval(f"invalid grid domain ({lo}, {hi})")
    grid = np.linspace(lo, hi, num_points)
    w = d(grid)
    total = w.sum()
    if total <= 0:
        raise InvalidGrid("density carries no mass on the requested grid")
    return DiscreteMeasure(positions=grid, weights=w / total)
