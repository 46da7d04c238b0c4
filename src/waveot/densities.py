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

from .errors import (LEAST_POSITIVE, DomainOverflow, InvalidGrid, InvalidInterval,
                     UnbalancedMarginals, checked_instance, checked_int, checked_interval,
                     checked_real, checked_reals, shown)

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
_MIN_J0 = -1023            # lowest j0 whose domain length 2^-j0 is a finite double


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
    which makes the first pass two to four times faster than one call;
    a block's arrays are dropped before the next is made.  For a Density
    f the mask runs only on blocks that reach outside the support: the
    first pass's two end blocks and refined blocks holding an end cell.
    Positions are kept relative to lo and rounded once, when f gets them.
    A negative value at any point evaluated raises InvalidInterval.
    """
    n, width, total = _BLOCK_POINTS, (hi - lo) / _MASS_CELLS, 0.0
    starts = n * width * np.arange(_MASS_CELLS // n)
    for npass in range(1, _MASS_PASSES + 1):
        step, flagged = (np.arange(-1, n + 1) + 0.5) * width, []
        for block in np.array_split(starts, -(-len(starts) * n // _BLOCK_POINTS)):
            pos = block[:, None] + step
            pos += lo
            vals = f(pos.ravel()).reshape(pos.shape)
            if vals.min() < 0.0:
                k = int(np.argmin(vals))
                raise InvalidInterval(
                    f"density is {vals.flat[k]:.6g} < 0 at x = {pos.flat[k]:.17g}")
            del pos
            err = np.diff(vals, 2)
            cells = np.flatnonzero(np.abs(err, out=err) > _MASS_CELL_ERR / width)
            mids = vals[:, 1:-1]
            centres = block[cells // n] + step[1 + cells % n]
            flagged.append((err.flat[cells], centres, mids.flat[cells]))
            mids.flat[cells] = 0.0
            total += width * float(np.sum(mids))
            del vals, mids, err
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

    The evaluator is kept as given.  It takes a 1-D float array of points
    inside the support, returns one value per point and never writes to
    its argument, which may be the caller's own array: discretize hands
    it views of the positions it returns.  Calling the density is zero
    outside the support; the mask runs only when the points reach
    outside it.
    Construction fails if the evaluator is not callable, if the support
    is not a pair of real numbers lo < hi whose width hi - lo is a finite
    double (errors.checked_interval), which is stored as the tuple
    (lo, hi), or its width is too small to cut into the mass check's
    cells, if the evaluator returns neither one
    value nor one value per point or is negative at a point of the mass
    check, or if the mass, by the refined midpoint rule of _mass,
    deviates from 1 by more than 1e-8.
    An integrable singularity at a support end far from 0 can fail it:
    0.5 / sqrt(x - 1000) on (1000, 1001) measures 5.8e-7 short, as _mass
    splits no cell below a few float spacings (1.1e-13 there).
    """

    evaluator: callable
    support: tuple

    def __post_init__(self):
        if not callable(self.evaluator):
            raise InvalidInterval(f"the evaluator must be callable, got {shown(self.evaluator)!r}")
        lo, hi = checked_interval(self.support, InvalidInterval,
                                  "support must be finite with lo < hi, got {}")
        object.__setattr__(self, "support", (lo, hi))  # so hash and == work on any pair
        if not (float(hi) - float(lo)) / _MASS_CELLS > 0.0:
            raise InvalidInterval(f"support [{lo}, {hi}]: its width is too small for "
                                  f"{_MASS_CELLS} mass-check cells")
        mass = _mass(self, lo, hi)
        if not abs(mass - 1.0) <= _MASS_TOL:
            raise InvalidInterval(
                f"density mass is {mass:.12g}, expected 1 within {_MASS_TOL}")

    def __call__(self, x):
        """The density at x, a scalar or an array: the evaluator on the
        points of the half-open support [lo, hi), zero elsewhere, so dyadic
        grid points landing exactly on hi sample as zero.  A 1-D array
        inside [lo, hi) by its min and max goes to the evaluator as it is."""
        lo, hi = self.support
        arr = np.atleast_1d(checked_reals(x, InvalidGrid, "density points must be real numbers"))
        # a NaN fails both tests, so it takes the mask and samples as zero
        inside_all = arr.ndim == 1 and arr.size and lo <= arr.min() and arr.max() < hi
        out = self.evaluator(arr) if inside_all else None
        if np.shape(out) != arr.shape:  # the mask also broadcasts one value for all
            inside = (arr >= lo) & (arr < hi)
            out = np.zeros_like(arr)
            if count := int(np.count_nonzero(inside)):
                values = self.evaluator(arr[inside])
                if np.shape(values) not in ((), (1,), (count,)):
                    raise InvalidInterval(f"the evaluator returned shape {np.shape(values)} "
                                          f"for {count} points, not one value or one per point")
                out[inside] = values
        out = np.asarray(out, dtype=float)
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


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted point masses on strictly increasing positions whose span
    max - min is a finite double.

    Float arrays are kept, not copied, and marked read-only, the caller's
    too; a view of another writable array can still change the measure,
    and exact_ws and w1_cdf, which re-run these checks, then refuse it."""

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = checked_reals(self.positions, InvalidGrid, "positions must be real numbers")
        w = checked_reals(self.weights, UnbalancedMarginals, "weights must be real numbers")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)
        if pos.ndim != 1 or pos.shape != w.shape or pos.size == 0:
            raise InvalidGrid("positions and weights must be matching 1-D arrays")
        finite = bool(np.all(np.isfinite(pos)))
        # in Python floats, a span past the double range reads inf without a numpy warning
        if finite and not pos.max().item() - pos.min().item() < math.inf:
            raise InvalidGrid(f"positions span [{pos.min()}, {pos.max()}], wider than a double")
        if not (finite and np.all(np.diff(pos) > 0)):
            raise InvalidGrid("positions must be finite and strictly increasing")
        if not np.all((w >= 0) & np.isfinite(w)):
            raise UnbalancedMarginals("weights must be finite and nonnegative")
        if not abs(w.sum() - 1.0) <= 1e-12:
            raise UnbalancedMarginals(f"weights sum to {w.sum():.15g}, expected 1")
        pos.flags.writeable = w.flags.writeable = False

    def __len__(self):
        return len(self.positions)


def uniform_density(lo: float, hi: float) -> Density:
    """Uniform density on [lo, hi]."""
    checked_interval((lo, hi), InvalidInterval, "need finite lo < hi, got ({0[0]}, {0[1]})")
    height = 1.0 / (float(hi) - float(lo))

    def evaluate(x):
        return np.full(np.shape(x), height)

    return Density(evaluate, (lo, hi))


def _bump_profile(t, out=None):
    """exp(-1/(1 - t^2)) on (-1, 1), zero elsewhere, for an array t, into
    out (which may be t) or a new array.  In binary64, u = 1 - t^2 > 0
    holds exactly when |t| < 1."""
    u = np.multiply(t, t, out=out)
    np.subtract(1.0, u, out=u)
    inside = u > 0
    np.divide(-1.0, u, out=u, where=inside)
    np.exp(u, out=u, where=inside)
    np.copyto(u, 0.0, where=~inside)
    return u


_BUMP_BASE_MASS = _mass(_bump_profile, -1.0, 1.0)


def bump_density(center: float, half_width: float) -> Density:
    """Smooth bump with unit mass supported on [center - hw, center + hw].

    Profile exp(-1/(1 - t^2)) in the rescaled coordinate t, vanishing to
    all orders at the support boundary; the normalizing constant is the
    profile's mass by the same midpoint rule the Density constructor uses,
    never a hard-coded literal.
    """
    center = checked_real(center, InvalidInterval, "center must be a real number, got {}")
    half_width = checked_real(half_width, InvalidInterval,
                              "half_width must be positive, got {}", lo=LEAST_POSITIVE)
    scale = 1.0 / (half_width * _BUMP_BASE_MASS)

    def evaluate(x):
        t = np.subtract(x, center)
        t /= half_width
        return np.multiply(_bump_profile(t, out=t), scale, out=t)

    return Density(evaluate, (center - half_width, center + half_width))


def translate(d: Density, a: float) -> Density:
    """Shift a density by a.  The new evaluator composes d's, so a chain
    of transforms is masked by its own support only, and only on blocks
    of points that reach outside it."""
    a = checked_real(a, InvalidInterval, "shift must be a real number, got {}")
    lo, hi = checked_instance(d, Density, InvalidInterval).support
    inner = d.evaluator

    def evaluate(x):
        return inner(x - a)

    return Density(evaluate, (lo + a, hi + a))


def dilate(d: Density, b: float, about: float) -> Density:
    """Dilate a density by factor b > 0 about a point, preserving mass."""
    b = checked_real(b, InvalidInterval, "dilation factor must be positive, got {}",
                     lo=LEAST_POSITIVE)
    about = checked_real(about, InvalidInterval,
                         "dilation centre must be a real number, got {}")
    lo, hi = checked_instance(d, Density, InvalidInterval).support
    inner = d.evaluator

    def evaluate(x):
        y = np.subtract(x, about)
        y /= b
        y += about
        return np.divide(inner(y), b, out=y)

    new_lo = about + b * (lo - about)
    new_hi = about + b * (hi - about)
    return Density(evaluate, (new_lo, new_hi))


def _nonzero_span(values):
    """(first nonzero, one past the last) of a 1-D array, (0, 0) if all are
    zero; the mask costs a byte a value, not an index array's eight."""
    nonzero = values != 0
    if not nonzero.any():
        return 0, 0
    return int(nonzero.argmax()), len(nonzero) - int(nonzero[::-1].argmax())


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
    evaluated, and the window returned is trimmed to the first and last
    nonzero cell, so memory and work follow the support, not the 2^M cells
    of the domain; every other cell is an exact zero.  Each evaluator call
    gets _BLOCK_POINTS points (256 cells), so the memory beyond the result
    is a few cache-sized blocks for any window.  A window of more than
    _MAX_SAMPLE_POINTS points is refused before evaluating, and one without
    a nonzero cell after it, as discretize refuses a grid missing the density.
    """
    M = checked_int(M, InvalidGrid, "M must be a positive integer, got {}", lo=1)
    # a fractional j0 would put the window on a grid that is not dyadic
    j0 = checked_int(j0, InvalidGrid, "j0 must be an integer >= {lo}, got {}", lo=_MIN_J0)
    lo, hi = checked_instance(d, Density, InvalidInterval).support
    domain_hi = 2.0 ** (-j0)
    if lo < -1e-12 or hi > domain_hi * (1.0 + 1e-12):
        raise DomainOverflow(
            f"support [{lo}, {hi}] exceeds the sampling domain [0, {domain_hi}]")
    spacing = math.ldexp(1.0, -(j0 + M))  # 0.0 where 2.0 ** would overflow
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
        pts = ks[:, None] + offs
        pts *= spacing
        values[start: start + len(pts)] = d(pts.ravel()).reshape(pts.shape).mean(axis=1)
    values *= 2.0 ** (-(j0 + M) / 2.0)
    start, stop = _nonzero_span(values)
    if start == stop:
        raise InvalidGrid(
            f"density on [{lo}, {hi}] carries no mass on the sampling grid of "
            f"spacing {spacing}; use a larger M")
    return SampledDensity(offset=k_lo + start, spacing=spacing, values=values[start:stop])


def discretize(d: Density, num_points: int, domain: tuple = None) -> DiscreteMeasure:
    """Point masses on a uniform grid with weights proportional to the
    density values, renormalized to unit mass.

    domain defaults to the density support; a shared interval holding each
    support puts several measures on one grid for the exact solver.  The
    density is evaluated _BLOCK_POINTS points at a time into the weights
    array, which is then normalized in place.  Density.__call__ is zero
    at the support's right end (half-open [lo, hi)), so a grid point there
    weighs zero: discretize(uniform_density(0, 1), 1000) has mean 0.4995,
    half a grid step low.  A closed end is not nearer the continuous W_s
    at every parameter either (see the README).
    """
    num_points = checked_int(
        num_points, InvalidGrid,
        "need {lo} to {hi} grid points, got {}", 2, _MAX_SAMPLE_POINTS)
    support = lo, hi = checked_instance(d, Density, InvalidInterval).support
    if domain is not None:
        lo, hi = checked_interval(domain, InvalidInterval, "invalid grid domain {}")
        if not lo <= support[0] <= support[1] <= hi:
            raise InvalidGrid(f"support [{support[0]}, {support[1]}] reaches outside "
                              f"the grid domain [{lo}, {hi}]")
    grid = np.linspace(lo, hi, num_points)
    w = np.empty_like(grid)
    for start in range(0, num_points, _BLOCK_POINTS):
        w[start: start + _BLOCK_POINTS] = d(grid[start: start + _BLOCK_POINTS])
    total = w.sum()
    if total <= 0:
        raise InvalidGrid("density carries no mass on the requested grid")
    w /= total
    return DiscreteMeasure(positions=grid, weights=w)
