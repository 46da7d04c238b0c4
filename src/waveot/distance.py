"""Wavelet s-Wasserstein distances between densities on the line.

All three formulations run the same pipeline.  Each density is sampled on
the dyadic grid of spacing 2^-(j0+M) over [0, 2^-j0] (applying the
2^(-(j0+M)/2) initialization factor) and pushed through the zero-extension
DWT on its own; the distance is one weighted l1 norm of the per-level
differences of the two transforms,

    c0 * sum |approximation| + c1 * sum_j 2^(-j(s+1/2)) sum |detail at j|:

* "new":         decomposes the full M levels, so 0 <= j - j0 < M, with
                 c0 = 0 and c1 = 1.
* "original":    decomposes j0+M levels so the approximation sits at level
                 0 and 0 <= j < j0+M; C0 = 0 and C1 = 1 are fixed.
* "alternative": the same levels as "original" with finite C0 > 0, by
                 default 3^s (the diameter of the exact solver's domain
                 [0, 3] to the power s), and any finite C1 > 0.

The transform is linear, so this equals, to rounding, the norm of the
transform of the sampled difference.  One routine, _pairwise, forms every
level difference and weighted sum in the package: wavelet_distance and
embedding.wlot_distance call it on one pair, distance_matrix on each pair,
and embedding.wlot_distance_matrix once on all of its embeddings.
sample_for_dwt samples each density on the grid cells meeting its support
and trims the window to its first and last nonzero cell (the translation
offset carried along), and _pairwise lays a level out only over the
translations where some row has coefficients, never over the gap between
them.  So memory and work follow the two supports, not the 2^M cells of
the domain or the distance between the supports: u uniform on [0, 1]
against its translate by 2040 at j0 = -11 and M = 22 peaks at 0.42 MiB by
tracemalloc.
Edge coefficients produced by the zero extension are genuine coefficients
of the extended signal and are always included in the sums.
"""

import bisect
import math
import sys
from dataclasses import dataclass

import numpy as np

from .densities import _BLOCK_POINTS, _MIN_J0, Density, sample_for_dwt
from .dwt import dwt_decompose
from .errors import (LEAST_POSITIVE, InvalidConfig, InvalidGrid, add_context, check_exponent,
                     checked_instance, checked_int, checked_real, shown)
from .filters import build_wavelet_system

__all__ = ["DistanceConfig", "distance_new", "distance_original",
           "distance_matrix", "wavelet_distance"]

FORMULATIONS = ("new", "original", "alternative")

# diameter of the exact solver's shared grid [0, 3] (simulate.EXACT_DOMAIN
# reads it); the alternative formulation's default C0 is its s-th power
_C0_DIAMETER = 3.0
# the grid spacing 2^-(j0+M) must be a nonzero double (the smallest
# subnormal); densities._MIN_J0 keeps the domain length 2^-j0 finite
_MAX_SAMPLING_LEVEL = 1074
# most float cells one call covers: the N x N result of distance_matrix or
# wlot_distance_matrix; the N x K coefficient cells of wlot_distance_matrix,
# which _pairwise takes a block at a time but differences each against up
# to N - 1 rows, so this bounds its work; or the trimmed level arrays of a
# WlotVector.  Every vector embed can sample spans far fewer
_MAX_CELLS = 1 << 23


@dataclass(frozen=True)
class DistanceConfig:
    """Parameters of a wavelet distance computation.

    s: exponent in (0, 1]; j0: lowest level (typically negative, at
    least -1023); M: number of levels, giving 2^M samples, with j0 + M at
    most 1074; wavelet: catalog name, checked when the config is built;
    formulation: one of "new", "original", "alternative"; C0/C1: weights
    of the original/alternative formulations ("new" ignores them, but
    they must be real numbers).  C0 =
    None means the formulation's default, 0 for "original" and 3^s for
    "alternative", resolved when a distance is computed, so a config
    replaced with another s gets that s's default.
    """

    s: float
    j0: int
    M: int
    wavelet: str = "db10"
    formulation: str = "new"
    C0: float = None
    C1: float = 1.0

    def __post_init__(self):
        check_exponent(self.s)
        if self.formulation not in FORMULATIONS:
            raise InvalidConfig(f"unknown formulation {shown(self.formulation)!r}")
        # integral floats pass; levels, shifts and the .wlot header need ints
        object.__setattr__(self, "M", checked_int(
            self.M, InvalidConfig, "M must be a positive integer, got {}", lo=1))
        object.__setattr__(self, "j0", checked_int(
            self.j0, InvalidConfig, "j0 must be an integer, got {}"))
        if self.j0 < 0 and self.M <= -self.j0:
            raise InvalidConfig("need M > -j0 so the sampling level j0+M is positive")
        if not (self.j0 >= _MIN_J0 and self.j0 + self.M <= _MAX_SAMPLING_LEVEL):
            raise InvalidConfig(
                f"need j0 >= {_MIN_J0} and j0 + M <= {_MAX_SAMPLING_LEVEL} so the "
                f"domain and the grid spacing are doubles, got j0 = {self.j0}, M = {self.M}")
        build_wavelet_system(self.wavelet)
        message, bounds = {
            "new": ("C0 and C1 must be real numbers, got C0 = {C0!r}, C1 = {C1!r}",
                    ()),
            "original": ("original formulation fixes C0 = 0 and C1 = 1", ()),
            "alternative": ("alternative formulation requires finite C0 > 0 and C1 > 0, "
                            "got C0 = {C0}, C1 = {C1}",
                            (LEAST_POSITIVE, sys.float_info.max)),
        }[self.formulation]
        weights = tuple(
            checked_real(c, InvalidConfig, message, *bounds, C0=self.C0, C1=self.C1)
            for c in ((self.C1,) if self.C0 is None else (self.C0, self.C1)))
        if self.formulation == "original" and weights not in ((1.0,), (0.0, 1.0)):
            raise InvalidConfig(message)


def _coefficients(p: Density, cfg: DistanceConfig, num_levels):
    """The (offset, array) pairs of p's own transform over num_levels
    levels below the sampling level j0 + M: the approximation, then the
    detail levels from the coarsest.  array[t] is the coefficient at
    translation offset + t."""
    sp = sample_for_dwt(p, cfg.j0, cfg.M)
    pyr = dwt_decompose(sp.values, build_wavelet_system(cfg.wavelet), num_levels,
                        mode="zero", j_in=cfg.j0 + cfg.M, k_offset=sp.offset)
    return [(pyr.approx_offset, pyr.approx), *zip(pyr.detail_offsets, pyr.details)]


def distance_new(p: Density, q: Density, cfg: DistanceConfig) -> float:
    """Weighted detail sum over all M levels, from j0 through j0 + M - 1."""
    if checked_instance(cfg, DistanceConfig, InvalidConfig).formulation != "new":
        raise InvalidConfig(f"config formulation is {cfg.formulation!r}, not 'new'")
    return wavelet_distance(p, q, cfg)


def distance_original(p: Density, q: Density, cfg: DistanceConfig) -> float:
    """Level-0 approximation term (weight C0) plus detail sums over the
    nonnegative levels (weight C1); covers both the original and the
    alternative formulation depending on cfg."""
    if checked_instance(cfg, DistanceConfig, InvalidConfig).formulation == "new":
        raise InvalidConfig(
            "config formulation is 'new', expected 'original' or 'alternative'")
    return wavelet_distance(p, q, cfg)


def _levels_and_weights(cfg: DistanceConfig):
    """The number of levels each density's transform takes, and one weight
    for each of its _coefficients' levels: c0 for the approximation, then
    c1 2^(-j(s+1/2)) for the details at j, from the coarsest."""
    if cfg.formulation == "new":
        levels, c0, c1 = cfg.M, 0.0, 1.0
    else:
        c0 = cfg.C0
        if c0 is None:
            c0 = 0.0 if cfg.formulation == "original" else math.pow(_C0_DIAMETER, cfg.s)
        levels, c1 = cfg.j0 + cfg.M, cfg.C1
    j0 = cfg.j0 + cfg.M - levels
    return levels, [c0] + [c1 * 2.0 ** (-j * (cfg.s + 0.5)) for j in range(j0, j0 + levels)]


def _layout(level):
    """Columns of one level's (offset, array) pairs laid side by side
    over the union of their windows, gaps left out: the column of each
    array's first element (None for an empty array) and the width."""
    spans = sorted((o, o + len(a), n) for n, (o, a) in enumerate(level) if len(a))
    columns, width = [None] * len(level), 0
    start = end = spans[0][0] if spans else 0
    for offset, stop, n in spans:
        if offset > end:  # a gap: close the segment [start, end)
            width, start = width + end - start, offset
        end = max(end, stop)
        columns[n] = width + offset - start
    return columns, width + end - start


def _pairwise(rows, weights, budget=math.inf):
    """The N x N matrix of sum_i weights[i] sum |u_i - v_i| over the pairs
    (u, v) of the N rows, each a sequence of one (offset, array) pair per
    weight: array[t] is the coefficient at translation offset + t, and
    every coefficient outside it is zero.

    The K translations any row covers, level after level, gaps between
    windows left out, are taken max(1, _BLOCK_POINTS // N) columns at a
    time into one reused N-row block, and the absolute differences of the
    pairs (r, r + d), one d at a time, into a second; each pair gains
    their product with the block's weights, in both triangles.  So the
    N x K coefficient matrix is never laid out, and beyond the rows, the
    K weights and the result the working set is two blocks of about
    _BLOCK_POINTS cells.  The result is exactly symmetric with a zero
    diagonal, and more than budget cells of N x K are refused before any
    is filled.
    """
    n = len(rows)
    layouts = [_layout([row[i] for row in rows]) for i in range(len(weights))]
    widths = [width for _, width in layouts]
    starts, K = np.cumsum([0] + widths).tolist(), sum(widths)
    if n * K > budget:
        raise InvalidGrid(
            f"{n} measures over {K} translations exceed the budget of {budget} "
            "cells; use fewer measures")
    weights = np.repeat(weights, widths)
    out = np.zeros((n, n))
    # out[r, r + d] is flat[r * (n + 1) + d], and out[r + d, r] is flat[d * n + r * (n + 1)]
    flat = out.reshape(-1)
    cols = max(1, min(K, _BLOCK_POINTS // max(n, 1)))  # columns at a time
    block, buf = np.empty((n, cols)), np.empty((max(n - 1, 0), cols))
    for c0 in range(0, K, cols):
        c1 = min(c0 + cols, K)
        cells = block[:, :c1 - c0]
        cells.fill(0.0)
        # the levels reaching into [c0, c1), the first where starts[i + 1] > c0
        for i in range(bisect.bisect_right(starts, c0) - 1, bisect.bisect_left(starts, c1)):
            for cell_row, row, col in zip(cells, rows, layouts[i][0]):
                if col is not None:
                    lo, values = starts[i] + col, row[i][1]
                    a, b = max(lo, c0), min(lo + len(values), c1)
                    if a < b:
                        cell_row[a - c0: b - c0] = values[a - lo: b - lo]
        for d in range(1, n):  # the pairs (r, r + d), every r at once
            diffs = np.subtract(cells[d:], cells[:-d], out=buf[:n - d, :c1 - c0])
            sums = np.abs(diffs, out=diffs) @ weights[c0:c1]
            flat[d::n + 1][:n - d] += sums
            flat[d * n::n + 1] += sums
    return out


def _each_measure(ps, transform, budget):
    """[transform(p) for p in ps], each failure re-raised naming its
    measure; refused with InvalidGrid before any transform when ps is not
    iterable or its N measures need more than budget cells of N x N."""
    if not np.iterable(ps):
        raise InvalidGrid(f"measures must be an iterable of densities, got {shown(ps)!r}")
    if (n := len(ps := list(ps))) * n > budget:
        raise InvalidGrid(f"{n} measures need {n * n} matrix cells, more than the budget "
                          f"of {budget}; use fewer measures")
    out = []
    for i, p in enumerate(ps):
        with add_context(f"measure {i}"):
            out.append(transform(p))
    return out


def wavelet_distance(p: Density, q: Density, cfg: DistanceConfig) -> float:
    """The distance under the formulation selected by the config."""
    levels, weights = _levels_and_weights(checked_instance(cfg, DistanceConfig, InvalidConfig))
    rows = [_coefficients(p, cfg, levels), _coefficients(q, cfg, levels)]
    return float(_pairwise(rows, weights)[0, 1])


def distance_matrix(ps, cfg: DistanceConfig) -> np.ndarray:
    """Symmetric matrix of pairwise distances under the configured
    formulation, each entry equal to wavelet_distance bit for bit.  Each
    density is transformed once, before any pair, and a failed transform
    is re-raised naming its measure.  ps may be any iterable; more than
    _MAX_CELLS cells of N x N are refused before the first transform."""
    levels, weights = _levels_and_weights(checked_instance(cfg, DistanceConfig, InvalidConfig))
    rows = _each_measure(ps, lambda p: _coefficients(p, cfg, levels), _MAX_CELLS)
    n = len(rows)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = _pairwise([rows[i], rows[j]], weights)[0, 1]
    return out
