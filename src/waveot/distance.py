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
transform of the sampled difference.  sample_for_dwt samples each density
on the grid cells meeting its support and trims the window to its first and
last nonzero cell (the translation offset carried along), and a level
difference has cells only where one of the two levels has coefficients,
never for the gap between them.  So memory and work follow the two
supports, not the 2^M cells of the domain or the distance between the
supports: u uniform on [0, 1] against its translate by 2040 at j0 = -11 and
M = 22 peaks at 0.7 MiB by tracemalloc.
Edge coefficients produced by the zero extension are genuine coefficients
of the extended signal and are always included in the sums.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .densities import _MIN_J0, Density, sample_for_dwt
from .dwt import dwt_decompose
from .errors import InvalidConfig, add_context, check_exponent, checked_int
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


@dataclass(frozen=True)
class DistanceConfig:
    """Parameters of a wavelet distance computation.

    s: exponent in (0, 1]; j0: lowest level (typically negative, at
    least -1023); M: number of levels, giving 2^M samples, with j0 + M at
    most 1074; wavelet: catalog name;
    formulation: one of "new", "original", "alternative"; C0/C1: weights
    of the original/alternative formulations (ignored by "new").  C0 =
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
            raise InvalidConfig(f"unknown formulation {self.formulation!r}")
        # integral floats pass; levels, shifts and the .wlot header need ints
        object.__setattr__(self, "M", checked_int(
            self.M, InvalidConfig, f"M must be a positive integer, got {self.M}", lo=1))
        object.__setattr__(self, "j0", checked_int(
            self.j0, InvalidConfig, f"j0 must be an integer, got {self.j0}"))
        if self.j0 < 0 and self.M <= -self.j0:
            raise InvalidConfig("need M > -j0 so the sampling level j0+M is positive")
        if not (self.j0 >= _MIN_J0 and self.j0 + self.M <= _MAX_SAMPLING_LEVEL):
            raise InvalidConfig(
                f"need j0 >= {_MIN_J0} and j0 + M <= {_MAX_SAMPLING_LEVEL} so the "
                f"domain and the grid spacing are doubles, got j0 = {self.j0}, M = {self.M}")
        weights = (self.C1,) if self.C0 is None else (self.C0, self.C1)
        reals = all(isinstance(c, numbers.Real) for c in weights)
        if self.formulation == "original" and not (reals and weights in ((1.0,), (0.0, 1.0))):
            raise InvalidConfig("original formulation fixes C0 = 0 and C1 = 1")
        if self.formulation == "alternative" and not (
                reals and all(0.0 < c < math.inf for c in weights)):
            raise InvalidConfig(
                f"alternative formulation requires finite C0 > 0 and C1 > 0, "
                f"got C0 = {self.C0}, C1 = {self.C1}")


def _level_weight(j: int, s: float) -> float:
    return 2.0 ** (-j * (s + 0.5))


def _weighted_l1(j0, details, s, c1=1.0, total=0.0):
    """total + sum_i c1 2^(-j(s+1/2)) sum |details[i]| with j = j0 + i,
    added level by level from the coarsest."""
    for j, d in enumerate(details, start=j0):
        total += c1 * _level_weight(j, s) * float(np.sum(np.abs(d)))
    return total


def _coefficients(p: Density, cfg: DistanceConfig, num_levels):
    """The (offset, array) pairs of p's own transform over num_levels
    levels below the sampling level j0 + M: the approximation, then the
    detail levels from the coarsest.  array[t] is the coefficient at
    translation offset + t."""
    sp = sample_for_dwt(p, cfg.j0, cfg.M)
    pyr = dwt_decompose(sp.values, build_wavelet_system(cfg.wavelet), num_levels,
                        mode="zero", j_in=cfg.j0 + cfg.M, k_offset=sp.offset)
    return [(pyr.approx_offset, pyr.approx), *zip(pyr.detail_offsets, pyr.details)]


def _level_difference(ou, a, ov, b):
    """The coefficients of a - b, up to sign, for one level where a starts
    at translation ou and b at ov: their difference where the two arrays
    overlap and each array alone elsewhere, with no cell for a gap between
    them.  The arrays are taken in the order of their offsets, so cells
    come in translation order and swapping the arguments at most negates
    the result: its l1 norm is exactly symmetric."""
    if ov < ou:
        ou, a, ov, b = ov, b, ou, a
    hi = max(ov, min(ou + len(a), ov + len(b)))
    return np.concatenate([a[:ov - ou], a[ov - ou:hi - ou] - b[:hi - ov],
                           a[hi - ou:], b[hi - ov:]])


def distance_new(p: Density, q: Density, cfg: DistanceConfig) -> float:
    """Weighted detail sum over all M levels, from j0 through j0 + M - 1."""
    if cfg.formulation != "new":
        raise InvalidConfig(f"config formulation is {cfg.formulation!r}, not 'new'")
    return wavelet_distance(p, q, cfg)


def distance_original(p: Density, q: Density, cfg: DistanceConfig) -> float:
    """Level-0 approximation term (weight C0) plus detail sums over the
    nonnegative levels (weight C1); covers both the original and the
    alternative formulation depending on cfg."""
    if cfg.formulation == "new":
        raise InvalidConfig(
            "config formulation is 'new', expected 'original' or 'alternative'")
    return wavelet_distance(p, q, cfg)


def _levels_and_weights(cfg: DistanceConfig):
    """The number of levels each density's transform takes, and the
    weights c0 of the approximation and c1 of the details."""
    if cfg.formulation == "new":
        return cfg.M, 0.0, 1.0
    c0 = cfg.C0
    if c0 is None:
        c0 = 0.0 if cfg.formulation == "original" else math.pow(_C0_DIAMETER, cfg.s)
    return cfg.j0 + cfg.M, c0, cfg.C1


def _coefficient_distance(cu, cv, cfg: DistanceConfig):
    """wavelet_distance from the two densities' _coefficients."""
    levels, c0, c1 = _levels_and_weights(cfg)
    # one level difference at a time: the approximation, then the details
    diffs = (_level_difference(ou, a, ov, b) for (ou, a), (ov, b) in zip(cu, cv))
    return _weighted_l1(cfg.j0 + cfg.M - levels, diffs, cfg.s, c1,
                        total=c0 * float(np.sum(np.abs(next(diffs)))))


def wavelet_distance(p: Density, q: Density, cfg: DistanceConfig) -> float:
    """The distance under the formulation selected by the config."""
    levels = _levels_and_weights(cfg)[0]
    return _coefficient_distance(_coefficients(p, cfg, levels),
                                 _coefficients(q, cfg, levels), cfg)


def distance_matrix(ps, cfg: DistanceConfig) -> np.ndarray:
    """Symmetric matrix of pairwise distances under the configured
    formulation, each entry equal to wavelet_distance bit for bit.  Each
    density is transformed once, at its first pair, and its coefficients
    are kept until its row is done; per-pair failures are re-raised with
    the pair attached."""
    n = len(ps)
    out = np.zeros((n, n))
    levels = _levels_and_weights(cfg)[0]
    coeffs = [None] * n
    for i in range(n):
        for j in range(i + 1, n):
            with add_context(f"pair ({i}, {j})"):
                for k in (i, j):
                    if coeffs[k] is None:
                        coeffs[k] = _coefficients(ps[k], cfg, levels)
                out[i, j] = out[j, i] = _coefficient_distance(coeffs[i], coeffs[j], cfg)
        coeffs[i] = None
    return out
