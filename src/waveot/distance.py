"""Wavelet s-Wasserstein distances between densities on the line.

All three formulations run the same pipeline: sample the difference of the
two densities on the dyadic grid of spacing 2^-(j0+M) over [0, 2^-j0]
(applying the 2^(-(j0+M)/2) initialization factor), push the vector through
the zero-extension DWT, and take a weighted l1 norm of coefficients:

* "new":         sum over levels j0 <= j < j0+M of 2^(-j(s+1/2)) |detail|,
                 decomposing the full M levels.
* "original":    C0 = 0, C1 = 1 fixed; decomposes j0+M levels so the
                 approximation sits at level 0, then sums
                 C1 * 2^(-j(s+1/2)) |detail| over 0 <= j < j0+M.
* "alternative": same sum as "original" plus C0 * |approximation at level
                 0|, with C0 > 0.

Each density is sampled only on the grid cells meeting its support; the
difference, formed on the union of the two windows, is trimmed of leading
and trailing zeros (with the translation offset carried along).  This
changes no coefficient of the zero-extended signal and keeps memory and
work proportional to the support, not the 2^M cells of the domain.  Edge
coefficients produced by the zero extension are genuine coefficients of
the extended signal and are always included in the sums.
"""

from dataclasses import dataclass

import numpy as np

from .densities import Density, sample_for_dwt
from .dwt import dwt_decompose
from .errors import InvalidConfig, InvalidExponent, add_context
from .filters import build_wavelet_system

__all__ = ["DistanceConfig", "distance_new", "distance_original",
           "distance_matrix", "wavelet_distance"]

FORMULATIONS = ("new", "original", "alternative")


@dataclass(frozen=True)
class DistanceConfig:
    """Parameters of a wavelet distance computation.

    s: exponent in (0, 1]; j0: lowest level (typically negative);
    M: number of levels, giving 2^M samples; wavelet: catalog name;
    formulation: one of "new", "original", "alternative"; C0/C1: weights
    of the original/alternative formulations (ignored by "new").
    """

    s: float
    j0: int
    M: int
    wavelet: str = "db10"
    formulation: str = "new"
    C0: float = 0.0
    C1: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.s <= 1.0:
            raise InvalidExponent(f"s must lie in (0, 1], got {self.s}")
        if self.formulation not in FORMULATIONS:
            raise InvalidConfig(f"unknown formulation {self.formulation!r}")
        if self.M < 1 or int(self.M) != self.M:
            raise InvalidConfig(f"M must be a positive integer, got {self.M}")
        if int(self.j0) != self.j0:
            raise InvalidConfig(f"j0 must be an integer, got {self.j0}")
        if self.j0 < 0 and self.M <= -self.j0:
            raise InvalidConfig("need M > -j0 so the sampling level j0+M is positive")
        if self.formulation == "original" and (self.C0 != 0.0 or self.C1 != 1.0):
            raise InvalidConfig("original formulation fixes C0 = 0 and C1 = 1")
        if self.formulation == "alternative" and not self.C0 > 0:
            raise InvalidConfig("alternative formulation requires C0 > 0")
        if self.formulation != "new" and self.j0 + self.M < 1:
            raise InvalidConfig(
                "original/alternative formulations need j0 + M >= 1 to reach level 0")


def _level_weight(j: int, s: float) -> float:
    return 2.0 ** (-j * (s + 0.5))


def _decompose_difference(p: Density, q: Density, cfg: DistanceConfig, num_levels):
    """Transform of sampled p - q trimmed to its nonzero window, or None
    when that difference vanishes identically."""
    diff = (sample_for_dwt(p, cfg.j0, cfg.M) - sample_for_dwt(q, cfg.j0, cfg.M)).trimmed()
    if diff is None:
        return None
    system = build_wavelet_system(cfg.wavelet)
    return dwt_decompose(diff.values, system, num_levels, mode="zero",
                         j_in=cfg.j0 + cfg.M, k_offset=diff.offset)


def distance_new(p: Density, q: Density, cfg: DistanceConfig) -> float:
    """Weighted detail sum over all M levels, from j0 through j0 + M - 1."""
    if cfg.formulation != "new":
        raise InvalidConfig(f"config formulation is {cfg.formulation!r}, not 'new'")
    pyr = _decompose_difference(p, q, cfg, cfg.M)
    if pyr is None:
        return 0.0
    total = 0.0
    for i, d in enumerate(pyr.details):
        total += _level_weight(pyr.j0 + i, cfg.s) * float(np.sum(np.abs(d)))
    return total


def distance_original(p: Density, q: Density, cfg: DistanceConfig) -> float:
    """Level-0 approximation term (weight C0) plus detail sums over the
    nonnegative levels (weight C1); covers both the original and the
    alternative formulation depending on cfg."""
    if cfg.formulation not in ("original", "alternative"):
        raise InvalidConfig(
            f"config formulation is {cfg.formulation!r}, expected 'original' "
            f"or 'alternative'")
    pyr = _decompose_difference(p, q, cfg, cfg.j0 + cfg.M)
    if pyr is None:
        return 0.0
    total = cfg.C0 * float(np.sum(np.abs(pyr.approx)))
    for i, d in enumerate(pyr.details):
        total += cfg.C1 * _level_weight(i, cfg.s) * float(np.sum(np.abs(d)))
    return total


def wavelet_distance(p: Density, q: Density, cfg: DistanceConfig) -> float:
    """Dispatch to the formulation selected by the config."""
    if cfg.formulation == "new":
        return distance_new(p, q, cfg)
    return distance_original(p, q, cfg)


def distance_matrix(ps, cfg: DistanceConfig) -> np.ndarray:
    """Symmetric matrix of pairwise distances under the configured
    formulation; per-pair failures are re-raised with the pair attached."""
    n = len(ps)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            try:
                out[i, j] = out[j, i] = wavelet_distance(ps[i], ps[j], cfg)
            except Exception as e:
                add_context(e, f"pair ({i}, {j})")
                raise
    return out
