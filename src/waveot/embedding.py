"""Embedding of densities as sparse detail-coefficient vectors.

A density maps to the detail coefficients of its own DWT (levels j0
through j0 + M - 1), keyed by (level, absolute translation).  The weighted
l1 metric on these vectors reproduces the "new" wavelet distance exactly,
so all pairwise distances among N measures cost N transforms instead of
N(N-1)/2.

Vectors serialize to a line-based text format: a header line
``wlot <wavelet> <j0> <M>`` followed by ``j k value`` triples with
17-significant-digit values (bit-exact round trips for finite doubles).
"""

import math
from dataclasses import dataclass

import numpy as np

from .densities import Density, sample_for_dwt
from .distance import DistanceConfig, _level_weight
from .dwt import dwt_decompose
from .errors import ConfigMismatch, InvalidConfig, InvalidExponent, MalformedWlot
from .filters import build_wavelet_system, catalog_names

__all__ = ["WlotVector", "embed", "wlot_distance", "wlot_distance_matrix",
           "prune", "write_wlot", "read_wlot", "to_text", "from_text"]


@dataclass(frozen=True)
class WlotVector:
    """Sparse detail-coefficient vector of one embedded density.

    entries maps (level j, absolute translation k) to the coefficient;
    missing keys are zeros.  No magnitude threshold is applied at embed
    time, so distances on embedded vectors are exact.
    """

    wavelet: str
    j0: int
    M: int
    entries: dict

    @property
    def fingerprint(self):
        return (self.wavelet, self.j0, self.M)

    def __len__(self):
        return len(self.entries)

    def level_counts(self):
        """Number of stored (nonzero) entries per level."""
        counts = {}
        for (j, _k) in self.entries:
            counts[j] = counts.get(j, 0) + 1
        return counts


def embed(p: Density, cfg: DistanceConfig) -> WlotVector:
    """Detail coefficients of p itself (not a difference) under the
    config's sampling grid and wavelet.

    Sampling is the same as in the distance pipeline, so wlot_distance on
    embedded vectors matches distance_new exactly (the transform is linear
    in the samples).  Only the "new" formulation embeds this way, so any
    other config is refused."""
    if cfg.formulation != "new":
        raise InvalidConfig(
            f"only the 'new' formulation embeds, got {cfg.formulation!r}")
    sp = sample_for_dwt(p, cfg.j0, cfg.M).trimmed()
    entries = {}
    if sp is not None:
        system = build_wavelet_system(cfg.wavelet)
        pyr = dwt_decompose(sp.values, system, cfg.M, mode="zero",
                            j_in=cfg.j0 + cfg.M, k_offset=sp.offset)
        for i, (d, off) in enumerate(zip(pyr.details, pyr.detail_offsets)):
            j = pyr.j0 + i
            for t in np.flatnonzero(d):
                entries[(j, off + int(t))] = float(d[t])
    return WlotVector(wavelet=cfg.wavelet, j0=cfg.j0, M=cfg.M, entries=entries)


def wlot_distance(u: WlotVector, v: WlotVector, s: float) -> float:
    """Weighted l1 distance sum_{j,k} 2^(-j(s+1/2)) |u_{j,k} - v_{j,k}|."""
    if u.fingerprint != v.fingerprint:
        raise ConfigMismatch(
            f"incompatible embeddings: {u.fingerprint} vs {v.fingerprint}")
    if not 0.0 < s <= 1.0:
        raise InvalidExponent(f"s must lie in (0, 1], got {s}")
    ue, ve = u.entries, v.entries
    total = 0.0
    for key in ue.keys() | ve.keys():
        diff = ue.get(key, 0.0) - ve.get(key, 0.0)
        if diff != 0.0:
            total += _level_weight(key[0], s) * abs(diff)
    return total


def wlot_distance_matrix(ps, cfg: DistanceConfig) -> np.ndarray:
    """All pairwise distances among N densities with N embeddings."""
    vecs = [embed(p, cfg) for p in ps]
    n = len(vecs)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = wlot_distance(vecs[i], vecs[j], cfg.s)
    return out


def prune(vec: WlotVector, eps: float) -> WlotVector:
    """Drop entries below magnitude eps (lossy; for storage only)."""
    kept = {k: v for k, v in vec.entries.items() if abs(v) >= eps}
    return WlotVector(wavelet=vec.wavelet, j0=vec.j0, M=vec.M, entries=kept)


def to_text(vec: WlotVector) -> str:
    lines = [f"wlot {vec.wavelet} {vec.j0} {vec.M}"]
    for (j, k) in sorted(vec.entries):
        lines.append(f"{j} {k} {vec.entries[(j, k)]:.17g}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> WlotVector:
    """Parse the output of to_text; MalformedWlot names the first line
    that breaks the format."""
    lines = text.removesuffix("\n").split("\n")
    try:
        tag, wavelet, j0, M = lines[0].split()
        j0, M = int(j0), int(M)
    except ValueError:
        raise MalformedWlot(f"line 1: expected 'wlot <wavelet> <j0> <M>', "
                            f"got {lines[0]!r}") from None
    if tag != "wlot" or wavelet not in catalog_names():
        raise MalformedWlot(f"line 1: bad tag or unknown wavelet in {lines[0]!r}")
    entries = {}
    for line_no, line in enumerate(lines[1:], start=2):
        try:
            j, k, val = line.split()
            j, k, val = int(j), int(k), float(val)
        except ValueError:
            raise MalformedWlot(
                f"line {line_no}: expected 'j k value', got {line!r}") from None
        if not math.isfinite(val):
            raise MalformedWlot(f"line {line_no}: non-finite value {val}")
        if not j0 <= j < j0 + M:
            raise MalformedWlot(f"line {line_no}: level {j} outside [{j0}, {j0 + M})")
        if (j, k) in entries:
            raise MalformedWlot(f"line {line_no}: duplicate entry ({j}, {k})")
        entries[(j, k)] = val
    return WlotVector(wavelet=wavelet, j0=j0, M=M, entries=entries)


def write_wlot(vec: WlotVector, path) -> None:
    with open(path, "w") as fh:
        fh.write(to_text(vec))


def read_wlot(path) -> WlotVector:
    with open(path) as fh:
        return from_text(fh.read())
