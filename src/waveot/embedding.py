"""Embedding of densities as per-level detail-coefficient arrays.

A density maps to the detail coefficients of its own DWT, levels j0
through j0 + M - 1, stored as one (offset, array) pair per level: the
array holds the coefficients of consecutive translations, the offset is
the absolute translation of its first element.  These are the detail
levels the distance module's coefficient path gives the density, each
trimmed to its nonzero span, and wlot_distance takes the same per-level
differences and weighted l1 sum as wavelet_distance.  So the metric on
these vectors reproduces the "new" wavelet distance (to rounding, as the
trimmed arrays are summed in another grouping), and all pairwise
distances among N measures cost N transforms instead of two for each of
the N(N-1)/2 pairs.

Vectors serialize to a line-based text format: a header line
``wlot <wavelet> <j0> <M>`` followed by ``j k value`` triples of the
nonzero coefficients, sorted by level and translation, with
17-significant-digit values (bit-exact round trips for finite doubles).
"""

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

# embed reaches sample_for_dwt and dwt_decompose through _coefficients, but
# both stay importable here: perfbench/tracer.py wraps this import site
from .densities import Density, sample_for_dwt
from .distance import (DistanceConfig, _coefficients, _level_difference, _level_weight,
                       _weighted_l1)
from .dwt import _zero_chain, dwt_decompose
from .errors import (ConfigMismatch, InvalidConfig, InvalidExponent, InvalidGrid,
                     MalformedWlot, ShapeMismatch)
from .filters import build_wavelet_system, catalog_names

__all__ = ["WlotVector", "embed", "wlot_distance", "wlot_distance_matrix",
           "prune", "write_wlot", "read_wlot", "to_text", "from_text"]

# most float cells one call lays out: the N x K matrix of
# wlot_distance_matrix (64 MiB, and as much again for the differences of
# its first row), or the level arrays from_text builds; every vector embed
# can sample spans far fewer
_MAX_CELLS = 1 << 23


@dataclass(frozen=True, eq=False)
class WlotVector:
    """Detail-coefficient vector of one embedded density.

    levels[i] is the (offset, array) pair of level j0 + i: array[t] is the
    coefficient at translation offset + t, and every coefficient outside
    the array is zero.  Each array is trimmed to its first and last
    nonzero (an all-zero level is (0, empty)) and read-only, so equal
    vectors have equal levels.  No magnitude threshold is applied at embed
    time, so distances on embedded vectors are exact.
    """

    wavelet: str
    j0: int
    M: int
    levels: tuple

    def __post_init__(self):
        trimmed = []
        for offset, values in self.levels:
            values = np.asarray(values, dtype=float)
            nz = np.flatnonzero(values)
            if len(nz) == 0:
                offset, values = 0, np.empty(0)
            else:
                offset = offset + int(nz[0])
                values = np.ascontiguousarray(values[nz[0]: nz[-1] + 1])
            values.setflags(write=False)
            trimmed.append((offset, values))
        if len(trimmed) != self.M:
            raise ShapeMismatch(f"{len(trimmed)} levels for M = {self.M}")
        object.__setattr__(self, "levels", tuple(trimmed))

    @property
    def fingerprint(self):
        return (self.wavelet, self.j0, self.M)

    @cached_property
    def entries(self):
        """Read-only {(j, k): value} of the nonzero coefficients, built on
        first access and kept; the package itself works on the arrays."""
        out = {}
        for j, (offset, values) in enumerate(self.levels, start=self.j0):
            nz = np.flatnonzero(values)
            out.update(zip([(j, offset + t) for t in nz.tolist()], values[nz].tolist()))
        return MappingProxyType(out)

    def __len__(self):
        """Number of nonzero coefficients."""
        return sum(int(np.count_nonzero(values)) for _, values in self.levels)

    def level_counts(self):
        """Number of nonzero coefficients per level, for levels with any."""
        counts = {}
        for j, (_, values) in enumerate(self.levels, start=self.j0):
            if n := int(np.count_nonzero(values)):
                counts[j] = n
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
    levels = _coefficients(p, cfg, cfg.M)[1:]
    return WlotVector(wavelet=cfg.wavelet, j0=cfg.j0, M=cfg.M, levels=levels)


def wlot_distance(u: WlotVector, v: WlotVector, s: float) -> float:
    """Weighted l1 distance sum_{j,k} 2^(-j(s+1/2)) |u_{j,k} - v_{j,k}|."""
    if u.fingerprint != v.fingerprint:
        raise ConfigMismatch(
            f"incompatible embeddings: {u.fingerprint} vs {v.fingerprint}")
    if not 0.0 < s <= 1.0:
        raise InvalidExponent(f"s must lie in (0, 1], got {s}")
    diffs = [_level_difference(ou, a, ov, b)
             for (ou, a), (ov, b) in zip(u.levels, v.levels)]
    return _weighted_l1(u.j0, diffs, s)


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


def wlot_distance_matrix(ps, cfg: DistanceConfig) -> np.ndarray:
    """All pairwise distances among N densities with N embeddings.

    The embeddings fill one N x K coefficient matrix, K the translations
    any of them covers, and row i's distances to the later rows are one
    product of their absolute differences with the K level weights.
    Differences are taken before weighting, as in wlot_distance, but the
    sums run in another order, so the two agree to rounding, not bit for
    bit.  The lower triangle mirrors the upper one, so the result is
    exactly symmetric.  A matrix past _MAX_CELLS cells is refused before
    it is allocated.
    """
    vecs = [embed(p, cfg) for p in ps]
    n = len(vecs)
    layouts = [_layout([vec.levels[i] for vec in vecs]) for i in range(cfg.M)]
    K = sum(width for _, width in layouts)
    if n * K > _MAX_CELLS:
        raise InvalidGrid(
            f"the {n} x {K} coefficient matrix exceeds the budget of {_MAX_CELLS} "
            "cells; use fewer measures or wlot_distance on pairs")
    X, weights, base = np.zeros((n, K)), np.empty(K), 0
    for i, (columns, width) in enumerate(layouts):
        weights[base: base + width] = _level_weight(cfg.j0 + i, cfg.s)
        for row, vec, col in zip(X, vecs, columns):
            if col is not None:
                values = vec.levels[i][1]
                row[base + col: base + col + len(values)] = values
        base += width
    out = np.zeros((n, n))
    for i in range(n - 1):
        diffs = X[i + 1:] - X[i]
        out[i, i + 1:] = np.abs(diffs, out=diffs) @ weights
    return out + out.T


def prune(vec: WlotVector, eps: float) -> WlotVector:
    """Drop entries below magnitude eps (lossy; for storage only)."""
    levels = [(offset, np.where(np.abs(values) >= eps, values, 0.0))
              for offset, values in vec.levels]
    return WlotVector(wavelet=vec.wavelet, j0=vec.j0, M=vec.M, levels=levels)


def to_text(vec: WlotVector) -> str:
    lines = [f"wlot {vec.wavelet} {vec.j0} {vec.M}"]
    for j, (offset, values) in enumerate(vec.levels, start=vec.j0):
        nz = np.flatnonzero(values)
        lines.extend(f"{j} {offset + t} {val:.17g}"
                     for t, val in zip(nz.tolist(), values[nz].tolist()))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> WlotVector:
    """Parse the output of to_text; MalformedWlot names the first line
    that breaks the format.

    Each translation k must lie in the window its level has when embed
    transforms the whole domain, and the levels together may span at most
    _MAX_CELLS translations, so no line can make the reader allocate more.
    Lines may come in any order.  A line whose value is 0.0 is accepted
    and dropped, as every coefficient not listed is zero: entries, len()
    and to_text of the result omit it."""
    lines = text.removesuffix("\n").split("\n")
    try:
        tag, wavelet, j0, M = lines[0].split()
        j0, M = int(j0), int(M)
    except ValueError:
        raise MalformedWlot(f"line 1: expected 'wlot <wavelet> <j0> <M>', "
                            f"got {lines[0]!r}") from None
    if tag != "wlot" or wavelet not in catalog_names():
        raise MalformedWlot(f"line 1: bad tag or unknown wavelet in {lines[0]!r}")
    try:  # a grid embed can sample, which also bounds the level count
        DistanceConfig(s=1.0, j0=j0, M=M, wavelet=wavelet)
    except InvalidConfig as e:
        raise MalformedWlot(f"line 1: {e}") from None
    L = len(build_wavelet_system(wavelet).g)
    # (offset, length) of each level's window, from j0 up
    windows = _zero_chain(0, 2 ** M, L, M)[:0:-1]
    coeffs, spans, cells = [{} for _ in range(M)], [None] * M, 0
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
        i = j - j0
        offset, length = windows[i]
        if not offset <= k < offset + length:
            raise MalformedWlot(f"line {line_no}: translation {k} outside "
                                f"[{offset}, {offset + length}) of level {j}")
        if k in coeffs[i]:
            raise MalformedWlot(f"line {line_no}: duplicate entry ({j}, {k})")
        old = spans[i] or (k, k - 1)
        spans[i] = (min(old[0], k), max(old[1], k))
        cells += (spans[i][1] - spans[i][0]) - (old[1] - old[0])
        if cells > _MAX_CELLS:
            raise MalformedWlot(f"line {line_no}: the levels span more than "
                                f"{_MAX_CELLS} translations")
        coeffs[i][k] = val
    levels = [(0, ())] * M
    for i, (level, span) in enumerate(zip(coeffs, spans)):
        if span is not None:
            values = np.zeros(span[1] - span[0] + 1)
            values[np.fromiter((k - span[0] for k in level), np.intp, len(level))] = \
                np.fromiter(level.values(), float, len(level))
            levels[i] = (span[0], values)
    return WlotVector(wavelet=wavelet, j0=j0, M=M, levels=levels)


def write_wlot(vec: WlotVector, path) -> None:
    with open(path, "w") as fh:
        fh.write(to_text(vec))


def read_wlot(path) -> WlotVector:
    with open(path) as fh:
        return from_text(fh.read())
