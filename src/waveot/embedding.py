"""Embedding of densities as per-level detail-coefficient arrays.

A density maps to the detail coefficients of its own DWT, levels j0
through j0 + M - 1, stored as one (offset, array) pair per level: the
array holds the coefficients of consecutive translations, the offset is
the absolute translation of its first element.  These are the detail
levels the distance module's coefficient path gives the density, each
trimmed to its nonzero span.  wlot_distance and wlot_distance_matrix hand
them to distance._pairwise, the one routine that forms wavelet_distance's
level differences and weighted l1 sum.  So the metric on these vectors
reproduces the "new" wavelet distance (to rounding, as the approximation
level is left out and the sums are grouped in other blocks), and all
pairwise distances among N measures cost N transforms instead of two for
each of the N(N-1)/2 pairs.

Vectors serialize to a line-based text format: a header line
``wlot <wavelet> <j0> <M>`` followed by ``j k value`` triples of the
nonzero coefficients, sorted by level and translation, with
17-significant-digit values (bit-exact round trips for finite doubles).
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

# embed reaches sample_for_dwt and dwt_decompose through _coefficients, but
# both stay importable here: perfbench/tracer.py wraps this import site
from .densities import Density, _nonzero_span, sample_for_dwt
from .distance import (_MAX_CELLS, DistanceConfig, _coefficients, _each_measure,
                       _levels_and_weights, _pairwise)
from .dwt import _chain, dwt_decompose
from .errors import (ConfigMismatch, InvalidConfig, InvalidGrid, MalformedWlot, ShapeMismatch,
                     UnknownWavelet, checked_instance, checked_int, checked_reals)
from .filters import build_wavelet_system

__all__ = ["WlotVector", "embed", "wlot_distance", "wlot_distance_matrix",
           "prune", "write_wlot", "read_wlot", "to_text", "from_text"]


def _grid(wavelet, j0, M):
    """(wavelet as build_wavelet_system spells it, int j0, int M, each level's
    (first, length) window over the whole domain), or a WaveotError."""
    system, cfg = build_wavelet_system(wavelet), DistanceConfig(s=1.0, j0=j0, M=M)
    return system.name, cfg.j0, cfg.M, _chain("zero", 0, 2 ** cfg.M, len(system.g), cfg.M)[:0:-1]


def _entry_error(windows, j0, j, k, value):
    """Why value cannot sit at (j, k) in a vector of _grid windows, or None."""
    if not math.isfinite(value):
        return f"non-finite value {value}"
    if not j0 <= j < j0 + len(windows):
        return f"level {j} outside [{j0}, {j0 + len(windows)})"
    first, length = windows[j - j0]
    if not first <= k < first + length:
        return f"translation {k} outside [{first}, {first + length}) of level {j}"


@dataclass(frozen=True, eq=False)
class WlotVector:
    """Detail-coefficient vector of one embedded density.

    levels[i] is the (offset, array) pair of level j0 + i: array[t] is the
    coefficient at translation offset + t, and every coefficient outside
    the array is zero.  Each array is trimmed to its first and last
    nonzero (an all-zero level is (0, empty)) and read-only, so equal
    vectors have equal levels.  No magnitude threshold is applied at embed
    time, so distances on embedded vectors are exact.  A WaveotError
    refuses any vector from_text would not read back (see _grid and
    _entry_error); the wavelet is kept as build_wavelet_system spells it.
    """

    wavelet: str
    j0: int
    M: int
    levels: tuple

    def __post_init__(self):
        wavelet, j0, M, windows = _grid(self.wavelet, self.j0, self.M)
        if not np.iterable(self.levels):
            raise ShapeMismatch(f"levels must be a sequence of {M} levels, got {self.levels!r}")
        levels, trimmed = tuple(self.levels), []
        if len(levels) != M:
            raise ShapeMismatch(f"{len(levels)} levels for M = {M}")
        for j, level in enumerate(levels, start=j0):
            try:
                offset, values = level
            except (TypeError, ValueError):
                values = None  # not real values either
            values = checked_reals(values, ShapeMismatch,
                                   f"level {j}: not an (offset, real values) pair")
            offset = checked_int(offset, ShapeMismatch, f"level {j}: bad offset {offset!r}")
            if values.ndim != 1:
                raise ShapeMismatch(f"level {j}: {values.ndim}-D values, not 1-D")
            start, stop = _nonzero_span(values)
            # a copy, so the caller's arrays cannot change the vector
            values = values[start:stop].copy() if stop else np.empty(0)
            values.setflags(write=False)
            # the first non-finite value, or the first if all are finite, and the last
            for t in (int(np.isfinite(values).argmin()), len(values) - 1) if stop else ():
                if reason := _entry_error(windows, j0, j, offset + start + t, values.item(t)):
                    raise ShapeMismatch(f"level {j}: {reason}")
            trimmed.append((offset + start if stop else 0, values))
        if (cells := sum(len(values) for _, values in trimmed)) > _MAX_CELLS:
            raise InvalidGrid(f"the levels hold {cells} cells, more than {_MAX_CELLS}")
        for name, value in zip(("wavelet", "j0", "M", "levels"), (wavelet, j0, M, tuple(trimmed))):
            object.__setattr__(self, name, value)

    @property
    def fingerprint(self):
        return (self.wavelet, self.j0, self.M)

    def _nonzeros(self):
        """(j, offset, positions, values) of each level's nonzeros, the last two as lists."""
        for j, (offset, values) in enumerate(self.levels, start=self.j0):
            nz = np.flatnonzero(values)
            yield j, offset, nz.tolist(), values[nz].tolist()

    @cached_property
    def entries(self):
        """Read-only {(j, k): value} of the nonzero coefficients, built on
        first access and kept; the package itself works on the arrays."""
        return MappingProxyType({(j, offset + t): value for j, offset, ts, values
                                 in self._nonzeros() for t, value in zip(ts, values)})

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


def _embedding_config(cfg):
    """cfg, refused with InvalidConfig unless it is a "new" DistanceConfig."""
    if checked_instance(cfg, DistanceConfig, InvalidConfig).formulation != "new":
        raise InvalidConfig(
            f"only the 'new' formulation embeds, got {cfg.formulation!r}")
    return cfg


def embed(p: Density, cfg: DistanceConfig) -> WlotVector:
    """Detail coefficients of p itself (not a difference) under the
    config's sampling grid and wavelet.

    Sampling is the same as in the distance pipeline, so wlot_distance on
    embedded vectors matches distance_new exactly (the transform is linear
    in the samples).  Only the "new" formulation embeds this way, so any
    other config is refused."""
    levels = _coefficients(p, _embedding_config(cfg), cfg.M)[1:]
    return WlotVector(wavelet=cfg.wavelet, j0=cfg.j0, M=cfg.M, levels=levels)


def wlot_distance(u: WlotVector, v: WlotVector, s: float) -> float:
    """Weighted l1 distance sum_{j,k} 2^(-j(s+1/2)) |u_{j,k} - v_{j,k}|."""
    for vec in (u, v):
        checked_instance(vec, WlotVector, ShapeMismatch)
    if u.fingerprint != v.fingerprint:
        raise ConfigMismatch(
            f"incompatible embeddings: {u.fingerprint} vs {v.fingerprint}")
    weights = _levels_and_weights(DistanceConfig(s=s, j0=u.j0, M=u.M))[1][1:]
    return float(_pairwise([u.levels, v.levels], weights)[0, 1])


def wlot_distance_matrix(ps, cfg: DistanceConfig) -> np.ndarray:
    """All pairwise distances among N densities: N embeddings, then one
    distance._pairwise call over their levels, whose sums run in another
    order than wlot_distance's, so the two agree to rounding, not bit for
    bit.  A config embed refuses is refused before any embed, even for no
    measures; ps may be any iterable, and more than _MAX_CELLS cells of
    N x N are refused before the first embed, and of N x K before any is
    filled; a failed embed is re-raised naming its measure."""
    weights = _levels_and_weights(_embedding_config(cfg))[1][1:]
    vecs = _each_measure(ps, lambda p: embed(p, cfg), _MAX_CELLS)
    return _pairwise([vec.levels for vec in vecs], weights, _MAX_CELLS)


def prune(vec: WlotVector, eps: float) -> WlotVector:
    """Drop entries below magnitude eps, a real number (lossy; for storage only)."""
    checked_instance(vec, WlotVector, ShapeMismatch)
    if not isinstance(eps, numbers.Real) or math.isnan(eps):
        raise InvalidConfig(f"eps must be a real number, got {eps!r}")
    levels = [(offset, np.where(np.abs(values) >= eps, values, 0.0))
              for offset, values in vec.levels]
    return WlotVector(wavelet=vec.wavelet, j0=vec.j0, M=vec.M, levels=levels)


def to_text(vec: WlotVector) -> str:
    checked_instance(vec, WlotVector, ShapeMismatch)
    lines = [f"wlot {vec.wavelet} {vec.j0} {vec.M}"]
    for j, offset, ts, values in vec._nonzeros():  # not entries, which would stay cached
        lines.extend(f"{j} {offset + t} {val:.17g}" for t, val in zip(ts, values))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> WlotVector:
    """Parse the output of to_text, a str; MalformedWlot refuses any other
    text, names the first line that breaks the format or WlotVector's
    rules, and refuses levels that span more than _MAX_CELLS translations
    before laying any out.  Lines may come in any order.  A line whose
    value is 0.0 is dropped, as every coefficient not listed is zero:
    entries, len() and to_text omit it."""
    lines = checked_instance(text, str, MalformedWlot).removesuffix("\n").split("\n")
    try:  # a bad tag reads as an unknown wavelet
        tag, wavelet, j0, M = lines[0].split()
        wavelet, j0, M, windows = _grid(wavelet if tag == "wlot" else None, int(j0), int(M))
    except UnknownWavelet:
        raise MalformedWlot(f"line 1: bad tag or unknown wavelet in {lines[0]!r}") from None
    except InvalidConfig as e:  # a ValueError, so caught before one
        raise MalformedWlot(f"line 1: {e}") from None
    except ValueError:
        raise MalformedWlot(f"line 1: expected 'wlot <wavelet> <j0> <M>', "
                            f"got {lines[0]!r}") from None
    coeffs, spans, cells = [{} for _ in range(M)], [None] * M, 0
    for line_no, line in enumerate(lines[1:], start=2):
        try:
            j, k, val = line.split()
            j, k, val = int(j), int(k), float(val)
        except ValueError:
            raise MalformedWlot(
                f"line {line_no}: expected 'j k value', got {line!r}") from None
        if reason := _entry_error(windows, j0, j, k, val):
            raise MalformedWlot(f"line {line_no}: {reason}")
        i = j - j0
        if k in coeffs[i]:
            raise MalformedWlot(f"line {line_no}: duplicate entry ({j}, {k})")
        old = spans[i] or (k, k - 1)
        spans[i] = (min(old[0], k), max(old[1], k))
        cells += (spans[i][1] - spans[i][0]) - (old[1] - old[0])
        if cells > _MAX_CELLS:
            raise MalformedWlot(f"line {line_no}: the levels span more than "
                                f"{_MAX_CELLS} translations")
        coeffs[i][k] = val
    levels = [(span[0], np.zeros(span[1] - span[0] + 1)) if span else (0, np.zeros(0))
              for span in spans]
    for (first, values), level in zip(levels, coeffs):
        values[np.fromiter((k - first for k in level), np.intp, len(level))] = \
            np.fromiter(level.values(), float, len(level))
    return WlotVector(wavelet=wavelet, j0=j0, M=M, levels=levels)


def write_wlot(vec: WlotVector, path) -> None:
    text = to_text(vec)  # before open, so a refused vector leaves path as it was
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_wlot(path) -> WlotVector:
    # a byte that is not UTF-8 reads as a lone surrogate, which no token parses as
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return from_text(fh.read())
