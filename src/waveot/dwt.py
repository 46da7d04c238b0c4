"""Decimated discrete wavelet transform and its inverse.

One analysis step maps the approximation vector A^j at level j to

    A^{j-1}_k = sum_l A^j_l g_{l-2k},    D^{j-1}_k = sum_l A^j_l h_{l-2k},

i.e. correlation with the filter followed by dyadic downsampling.  Two
boundary modes are provided:

* "zero": the vector is extended by zeros on both sides, so every output
  index k with at least one nonzero product is kept: for a length-N array
  whose first element sits at translation k0, k runs from
  ceil((k0 - L + 1) / 2) through floor((k0 + N - 1) / 2).  Each array,
  the input too, carries the absolute translation index of its first
  element, so coefficients from different signals stay aligned on one
  shared integer translation lattice.  All distance computations use this
  mode.
* "periodic": the vector wraps around; input length must be divisible by
  2 at each level and the transform is orthogonal (Parseval holds, and c01
  checks perfect reconstruction in it).  Every level sits at offset 0 with
  half its parent's length; each halving wraps the vector by L - 1 samples.

_chain alone fixes each level's (offset, length) window in either mode:
the transform writes its levels there, a pyramid derives its offsets and
the inverse its lengths from it, and the .wlot windows are its zero-mode
ones.  Each level is one strided slice of the vector convolved with the
reversed filter, from 2 * (output offset) + L - 1 - (input offset); the
inverse is one upsampled sum, folded onto one period in periodic mode.
"""

from collections.abc import Sized
from dataclasses import dataclass

import numpy as np

from .errors import (EmptyInput, InvalidConfig, InvalidLevels, ShapeMismatch, checked_instance,
                     checked_int, checked_reals)
from .filters import WaveletSystem

__all__ = ["CoefficientPyramid", "dwt_decompose", "dwt_reconstruct",
           "decompose_call_count"]

MODES = ("zero", "periodic")
_MAX_LEVELS = 2097  # most levels a DistanceConfig decomposes: M = 1074 - j0 at j0 = -1023

# Incremented once per dwt_decompose call; used by tests to assert the
# O(N) embedding economics.  Not synchronized across threads.
_DECOMPOSE_CALLS = 0


def decompose_call_count() -> int:
    """Total number of dwt_decompose calls made in this process."""
    return _DECOMPOSE_CALLS


@dataclass
class CoefficientPyramid:
    """Output of a multi-level DWT.

    details[i] holds the detail coefficients at level j0 + i; approx holds
    the approximation coefficients at level j0, in details[0]'s window.
    Offsets, the translation index of element 0 of each array, are derived
    by _chain from the mode, input geometry, filter length and level count.
    Each array dwt_decompose returns is contiguous and its own, not a view
    into the convolution it was cut from, so a pyramid holds only those.
    """

    j0: int
    approx: np.ndarray
    details: list
    mode: str
    input_length: int
    filter_length: int
    input_offset: int = 0

    @property
    def levels(self) -> int:
        return len(self.details)

    @property
    def detail_offsets(self) -> list:
        return [off for off, _ in _chain(self.mode, self.input_offset, self.input_length,
                                         self.filter_length, self.levels)[:0:-1]]

    @property
    def approx_offset(self) -> int:
        return self.detail_offsets[0]


def _chain(mode, k0, n, L, levels):
    """Per-level (offset, length) windows of the transform of a length-n
    vector at translation k0 in the given mode, entry 0 the input itself;
    the one check that refuses an unknown mode, and a periodic n that
    2^levels does not divide.  A zero-mode halving keeps every k with a
    nonzero product in sum_l x_l f_{l-2k}: the first is the one with
    l - 2k = L - 1 at l = k0 + parity."""
    if mode not in MODES:
        raise InvalidConfig(f"unknown mode {mode!r}")
    if mode == "periodic":
        if (n & -n) >> levels == 0:
            raise InvalidLevels("periodic mode requires length divisible by 2 at every level")
        return [(0, n >> i) for i in range(levels + 1)]
    chain = [(k0, n)]
    for _ in range(levels):
        parity = (L - 1 - k0) % 2
        k0, n = (k0 + parity - L + 1) // 2, (n + L - 2 - parity) // 2 + 1
        chain.append((k0, n))
    return chain


def dwt_decompose(x, system: WaveletSystem, num_levels: int,
                  mode: str = "zero", j_in: int = 0,
                  k_offset: int = 0) -> CoefficientPyramid:
    """Cascade num_levels analysis steps; the result has j0 = j_in - num_levels.

    x is read as the approximation vector at level j_in with its first
    element at translation index k_offset (zero mode only; periodic mode
    ignores offsets).
    """
    global _DECOMPOSE_CALLS
    num_levels = checked_int(num_levels, InvalidLevels,
                             f"num_levels must be a positive integer, got {num_levels}", lo=1)
    checked_int(num_levels, InvalidLevels,
                f"num_levels must be at most {_MAX_LEVELS}, got {num_levels}", hi=_MAX_LEVELS)
    j_in = checked_int(j_in, InvalidConfig, f"j_in must be an integer, got {j_in}")
    k_offset = checked_int(k_offset, InvalidConfig, f"k_offset must be an integer, got {k_offset}")
    x = checked_reals(x, EmptyInput, "input must be an array of real numbers")
    if x.ndim != 1 or x.size == 0:
        raise EmptyInput("input must be a nonempty 1-D array")
    checked_instance(system, WaveletSystem, InvalidConfig)
    g, h = system.g, system.h
    L = len(g)
    chain = _chain(mode, k_offset, len(x), L, num_levels)
    _DECOMPOSE_CALLS += 1  # only a transform _chain accepted counts
    details = []
    for (k0, n), (off, length) in zip(chain, chain[1:]):
        if mode == "periodic":  # the zero-mode step on x wrapped by L - 1 samples
            x = np.resize(x, n + L - 1)
        # x[i] sits at translation k0 + i, so sum_l x_l f_{l-2k} is entry
        # 2 (k - off) + start of x convolved with the reversed filter; the
        # copy keeps the level alone, not the whole convolution behind it
        start = 2 * off + L - 1 - k0
        d, x = [np.convolve(x, f[::-1])[start: start + 2 * length: 2].copy() for f in (h, g)]
        details.append(d)
    return CoefficientPyramid(
        j0=j_in - num_levels,
        approx=x,
        details=details[::-1],
        mode=mode,
        input_length=chain[0][1],
        filter_length=L,
        input_offset=k_offset,
    )


def dwt_reconstruct(pyramid: CoefficientPyramid, system: WaveletSystem) -> np.ndarray:
    """Invert dwt_decompose in the pyramid's own mode and geometry, its
    filter length too; exact up to roundoff for both modes."""
    mode = checked_instance(pyramid, CoefficientPyramid, ShapeMismatch).mode
    g, h = checked_instance(system, WaveletSystem, InvalidConfig).g, system.h
    details, a = pyramid.details, pyramid.approx
    a = a if a is None else checked_reals(a, ShapeMismatch, "approximation must be real numbers")
    levels = len(details) if isinstance(details, Sized) else 0  # details=5 has no levels
    if levels == 0 or a is None or a.size == 0:
        raise ShapeMismatch("pyramid has no detail levels or empty approximation")
    if levels > _MAX_LEVELS:
        raise ShapeMismatch(f"pyramid has {levels} detail levels, at most {_MAX_LEVELS} allowed")

    k0 = checked_int(pyramid.input_offset, ShapeMismatch, "input offset is not an integer")
    n = checked_int(pyramid.input_length, ShapeMismatch, "input length is not an integer > 0", 1)
    j0 = checked_int(pyramid.j0, ShapeMismatch, "j0 is not an integer")
    L = checked_int(pyramid.filter_length, ShapeMismatch, f"pyramid's filter length "
                    f"{pyramid.filter_length!r} is not the system's {len(g)}", len(g), len(g))
    chain = _chain(mode, k0, n, L, levels)
    if a.shape != (chain[levels][1],):
        raise ShapeMismatch("approximation array inconsistent with input geometry")
    for i, d in enumerate(details):
        d = checked_reals(d, ShapeMismatch, "detail levels must be real numbers")
        (off, length), (parent_off, parent_len) = chain[levels - i], chain[levels - i - 1]
        if d.shape != (length,):
            raise ShapeMismatch(f"detail level {j0 + i}: expected length {length} at "
                                f"offset {off}, got {len(d) if d.ndim == 1 else d.shape}")
        # rec[t] = sum_k a_k g_{t-2k} + d_k h_{t-2k} for t = 0 ... 2 len(a) + L - 3
        up = np.zeros((2, 2 * len(a) - 1))
        up[0, ::2], up[1, ::2] = a, d
        rec = np.convolve(up[0], g) + np.convolve(up[1], h)
        if mode == "zero":
            # rec[t] sits at translation 2 * off + t; it starts L - 2 or
            # L - 1 cells before the parent window and ends no earlier
            a = rec[parent_off - 2 * off:][:parent_len]
        else:  # fold onto one period
            a = np.bincount(np.arange(len(rec)) % parent_len, rec, parent_len)
    return a
