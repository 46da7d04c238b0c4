"""Decimated discrete wavelet transform and its inverse.

One analysis step maps the approximation vector A^j at level j to

    A^{j-1}_k = sum_l A^j_l g_{l-2k},    D^{j-1}_k = sum_l A^j_l h_{l-2k},

i.e. correlation with the filter followed by dyadic downsampling.  Two
boundary modes are provided:

* "zero": the vector is extended by zeros on both sides, so every output
  index k with at least one nonzero product is kept.  A halving of a
  length-N array at an even translation offset yields
  floor((N + L - 1) / 2) coefficients (one more when the offset is odd,
  which happens below the first level for filters with L/2 odd); each
  array carries the absolute translation index of its first element, so
  coefficients from different signals stay aligned on one shared integer
  translation lattice.  All distance computations use this mode.
* "periodic": the vector wraps around; input length must be divisible by
  2 at each level and the transform is orthogonal (used for Parseval
  checks only).

Coefficient arrays keep absolute translation offsets so that entries can
be mapped back to grid positions after any number of halvings, which also
permits callers to pass inputs whose first element sits at a nonzero
translation index.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidConfig, InvalidLevels, ShapeMismatch, checked_int
from .filters import WaveletSystem

__all__ = ["CoefficientPyramid", "dwt_decompose", "dwt_reconstruct",
           "decompose_call_count"]

MODES = ("zero", "periodic")

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
    the approximation coefficients at level j0.  Offsets record the
    absolute translation index of element 0 of each array.
    """

    j0: int
    approx: np.ndarray
    approx_offset: int
    details: list
    detail_offsets: list
    mode: str
    input_length: int
    input_offset: int = 0

    @property
    def levels(self) -> int:
        return len(self.details)


def _zero_step_geometry(k0, n, L):
    """(offset, length) of one zero-mode halving of a length-n vector
    whose first element has absolute translation index k0."""
    n_start = (L - 1 - k0) % 2
    out_off = (n_start - L + 1 + k0) // 2
    out_len = (n + L - 2 - n_start) // 2 + 1
    return out_off, out_len


def _zero_chain(k0, n, L, levels):
    """Per-level (offset, length) from the input down to the coarsest
    approximation; entry 0 is the input itself."""
    chain = [(k0, n)]
    for _ in range(levels):
        k0, n = _zero_step_geometry(k0, n, L)
        chain.append((k0, n))
    return chain


def _analyze_zero(x, k0, filt):
    L = len(filt)
    c = np.convolve(x, filt[::-1])
    n_start = (L - 1 - k0) % 2
    return c[n_start::2]


def _analyze_periodic(x, filt):
    L = len(filt)
    n = len(x)
    reps = (n + L - 1 + n - 1) // n  # wrap enough copies for short signals
    xe = np.tile(x, reps)[: n + L - 1]
    return np.convolve(xe, filt[::-1], mode="valid")[::2]


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
    j_in = checked_int(j_in, InvalidConfig, f"j_in must be an integer, got {j_in}")
    k_offset = checked_int(k_offset, InvalidConfig, f"k_offset must be an integer, got {k_offset}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise EmptyInput("input must be a nonempty 1-D array")
    if mode not in MODES:
        raise InvalidConfig(f"unknown mode {mode!r}")
    _DECOMPOSE_CALLS += 1

    g, h = system.g, system.h
    input_length = len(x)
    details = []
    offsets = []
    off = k_offset
    for _ in range(num_levels):
        if mode == "zero":
            d = _analyze_zero(x, off, h)
            a = _analyze_zero(x, off, g)
            off, _ = _zero_step_geometry(off, len(x), len(g))
        else:
            if len(x) % 2 != 0:
                raise InvalidLevels(
                    "periodic mode requires length divisible by 2 at every level")
            d = _analyze_periodic(x, h)
            a = _analyze_periodic(x, g)
            off = 0
        details.append(d)
        offsets.append(off)
        x = a
    details.reverse()
    offsets.reverse()
    return CoefficientPyramid(
        j0=j_in - num_levels,
        approx=x,
        approx_offset=off,
        details=details,
        detail_offsets=offsets,
        mode=mode,
        input_length=input_length,
        input_offset=k_offset,
    )


def _synthesize_zero(a, d, off, g, h, parent_off, parent_len):
    n = len(a)
    au = np.zeros(2 * n - 1)
    au[::2] = a
    du = np.zeros(2 * n - 1)
    du[::2] = d
    rec = np.convolve(au, g) + np.convolve(du, h)
    # rec[t] sits at absolute translation 2*off + t; the parent window is
    # [parent_off, parent_off + parent_len); anything outside is exactly 0.
    out = np.zeros(parent_len)
    lo = max(parent_off, 2 * off)
    hi = min(parent_off + parent_len, 2 * off + len(rec))
    if lo < hi:
        out[lo - parent_off: hi - parent_off] = rec[lo - 2 * off: hi - 2 * off]
    return out


def _synthesize_periodic(a, d, g, h):
    n = len(a)
    N = 2 * n
    au = np.zeros(N)
    au[::2] = a
    du = np.zeros(N)
    du[::2] = d
    rec = np.convolve(au, g) + np.convolve(du, h)
    out = np.zeros(N)
    for start in range(0, len(rec), N):
        seg = rec[start: start + N]
        out[: len(seg)] += seg
    return out


def dwt_reconstruct(pyramid: CoefficientPyramid, system: WaveletSystem) -> np.ndarray:
    """Invert dwt_decompose in the pyramid's own mode; exact up to roundoff
    for both modes."""
    mode = pyramid.mode
    if mode not in MODES:
        raise InvalidConfig(f"unknown mode {mode!r}")
    levels = pyramid.levels
    if levels == 0 or pyramid.approx is None or len(pyramid.approx) == 0:
        raise ShapeMismatch("pyramid has no detail levels or empty approximation")

    g, h = system.g, system.h
    L = len(g)
    a = np.asarray(pyramid.approx, dtype=float)

    if mode == "zero":
        chain = _zero_chain(pyramid.input_offset, pyramid.input_length, L, levels)
        if len(a) != chain[levels][1] or pyramid.approx_offset != chain[levels][0]:
            raise ShapeMismatch("approximation array inconsistent with input geometry")
        for i, d in enumerate(pyramid.details):
            expect_off, expect_len = chain[levels - i]
            if len(d) != expect_len or pyramid.detail_offsets[i] != expect_off:
                raise ShapeMismatch(
                    f"detail level {pyramid.j0 + i}: expected length {expect_len} "
                    f"at offset {expect_off}, got {len(d)} at "
                    f"{pyramid.detail_offsets[i]}")
            parent_off, parent_len = chain[levels - i - 1]
            a = _synthesize_zero(a, np.asarray(d, dtype=float),
                                 expect_off, g, h, parent_off, parent_len)
        return a

    for i, d in enumerate(pyramid.details):
        d = np.asarray(d, dtype=float)
        if len(d) != len(a):
            raise ShapeMismatch(
                f"detail level {pyramid.j0 + i}: length {len(d)} != {len(a)}")
        a = _synthesize_periodic(a, d, g, h)
    return a
