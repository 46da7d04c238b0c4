"""Orthonormal wavelet filter banks.

Each catalog entry is a compactly supported orthonormal system determined
by its low-pass (scaling) filter g of even length L; the high-pass filter
follows from the quadrature-mirror relation h_k = (-1)^k g_{L-1-k}.  The
scaling and wavelet functions are both supported on [0, L-1].

The Daubechies coefficient tables are embedded (see waveot/_db_tables.py,
regenerated by tools/make_daubechies_tables.py) and every entry is checked
against the defining filter identities when the system is built.
"""

from dataclasses import dataclass, field

import numpy as np

from ._db_tables import DB_SCALING_FILTERS
from .errors import InvalidConfig, UnknownWavelet

__all__ = ["WaveletSystem", "build_wavelet_system", "catalog_names"]

_IDENTITY_TOL = 1e-12


def catalog_names():
    """Names of all available wavelet systems ('haar', 'db2', ..., 'db20')."""
    return ["haar"] + [f"db{p}" for p in sorted(DB_SCALING_FILTERS) if p > 1]


@dataclass(frozen=True)
class WaveletSystem:
    """A named orthonormal filter pair (g, h).

    Immutable after construction and safe to share across threads.

    Attributes:
        name: catalog identifier.
        g: low-pass (scaling) filter, length L, sum sqrt(2).
        h: high-pass (wavelet) filter, length L, sum 0.
        support_length: L - 1, the length of supp(phi) = supp(psi) in
            units of the integer translation.
    """

    name: str
    g: np.ndarray
    h: np.ndarray
    support_length: int = field(init=False)

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        h = np.asarray(self.h, dtype=float)
        g.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "support_length", len(g) - 1)
        _validate_filters(self.name, g, h)

    def __len__(self):
        return len(self.g)


def _validate_filters(name, g, h):
    L = len(g)
    if L % 2 != 0 or L != len(h):
        raise InvalidConfig(f"{name}: filters must share an even length, got {L}")
    if abs(g.sum() - np.sqrt(2.0)) > _IDENTITY_TOL:
        raise InvalidConfig(f"{name}: low-pass sum is not sqrt(2)")
    if abs(h.sum()) > _IDENTITY_TOL:
        raise InvalidConfig(f"{name}: high-pass sum is not 0")
    for m in range(1, L // 2):
        if abs(np.dot(g[: L - 2 * m], g[2 * m :])) > _IDENTITY_TOL:
            raise InvalidConfig(f"{name}: shift-orthogonality fails at lag {2 * m}")
    if abs(np.dot(g, g) - 1.0) > _IDENTITY_TOL:
        raise InvalidConfig(f"{name}: low-pass norm is not 1")
    qmf = ((-1.0) ** np.arange(L)) * g[::-1]
    if np.max(np.abs(h - qmf)) > _IDENTITY_TOL:
        raise InvalidConfig(f"{name}: quadrature-mirror relation fails")


def build_wavelet_system(name: str) -> WaveletSystem:
    """Look up a catalog wavelet by name.

    Accepts 'haar' (alias 'db1') and 'db2' through 'db20'.  Raises
    UnknownWavelet for anything else.
    """
    key = name.strip().lower()
    if key == "haar":
        p = 1
    elif key.startswith("db"):
        try:
            p = int(key[2:])
        except ValueError:
            raise UnknownWavelet(name) from None
    else:
        raise UnknownWavelet(name)
    if p not in DB_SCALING_FILTERS:
        raise UnknownWavelet(name)
    g = np.array(DB_SCALING_FILTERS[p], dtype=float)
    h = ((-1.0) ** np.arange(len(g))) * g[::-1]
    return WaveletSystem(name=key, g=g, h=h)
