"""Orthonormal wavelet filter banks.

Each catalog entry is a compactly supported orthonormal system determined
by its low-pass (scaling) filter g of even length L; the high-pass filter
follows from the quadrature-mirror relation h_k = (-1)^k g_{L-1-k}.  The
scaling and wavelet functions are both supported on [0, L-1].

The Daubechies coefficient tables are embedded (see waveot/_db_tables.py,
regenerated by tools/make_daubechies_tables.py).  The catalog's systems
are built once, when this module is imported, so each is checked against
the defining filter identities once; build_wavelet_system hands out the
one shared, immutable system for a name.
"""

from dataclasses import dataclass, field

import numpy as np

from ._db_tables import DB_SCALING_FILTERS
from .errors import InvalidConfig, UnknownWavelet, checked_reals, shown

__all__ = ["WaveletSystem", "build_wavelet_system", "catalog_names"]

_IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class WaveletSystem:
    """A named orthonormal filter pair (g, h), built from g alone.

    Immutable after construction and safe to share across threads.

    Attributes:
        name: catalog identifier.
        g: low-pass (scaling) filter, length L, sum sqrt(2).
        h: high-pass (wavelet) filter, g's quadrature mirror, sum 0.
        support_length: L - 1, the length of supp(phi) = supp(psi) in
            units of the integer translation.
    """

    name: str
    g: np.ndarray
    h: np.ndarray = field(init=False)
    support_length: int = field(init=False)

    def __post_init__(self):
        message = f"{self.name}: filters must be 1-D arrays of real numbers"
        g = checked_reals(self.g, InvalidConfig, message)
        if g.ndim != 1:
            raise InvalidConfig(message)
        name, L = self.name, len(g)
        if L % 2 != 0:
            raise InvalidConfig(f"{name}: filters must share an even length, got {L}")
        h = ((-1.0) ** np.arange(L)) * g[::-1]
        # Python float sums: taps of infinite opposite signs sum to nan without a numpy warning
        if not abs(sum(g.tolist()) - np.sqrt(2.0)) <= _IDENTITY_TOL:
            raise InvalidConfig(f"{name}: low-pass sum is not sqrt(2)")
        if not abs(sum(h.tolist())) <= _IDENTITY_TOL:
            raise InvalidConfig(f"{name}: high-pass sum is not 0")
        for m in range(1, L // 2):
            if not abs(np.dot(g[: L - 2 * m], g[2 * m :])) <= _IDENTITY_TOL:
                raise InvalidConfig(f"{name}: shift-orthogonality fails at lag {2 * m}")
        if not abs(np.dot(g, g) - 1.0) <= _IDENTITY_TOL:
            raise InvalidConfig(f"{name}: low-pass norm is not 1")
        g.flags.writeable = h.flags.writeable = False
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "support_length", L - 1)


_CATALOG = {p: WaveletSystem("haar" if p == 1 else f"db{p}", g)
            for p, g in sorted(DB_SCALING_FILTERS.items())}


def catalog_names():
    """Names of all available wavelet systems ('haar', 'db2', ..., 'db20')."""
    return [system.name for system in _CATALOG.values()]


def build_wavelet_system(name: str) -> WaveletSystem:
    """The catalog's system for name, the one built at import: every
    caller and every spelling of a name gets the same object.

    Accepts 'haar' (alias 'db1') and 'db2' through 'db20', in any case and
    with surrounding blanks, and names the system as catalog_names spells
    it.  Raises UnknownWavelet for anything else, a name that is not a str
    too.
    """
    key = name.strip().lower() if isinstance(name, str) else ""
    try:
        p = 1 if key == "haar" else int(key[2:]) if key.startswith("db") else 0
        return _CATALOG[p]
    except (KeyError, ValueError):
        raise UnknownWavelet(shown(name)) from None
