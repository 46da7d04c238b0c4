"""Reproduction of the translation/dilation benchmark sweeps.

Each simulation family compares a base density against a one-parameter
family of transforms of itself: translates of the uniform density on
[0, 1], dilations of the uniform density on [1, 2] about 3/2, and the
same two sweeps for the smooth bump density.  For every (parameter, s)
pair the configured wavelet distance and the exact solver value on a
shared uniform grid over [0, 3] are recorded, and a least-squares
normalization constant is fitted per s group.
"""

import math
from dataclasses import astuple, dataclass, fields, replace
from functools import cache, partial

import numpy as np

from .densities import (_MAX_SAMPLE_POINTS, bump_density, dilate, discretize, translate,
                        uniform_density)
from .distance import _C0_DIAMETER, DistanceConfig, wavelet_distance
from .errors import (DegenerateFit, InvalidConfig, add_context, checked_instance, checked_int,
                     checked_interval)
from .exact import exact_ws

__all__ = ["SimulationSpec", "SimulationRow", "run_simulation",
           "fit_normalization", "emit_csv", "FAMILIES",
           "EXACT_DOMAIN", "CSV_HEADER"]

EXACT_DOMAIN = (0.0, _C0_DIAMETER)

# most parameters in one sweep: each costs a wavelet distance and an exact
# solve for every s, 10 to 20 ms together at the CLI defaults, so 10^5 of
# them over the three default exponents already run for over an hour;
# larger counts are refused before np.linspace allocates them
_MAX_COUNT = 100_000


@cache
def _base(shape, lo):
    """The uniform or bump density on [lo, lo + 1], built and mass-checked
    once per process.  Densities are immutable, so a family's transforms
    share their base; each transform still runs its own mass check."""
    if shape == "uniform":
        return uniform_density(lo, lo + 1.0)
    return bump_density(lo + 0.5, 0.5)


def _transform(shape, lo, move, t):
    """The base on [lo, lo + 1], translated by t or dilated by t about its centre."""
    if move == "translate":
        return translate(_base(shape, lo), t)
    return dilate(_base(shape, lo), t, lo + 0.5)


FAMILIES = {
    "uniform_translate": (partial(_base, "uniform", 0.0),
                          partial(_transform, "uniform", 0.0, "translate"), (0.0, 2.0)),
    "uniform_dilate": (partial(_base, "uniform", 1.0),
                       partial(_transform, "uniform", 1.0, "dilate"), (0.5, 1.5)),
    "bump_translate": (partial(_base, "bump", 0.0),
                       partial(_transform, "bump", 0.0, "translate"), (0.0, 2.0)),
    "bump_dilate": (partial(_base, "bump", 1.0),
                    partial(_transform, "bump", 1.0, "dilate"), (0.5, 1.5)),
}


@dataclass(frozen=True)
class SimulationSpec:
    """One benchmark sweep.

    cfg acts as a template whose s is replaced by each entry of s_values;
    an unset C0 then takes the formulation's default for each s.
    """

    family: str
    cfg: DistanceConfig
    s_values: tuple = (1.0, 0.5, 0.25)
    count: int = 20
    param_range: tuple = None
    exact_grid_points: int = 1000

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in FAMILIES:
            raise InvalidConfig(f"unknown family {self.family!r}; "
                                f"choose from {sorted(FAMILIES)}")
        # integral floats pass; np.linspace and discretize need ints
        object.__setattr__(self, "count", checked_int(
            self.count, InvalidConfig,
            f"count must lie in [2, {_MAX_COUNT}], got {self.count}", 2, _MAX_COUNT))
        # discretize's bound, checked here before any density is built
        object.__setattr__(self, "exact_grid_points", checked_int(
            self.exact_grid_points, InvalidConfig,
            f"exact_grid_points: need 2 to {_MAX_SAMPLE_POINTS} grid points, "
            f"got {self.exact_grid_points}", 2, _MAX_SAMPLE_POINTS))
        try:  # a str is one value; tuple() would split "0.5" into "0", ".", "5"
            s_values = () if isinstance(self.s_values, str) else tuple(self.s_values)
        except TypeError:
            s_values = ()
        if not s_values:
            raise InvalidConfig(f"s_values must be a sequence of at least one exponent, "
                                f"got {self.s_values!r}")
        checked_instance(self.cfg, DistanceConfig, InvalidConfig)
        for s in s_values:  # DistanceConfig refuses a bad exponent
            replace(self.cfg, s=s)
        object.__setattr__(self, "s_values", s_values)
        if self.param_range is not None:
            checked_interval(self.param_range, InvalidConfig,
                             f"invalid param_range {self.param_range}")

    def params(self):
        lo, hi = FAMILIES[self.family][2] if self.param_range is None else self.param_range
        return np.linspace(lo, hi, self.count)


@dataclass(frozen=True)
class SimulationRow:
    """One plotted point: a (parameter, s) cell of a sweep."""

    family: str
    formulation: str
    wavelet: str
    s: float
    j0: int
    M: int
    param: float
    wavelet_value: float
    exact_value: float
    norm_constant: float
    normalized_value: float


CSV_HEADER = ",".join(f.name for f in fields(SimulationRow))


def fit_normalization(rows) -> float:
    """Least-squares constant c minimizing sum (c*wavelet - exact)^2 over
    the rows with param in the top 90% of the parameter range; DegenerateFit
    refuses a non-finite param, a non-finite value in that window, a window
    whose wavelet values are all zero, or a constant past the double range."""
    if not np.iterable(rows):
        raise DegenerateFit(f"rows must be an iterable of SimulationRow, got {rows!r}")
    rows = [checked_instance(r, SimulationRow, DegenerateFit) for r in rows]
    if not rows:
        raise DegenerateFit("no rows to fit")
    p, w, e = np.array([(r.param, r.wavelet_value, r.exact_value) for r in rows], dtype=float).T
    if not np.all(np.isfinite(p)):
        raise DegenerateFit("the params must be finite")
    # both distances vanish at the identity transform, where the ratio is
    # ill-conditioned; keep only the top 90% of the parameter range
    m = p >= p.min() + 0.1 * (p.max() - p.min())
    if not np.isfinite([w[m], e[m]]).all():
        raise DegenerateFit("the values in the fit window must be finite")
    # each side over a power of two near its largest |value|: exact, so c keeps
    # its bits, yet the sums neither overflow at 1e200 nor underflow at 1e-200
    kw, ke = (math.frexp(np.max(np.abs(v[m])))[1] for v in (w, e))
    w, e = np.ldexp(w[m], -kw), np.ldexp(e[m], -ke)
    denom = float(np.sum(w ** 2))
    if denom <= 0.0:
        raise DegenerateFit("all wavelet distances in the fit window are zero")
    try:
        return math.ldexp(float(np.sum(w * e) / denom), ke - kw)
    except OverflowError:  # exact values of 1e300 against wavelet values of 1e-300
        raise DegenerateFit("the least-squares constant overflows a double") from None


def run_simulation(spec: SimulationSpec):
    """Compute all rows of a sweep, ordered by (s group, ascending param),
    each s group with its own fit_normalization constant.

    Deterministic: identical specs produce identical rows.
    """
    checked_instance(spec, SimulationSpec, InvalidConfig)
    base_fn, transform, _ = FAMILIES[spec.family]
    base = base_fn()
    params = spec.params()
    transformed = [transform(float(t)) for t in params]
    mu0 = discretize(base, spec.exact_grid_points, domain=EXACT_DOMAIN)

    rows = []
    for s in spec.s_values:
        cfg = replace(spec.cfg, s=s)
        group = []
        for t, d in zip(params, transformed):
            with add_context(f"family {spec.family}, s={s}, param={t}"):
                wval = wavelet_distance(base, d, cfg)
                nu = discretize(d, spec.exact_grid_points, domain=EXACT_DOMAIN)
                eval_, _ = exact_ws(mu0, nu, s)
            group.append(SimulationRow(
                family=spec.family, formulation=cfg.formulation, wavelet=cfg.wavelet, s=s,
                j0=cfg.j0, M=cfg.M, param=float(t), wavelet_value=wval, exact_value=eval_,
                norm_constant=0.0, normalized_value=0.0))
        c = fit_normalization(group)
        rows.extend(replace(r, norm_constant=c, normalized_value=c * r.wavelet_value)
                    for r in group)
    return rows


def emit_csv(rows, path) -> None:
    """Write rows in input order, one column per SimulationRow field,
    numbers as %.12g; identical rows give identical bytes."""
    lines = [CSV_HEADER]
    for r in rows:
        values = astuple(checked_instance(r, SimulationRow, InvalidConfig))
        lines.append(",".join(v if isinstance(v, str) else f"{v:.12g}" for v in values))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
