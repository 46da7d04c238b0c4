"""Reproduction of the translation/dilation benchmark sweeps.

Each simulation family compares a base density against a one-parameter
family of transforms of itself: translates of the uniform density on
[0, 1], dilations of the uniform density on [1, 2] about 3/2, and the
same two sweeps for the smooth bump density.  For every (parameter, s)
pair the configured wavelet distance and the exact solver value on a
shared uniform grid over [0, 3] are recorded, and a least-squares
normalization constant is fitted per s group.
"""

from dataclasses import dataclass, replace

import numpy as np

from .densities import bump_density, dilate, discretize, translate, uniform_density
from .distance import DistanceConfig, wavelet_distance
from .errors import DegenerateFit, InvalidConfig, add_context, checked_int
from .exact import exact_ws

__all__ = ["SimulationSpec", "SimulationRow", "run_simulation",
           "fit_normalization", "emit_csv", "FAMILIES",
           "EXACT_DOMAIN", "CSV_HEADER"]

EXACT_DOMAIN = (0.0, 3.0)

# most parameters in one sweep: each costs a wavelet distance and an exact
# solve for every s, 10 to 20 ms together at the CLI defaults, so 10^5 of
# them over the three default exponents already run for over an hour;
# larger counts are refused before np.linspace allocates them
_MAX_COUNT = 100_000

CSV_HEADER = ("family,formulation,wavelet,s,j0,M,param,"
              "wavelet_value,exact_value,norm_constant,normalized_value")


def _uniform_translate(a):
    return translate(uniform_density(0.0, 1.0), a)


def _uniform_dilate(b):
    return dilate(uniform_density(1.0, 2.0), b, 1.5)


def _bump_translate(a):
    return translate(bump_density(0.5, 0.5), a)


def _bump_dilate(b):
    return dilate(bump_density(1.5, 0.5), b, 1.5)


FAMILIES = {
    "uniform_translate": (lambda: uniform_density(0.0, 1.0), _uniform_translate, (0.0, 2.0)),
    "uniform_dilate": (lambda: uniform_density(1.0, 2.0), _uniform_dilate, (0.5, 1.5)),
    "bump_translate": (lambda: bump_density(0.5, 0.5), _bump_translate, (0.0, 2.0)),
    "bump_dilate": (lambda: bump_density(1.5, 0.5), _bump_dilate, (0.5, 1.5)),
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
        if self.family not in FAMILIES:
            raise InvalidConfig(f"unknown family {self.family!r}; "
                                f"choose from {sorted(FAMILIES)}")
        # integral floats pass; np.linspace and discretize need ints
        object.__setattr__(self, "count", checked_int(
            self.count, InvalidConfig,
            f"count must lie in [2, {_MAX_COUNT}], got {self.count}", 2, _MAX_COUNT))
        object.__setattr__(self, "exact_grid_points", checked_int(
            self.exact_grid_points, InvalidConfig,
            f"exact_grid_points must be an integer, got {self.exact_grid_points}"))
        if self.param_range is not None:
            lo, hi = self.param_range
            if not lo < hi:
                raise InvalidConfig(f"invalid param_range {self.param_range}")

    def params(self):
        lo, hi = self.param_range if self.param_range is not None \
            else FAMILIES[self.family][2]
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


def _fit_constant(params, wavelet_values, exact_values):
    p = np.asarray(params, dtype=float)
    w = np.asarray(wavelet_values, dtype=float)
    e = np.asarray(exact_values, dtype=float)
    # both distances vanish at the identity transform, where the ratio is
    # ill-conditioned; keep only the top 90% of the parameter range
    thr = p.min() + 0.1 * (p.max() - p.min())
    m = p >= thr
    denom = float(np.sum(w[m] ** 2))
    if denom <= 0.0:
        raise DegenerateFit("all wavelet distances in the fit window are zero")
    return float(np.sum(w[m] * e[m]) / denom)


def fit_normalization(rows) -> float:
    """Least-squares constant c minimizing sum (c*wavelet - exact)^2 over
    the rows with param in the top 90% of the parameter range."""
    if not rows:
        raise DegenerateFit("no rows to fit")
    return _fit_constant([r.param for r in rows],
                         [r.wavelet_value for r in rows],
                         [r.exact_value for r in rows])


def run_simulation(spec: SimulationSpec):
    """Compute all rows of a sweep, ordered by (s group, ascending param).

    Deterministic: identical specs produce identical rows.
    """
    base_fn, transform, _ = FAMILIES[spec.family]
    base = base_fn()
    params = spec.params()
    transformed = [transform(float(t)) for t in params]
    mu0 = discretize(base, spec.exact_grid_points, domain=EXACT_DOMAIN)

    rows = []
    for s in spec.s_values:
        cfg = replace(spec.cfg, s=s)
        cells = []
        for t, d in zip(params, transformed):
            try:
                wval = wavelet_distance(base, d, cfg)
                nu = discretize(d, spec.exact_grid_points, domain=EXACT_DOMAIN)
                eval_, _ = exact_ws(mu0, nu, s)
            except Exception as e:
                add_context(e, f"family {spec.family}, s={s}, param={t}")
                raise
            cells.append((float(t), wval, eval_))
        c = _fit_constant(*zip(*cells))
        for t, wval, eval_ in cells:
            rows.append(SimulationRow(
                family=spec.family, formulation=cfg.formulation,
                wavelet=cfg.wavelet, s=s, j0=cfg.j0, M=cfg.M, param=t,
                wavelet_value=wval, exact_value=eval_, norm_constant=c,
                normalized_value=c * wval))
    return rows


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def emit_csv(rows, path) -> None:
    """Write rows in input order; identical rows give identical bytes."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            r.family, r.formulation, r.wavelet, _fmt(r.s), str(r.j0),
            str(r.M), _fmt(r.param), _fmt(r.wavelet_value),
            _fmt(r.exact_value), _fmt(r.norm_constant),
            _fmt(r.normalized_value)]))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
