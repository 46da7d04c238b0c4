"""Property tests of the sampled window and the distance/embedding
identity over densities drawn anywhere in the dyadic domain, including
supports touching either end and supports narrower than one grid cell,
and of the exact solver against the LP oracle on a small shared grid.

Examples are derandomized, so every run checks the same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_lp
from waveot.densities import (DiscreteMeasure, bump_density, sample_for_dwt,
                              uniform_density)
from waveot.distance import DistanceConfig, distance_new
from waveot.embedding import embed, wlot_distance
from waveot.exact import exact_ws

SETTINGS = settings(derandomize=True, max_examples=30, deadline=None,
                    database=None)


@st.composite
def grids(draw):
    """(j0, M) with M > -j0, as DistanceConfig requires."""
    j0 = draw(st.integers(-3, 1))
    return j0, draw(st.integers(max(1, 1 - j0), 14))


@st.composite
def densities(draw, j0, M):
    """Uniform or bump density whose support lies in [0, 2^-j0]."""
    domain = 2.0 ** -j0
    spacing = 2.0 ** -(j0 + M)
    width = draw(st.one_of(st.floats(0.05, 0.95).map(lambda f: f * spacing),
                           st.floats(0.001, 1.0).map(lambda f: f * domain)))
    lo = draw(st.one_of(st.just(0.0), st.just(domain - width),
                        st.floats(0.0, 1.0).map(lambda f: f * (domain - width))))
    hi = min(lo + width, domain)
    if draw(st.booleans()):
        return uniform_density(lo, hi)
    return bump_density(0.5 * (lo + hi), 0.5 * (hi - lo))


def full_grid_samples(d, j0, M):
    """Cell averages over all 2^M cells of the domain, computed the way
    sample_for_dwt computes them on its window."""
    spacing = 2.0 ** -(j0 + M)
    offs = (np.arange(64) + 0.5) / 64
    pts = (np.arange(2 ** M)[:, None] + offs[None, :]) * spacing
    values = d.evaluator(pts.ravel()).reshape(2 ** M, 64).mean(axis=1)
    return values * 2.0 ** (-(j0 + M) / 2.0)


@SETTINGS
@given(st.data())
def test_window_holds_every_cell_meeting_the_support(data):
    j0, M = data.draw(grids())
    d = data.draw(densities(j0, M))
    sd = sample_for_dwt(d, j0, M)
    lo, hi = d.support
    first = max(0, int(np.floor(lo / sd.spacing)))
    last = min(2 ** M - 1, int(np.ceil(hi / sd.spacing)) - 1)
    assert 0 <= sd.offset <= first
    assert last < sd.offset + len(sd.values) <= 2 ** M
    assert len(sd.values) <= (hi - lo) / sd.spacing + 2
    full = full_grid_samples(d, j0, M)
    window = slice(sd.offset, sd.offset + len(sd.values))
    assert np.array_equal(sd.values, full[window])
    full[window] = 0.0
    assert not np.any(full)


@SETTINGS
@given(st.data())
def test_embedding_reproduces_distance_and_distance_is_symmetric(data):
    j0, M = data.draw(grids())
    p = data.draw(densities(j0, M))
    q = data.draw(densities(j0, M))
    s = data.draw(st.sampled_from([1.0, 0.5, 0.25]))
    wavelet = data.draw(st.sampled_from(["haar", "db2", "db10"]))
    cfg = DistanceConfig(s=s, j0=j0, M=M, wavelet=wavelet)
    d_pq = distance_new(p, q, cfg)
    assert d_pq == distance_new(q, p, cfg)
    assert abs(wlot_distance(embed(p, cfg), embed(q, cfg), s) - d_pq) < 1e-10


# a coarse shared grid, so coincident atoms and degenerate pivots occur
SOLVER_GRID = np.linspace(0.0, 3.0, 15)


@st.composite
def grid_measures(draw):
    """Small integer weights, many of them 0, on k consecutive atoms of
    SOLVER_GRID (all 15 of them, or 3 or 8 from some start)."""
    k = draw(st.sampled_from([len(SOLVER_GRID), 3, 8]))
    start = draw(st.integers(0, len(SOLVER_GRID) - k))
    w = np.array(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)),
                 dtype=float)
    if w.sum() == 0:
        w[-1] = 1.0
    return DiscreteMeasure(SOLVER_GRID[start:start + k], w / w.sum())


def plan_marginals(plan, mu, nu):
    rows, cols = np.zeros(len(mu)), np.zeros(len(nu))
    for i, j, f in plan.entries:
        rows[i] += f
        cols[j] += f
    return rows, cols


@SETTINGS
@given(grid_measures(), grid_measures(), st.sampled_from([1.0, 0.5, 0.25]))
def test_exact_ws_matches_lp_oracle(mu, nu, s):
    assert abs(exact_ws(mu, nu, s)[0] - brute_force_lp(mu, nu, s)) < 1e-8


@SETTINGS
@given(grid_measures(), grid_measures(), st.sampled_from([1.0, 0.5, 0.25]))
def test_exact_ws_is_symmetric_with_exact_marginals(mu, nu, s):
    cost, plan = exact_ws(mu, nu, s)
    assert abs(cost - exact_ws(nu, mu, s)[0]) < 1e-12
    rows, cols = plan_marginals(plan, mu, nu)
    assert np.max(np.abs(rows - mu.weights)) < 1e-9
    assert np.max(np.abs(cols - nu.weights)) < 1e-9


@SETTINGS
@given(grid_measures(), st.sampled_from([1.0, 0.5, 0.25]))
def test_exact_ws_of_a_measure_with_itself_is_zero(mu, s):
    assert exact_ws(mu, mu, s)[0] == 0.0
