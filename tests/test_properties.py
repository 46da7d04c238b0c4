"""Property tests of the sampled window and the distance/embedding
identity over densities drawn anywhere in the dyadic domain, including
supports touching either end and supports narrower than one grid cell,
of the DWT's inversion at any translation offset, of the embedding's
linearity in a mixture, matrix and text round trip, of the exact solver
against the LP oracle on a small shared grid and of the triangle
inequality of its W_s, of the solver's nested starting basis and the eps
its flows carry through the pivots, and of the in-place abs_power
against |x| ** s.

The window does not depend on how many cells one evaluator call gets.
Examples are derandomized, so every run checks the same cases.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import brute_force_lp
from waveot._num import abs_power
from waveot.densities import (_CELL_POINTS, Density, DiscreteMeasure, bump_density,
                              dilate, sample_for_dwt, translate, uniform_density)
from waveot.distance import DistanceConfig, distance_new
from waveot.dwt import dwt_decompose, dwt_reconstruct
from waveot.embedding import (embed, from_text, to_text, wlot_distance,
                              wlot_distance_matrix)
from waveot.exact import _nested_start, _transport_simplex, exact_ws
from waveot.filters import build_wavelet_system, catalog_names

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


@st.composite
def transformed(draw, j0):
    """A uniform or bump density on [0, w], w at least a twentieth of the
    domain [0, 2^-j0], dilated about its centre by a factor in [0.3, 1] and
    translated to a drawn place inside the domain."""
    width = draw(st.floats(0.05, 1.0)) * 2.0 ** -j0
    if draw(st.booleans()):
        d = uniform_density(0.0, width)
    else:
        d = bump_density(0.5 * width, 0.5 * width)
    d = dilate(d, draw(st.floats(0.3, 1.0)), 0.5 * width)
    lo, hi = d.support
    return translate(d, draw(st.floats(0.0, 1.0)) * (2.0 ** -j0 - hi + lo) - lo)


def full_grid_samples(d, j0, M):
    """Cell averages over all 2^M cells of the domain, computed the way
    sample_for_dwt computes them on its window."""
    spacing = 2.0 ** -(j0 + M)
    offs = (np.arange(64) + 0.5) / 64
    pts = (np.arange(2 ** M)[:, None] + offs[None, :]) * spacing
    values = d(pts.ravel()).reshape(2 ** M, 64).mean(axis=1)
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
def test_sample_blocks_keep_the_window(data):
    j0 = data.draw(st.integers(-3, 1))
    M = data.draw(st.integers(8, 14))
    d = data.draw(transformed(j0))
    ref = sample_for_dwt(d, j0, M)
    cells = data.draw(st.integers(1, 300))
    with mock.patch("waveot.densities._BLOCK_POINTS", cells * _CELL_POINTS):
        blocked = sample_for_dwt(d, j0, M)
    assert blocked.offset == ref.offset
    assert np.array_equal(blocked.values, ref.values)


@st.composite
def distance_cases(draw):
    """(config, p, q) of the "new" formulation on a drawn grid."""
    j0, M = draw(grids())
    p, q = draw(densities(j0, M)), draw(densities(j0, M))
    return (DistanceConfig(s=draw(st.sampled_from([1.0, 0.5, 0.25])), j0=j0, M=M,
                           wavelet=draw(st.sampled_from(["haar", "db2", "db10"]))), p, q)


@SETTINGS
@given(distance_cases())
# the two level arrays taken in argument order gave 6.473554617662133 one
# way round and ...134 the other
@example((DistanceConfig(s=1.0, j0=0, M=4, wavelet="db10"),
          uniform_density(0.0, 1 / 32), uniform_density(31 / 32, 1.0)))
def test_embedding_reproduces_distance_and_distance_is_symmetric(case):
    cfg, p, q = case
    d_pq = distance_new(p, q, cfg)
    assert d_pq == distance_new(q, p, cfg)
    u, v = embed(p, cfg), embed(q, cfg)
    assert wlot_distance(u, v, cfg.s) == wlot_distance(v, u, cfg.s)
    assert abs(wlot_distance(u, v, cfg.s) - d_pq) < 1e-10


@SETTINGS
@given(st.sampled_from(catalog_names()),
       hnp.arrays(np.float64, st.integers(1, 200), elements=st.floats(-1.0, 1.0)),
       st.integers(1, 6), st.integers(-2 ** 40, 2 ** 40), st.integers(-2 ** 20, 2 ** 20))
@example("db20", np.linspace(-1.0, 1.0, 37), 6, 2 ** 40, -(2 ** 20))
@example("db3", np.linspace(-1.0, 1.0, 37), 5, -(2 ** 40) + 1, 2 ** 20)
def test_dwt_inverts_at_any_offset(name, x, levels, k_offset, m):
    system = build_wavelet_system(name)
    pyr = dwt_decompose(x, system, levels, "zero", k_offset=k_offset)
    assert np.max(np.abs(dwt_reconstruct(pyr, system) - x)) <= 1e-10
    # a shift by 2^levels m keeps the parity of every halving, so it only
    # relabels the coefficients: m 2^i translations at detail level j0 + i
    moved = dwt_decompose(x, system, levels, "zero", k_offset=k_offset + 2 ** levels * m)
    assert moved.approx.tobytes() == pyr.approx.tobytes()
    assert moved.approx_offset == pyr.approx_offset + m
    for i, (a, b) in enumerate(zip(moved.details, pyr.details)):
        assert a.tobytes() == b.tobytes()
        assert moved.detail_offsets[i] == pyr.detail_offsets[i] + m * 2 ** i


@SETTINGS
@given(st.data())
def test_embedding_is_linear_in_a_mixture(data):
    j0, M = data.draw(grids())
    p, q = data.draw(transformed(j0)), data.draw(transformed(j0))
    alpha = data.draw(st.floats(0.0, 1.0))
    support = (min(p.support[0], q.support[0]), max(p.support[1], q.support[1]))
    mix = Density(lambda x: alpha * p(x) + (1.0 - alpha) * q(x), support)
    cfg = DistanceConfig(s=0.5, j0=j0, M=M,
                         wavelet=data.draw(st.sampled_from(["haar", "db2", "db10"])))
    u, up, uq = (embed(d, cfg).entries for d in (mix, p, q))
    for key in u.keys() | up.keys() | uq.keys():
        combo = alpha * up.get(key, 0.0) + (1.0 - alpha) * uq.get(key, 0.0)
        assert abs(u.get(key, 0.0) - combo) <= 1e-10, key


@SETTINGS
@given(st.data())
def test_matrix_is_the_pairwise_distances(data):
    j0, M = data.draw(grids())
    ps = data.draw(st.lists(densities(j0, M), min_size=2, max_size=4))
    ps.append(ps[0])  # a repeated measure: its distance must be exactly 0
    cfg = DistanceConfig(s=data.draw(st.sampled_from([1.0, 0.5, 0.25])), j0=j0, M=M,
                         wavelet=data.draw(st.sampled_from(["haar", "db2", "db10"])))
    mat = wlot_distance_matrix(ps, cfg)
    assert np.array_equal(mat, mat.T) and not np.any(np.diag(mat))
    vecs = [embed(p, cfg) for p in ps]
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            pair = wlot_distance(vecs[i], vecs[j], cfg.s)
            assert abs(mat[i, j] - pair) <= 1e-12 * pair
    assert mat[0, -1] == 0.0


@SETTINGS
@given(st.data())
def test_text_round_trip_keeps_the_level_arrays(data):
    j0, M = data.draw(grids())
    wavelet = data.draw(st.sampled_from(["haar", "db2", "db10"]))
    vec = embed(data.draw(densities(j0, M)), DistanceConfig(s=0.5, j0=j0, M=M,
                                                            wavelet=wavelet))
    back = from_text(to_text(vec))
    assert back.fingerprint == vec.fingerprint
    assert len(back.levels) == M
    for (o, a), (ob, b) in zip(vec.levels, back.levels):
        assert o == ob and np.array_equal(a, b)


# to_text of this embedding as written before the levels were arrays
PINNED_WLOT = """\
wlot db2 -1 4
-1 -2 0.033170865588517798
-1 -1 0.87970372832031463
-1 0 -0.13452977512458675
0 -2 0.038248259212467661
0 -1 0.074914875266790318
0 0 -0.27855094348481918
1 -1 -0.29555985107137034
1 0 0.13751612344734704
1 1 -0.24181328463265173
2 0 0.0069289606629592982
2 1 0.02655318219418365
2 2 5.5511151231257827e-17
2 3 -0.17857142857142858
"""


def test_pinned_wlot_text():
    cfg = DistanceConfig(s=0.5, j0=-1, M=4, wavelet="db2")
    vec = embed(translate(uniform_density(0.0, 0.7), 0.3), cfg)
    assert to_text(vec) == PINNED_WLOT
    assert to_text(from_text(PINNED_WLOT)) == PINNED_WLOT


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


@SETTINGS
@given(grid_measures(), grid_measures(), grid_measures(),
       st.sampled_from([1.0, 0.5, 0.25]))
def test_exact_ws_triangle_inequality(mu, nu, rho, s):
    # |x - y|^s is a metric for 0 < s <= 1, so W_s is one on measures
    assert exact_ws(mu, rho, s)[0] <= exact_ws(mu, nu, s)[0] + exact_ws(nu, rho, s)[0] + 1e-9


@st.composite
def transport_problems(draw, min_weight=0):
    """Rows and columns at distinct integer positions, interleaved at
    random, with integer weights from min_weight to 3 (so ties, degenerate
    arcs and, with min_weight 0, atoms without mass occur) made balanced
    by topping up the last atom of the lighter side.  Returns (x, y, a,
    b)."""
    pos = draw(st.lists(st.integers(0, 60), min_size=2, max_size=24, unique=True))
    is_row = draw(st.lists(st.booleans(), min_size=len(pos), max_size=len(pos)))
    is_row[draw(st.integers(0, len(pos) - 1))] = True
    is_row[draw(st.integers(0, len(pos) - 1))] ^= all(is_row)
    pos = np.array(pos, dtype=float)
    is_row = np.array(is_row)
    x, y = np.sort(pos[is_row]), np.sort(pos[~is_row])
    weights = st.integers(min_weight, 3)
    a = np.array(draw(st.lists(weights, min_size=len(x), max_size=len(x))), dtype=float)
    b = np.array(draw(st.lists(weights, min_size=len(y), max_size=len(y))), dtype=float)
    gap = a.sum() - b.sum()
    (b if gap > 0 else a)[-1] += abs(gap)
    return x, y, a, b


def components(edges, nodes):
    root = list(range(nodes))

    def find(k):
        while root[k] != k:
            k = root[k]
        return k

    for p, q in edges:
        root[find(p)] = find(q)
    return {find(k) for k in range(nodes)}


def crossing(arcs):
    """Two arcs whose spans interleave, or None."""
    spans = sorted((min(p, q), max(p, q)) for p, q in arcs)
    for k, (lo, hi) in enumerate(spans):
        for lo2, hi2 in spans[k + 1:]:
            if lo < lo2 < hi < hi2:
                return (lo, hi), (lo2, hi2)
    return None


@SETTINGS
@given(transport_problems())
# a row and a column without mass (not the last column, which takes the
# rows' eps): components of one row and of one column
@example((np.array([0.0, 2.0, 5.0]), np.array([1.0, 3.0, 4.0]),
          np.array([2.0, 0.0, 1.0]), np.array([1.0, 0.0, 2.0])))
# every row before every column, with equal weights: each match ties
@example((np.arange(5.0), np.arange(5.0) + 10.0, np.ones(5), np.ones(5)))
def test_nested_start_is_a_spanning_tree_without_crossings(problem):
    x, y, a, b = problem
    m, n = len(a), len(b)
    flows = _nested_start(x, y, a, b)
    assert len(flows) == m + n - 1
    assert len(components([(i, m + j) for i, j in flows], m + n)) == 1
    rows, cols = np.zeros(m), np.zeros(n)
    for (i, j), (f, _) in flows.items():
        assert f >= 0.0
        rows[i] += f
        cols[j] += f
    assert np.array_equal(rows, a) and np.array_equal(cols, b)
    assert crossing([(x[i], y[j]) for (i, j), (f, _) in flows.items() if f > 0.0]) is None
    if not a.any():
        return
    # optimal plans for s < 1 do not cross either
    mu = DiscreteMeasure(x, a / a.sum())
    nu = DiscreteMeasure(y, b / b.sum())
    plan = exact_ws(mu, nu, 0.5)[1]
    assert crossing([(x[i], y[j]) for i, j, f in plan.entries if f > 0.0]) is None


@SETTINGS
@given(transport_problems(min_weight=1), st.sampled_from([1.0, 0.5, 0.25]))
@example((np.arange(5.0), np.arange(5.0) + 10.0, np.ones(5), np.ones(5)), 0.5)
def test_every_basic_flow_is_positive_in_eps(problem, s):
    # every atom has mass and the integer sums balance exactly, so the
    # scan alone spans the tree and each start flow, eps part included,
    # is positive; the lexicographic leaving rule keeps every basis so
    x, y, a, b = problem
    flows = _nested_start(x, y, a, b)
    assert all(f > (0.0, 0) for f in flows.values())
    flows = _transport_simplex(np.abs(x[:, None] - y[None, :]) ** s, flows)
    assert all(f > (0.0, 0) for f in flows.values())


_SIGNED = np.array([-2.0, -0.0, 0.0, 3.0, 5e-324, 1e-300, -0.7, 1.7e308])


@SETTINGS
@given(hnp.arrays(np.float64, st.integers(0, 300),
                  elements=st.floats(allow_nan=False, allow_infinity=False)),
       st.floats(0.0, 1.0, exclude_min=True))
@example(_SIGNED, 1.0)
@example(_SIGNED, 0.5)
@example(_SIGNED, 0.25)
def test_abs_power_in_place_matches_abs_then_power(x, s):
    # in place, the power must keep numpy's sqrt (s = 0.5) and identity
    # (s = 1) paths, which np.abs(x) ** s takes
    want = np.abs(x) ** s
    y = x.copy()
    assert abs_power(y, s) is y
    assert y.tobytes() == want.tobytes()
