"""Property tests of the sampled window and the distance/embedding
identity over densities drawn anywhere in the dyadic domain, including
supports touching either end and supports narrower than one grid cell,
of the DWT's inversion at any translation offset, of one halving in
either boundary mode against its defining sum and of the inverse
refusing, in either mode, any level cut off the chain its input fixes,
of the paper's dilation law (dilating by 2^k scales the "new" distance,
its embedding's distance and exact W_s by 2^(ks)), of the paper's bound
W_s a12 <= D_new + a12 E on the simulation families' sampled measures
and of its other side, D_new <= K W_s plus the cells' share with K from
db10's psi, with c05's pair as a fixed case whose ratio D_new / W_s
settles as M grows, of the embedding's
linearity in a mixture,
matrix (at any column block) and text round trip, of every hand-built
WlotVector that constructs reading back from its text, of the exact solver against the LP oracle, with symmetric costs and
exact marginals, on a small shared grid and on measures each on its own
support, and of the triangle inequality of its W_s, of the solver's
nested starting basis and the eps its flows carry through the pivots, of
its subtree dual updates against full passes and of its block pricing
against the LP oracle on measures each on its own support, of the
in-place abs_power against |x| ** s, and of every public entry point that
reads a caller's array refusing, as a WaveotError and without a numpy
warning, a value that is not real numbers.

The window does not depend on how many cells one evaluator call gets,
and a density equals its evaluator masked to the support, bit for bit,
whether the mask runs or not.
Examples are derandomized, so every run checks the same cases.
"""

import functools
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import brute_force_lp, window_grid
from waveot.cascade import DEFAULT_CASCADE_DEPTH, cascade_evaluate, estimate_constants
from waveot.densities import (_CELL_POINTS, Density, DiscreteMeasure, bump_density,
                              dilate, discretize, sample_for_dwt, translate,
                              uniform_density)
from waveot.distance import DistanceConfig, _coefficients, distance_new, wavelet_distance
from waveot.dwt import _chain, dwt_decompose, dwt_reconstruct
from waveot.embedding import (WlotVector, embed, from_text, to_text, wlot_distance,
                              wlot_distance_matrix)
from waveot.errors import InvalidGrid, ShapeMismatch, WaveotError
from waveot import exact
from waveot.exact import _nested_start, _transport_simplex, abs_power, exact_ws
from waveot.filters import WaveletSystem, build_wavelet_system, catalog_names
from waveot.simulate import FAMILIES

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
def test_window_is_the_nonzero_span_of_the_support(data):
    # the window lies among the cells meeting the support, starts and ends
    # on a nonzero cell, and every cell outside it is zero
    j0, M = data.draw(grids())
    d = data.draw(densities(j0, M))
    offset, values = sample_for_dwt(d, j0, M)
    spacing = 2.0 ** -(j0 + M)
    lo, hi = d.support
    first = max(0, int(np.floor(lo / spacing)))
    last = min(2 ** M - 1, int(np.ceil(hi / spacing)) - 1)
    assert first <= offset and offset + len(values) <= last + 1
    assert values[0] != 0.0 and values[-1] != 0.0
    full = full_grid_samples(d, j0, M)
    window = slice(offset, offset + len(values))
    assert np.array_equal(values, full[window])
    full[window] = 0.0
    assert not np.any(full)


@SETTINGS
@given(st.data())
def test_sample_blocks_keep_the_window(data):
    j0 = data.draw(st.integers(-3, 1))
    M = data.draw(st.integers(8, 14))
    d = data.draw(transformed(j0))
    ref_offset, ref_values = sample_for_dwt(d, j0, M)
    cells = data.draw(st.integers(1, 300))
    with mock.patch("waveot.densities._BLOCK_POINTS", cells * _CELL_POINTS):
        offset, values = sample_for_dwt(d, j0, M)
    assert offset == ref_offset
    assert np.array_equal(values, ref_values)


@st.composite
def chains(draw):
    """A uniform or bump density on a drawn interval, then up to three
    translations and dilations in a drawn order."""
    lo, width = draw(st.floats(-5.0, 5.0)), draw(st.floats(0.01, 4.0))
    if draw(st.booleans()):
        d = uniform_density(lo, lo + width)
    else:
        d = bump_density(lo + 0.5 * width, 0.5 * width)
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            d = translate(d, draw(st.floats(-3.0, 3.0)))
        else:
            d = dilate(d, draw(st.floats(0.3, 3.0)), draw(st.floats(-3.0, 3.0)))
    return d


# where points are drawn, in support widths from lo
_REGIONS = {"inside": (0.0, 1.0), "below": (-1.0, 0.0), "above": (1.0, 2.0),
            "across lo": (-0.5, 0.5), "across hi": (0.5, 1.5)}


@st.composite
def points(draw, support):
    """1 to 64 points of one region around the support, with its ends, the
    float below hi and NaN mixed in at times."""
    lo, hi = support
    a, b = _REGIONS[draw(st.sampled_from(sorted(_REGIONS)))]
    x = [lo + (hi - lo) * f for f in draw(st.lists(st.floats(a, b), min_size=1, max_size=64))]
    x += draw(st.lists(st.sampled_from([lo, hi, np.nextafter(hi, lo), np.nan]), max_size=3))
    return np.array(draw(st.permutations(x)))


@SETTINGS
@given(st.data())
def test_density_is_its_masked_evaluator(data):
    # points inside [lo, hi) by their min and max skip the mask: the values
    # are those of masking, bit for bit, and the caller's points are kept
    d = data.draw(chains())
    x = data.draw(points(d.support))
    lo, hi = d.support
    inside = (x >= lo) & (x < hi)
    want = np.zeros_like(x)
    want[inside] = d.evaluator(x[inside])
    before = x.copy()
    assert d(x).tobytes() == want.tobytes()
    assert d(x[inside]).tobytes() == want[inside].tobytes()
    assert x.tobytes() == before.tobytes()


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
@given(st.data())
def test_dilation_by_2_to_the_k_scales_the_distances_by_2_to_the_ks(data):
    # the paper's scaling law: dilating both measures by 2^k about 0 scales
    # W_s by 2^(ks), and so it scales the "new" distance at (j0 - k, M),
    # whose domain is 2^k times as wide, its embedding's distance, and exact
    # W_s on a grid 2^k times as wide, whose positions scale exactly and
    # whose weights stay the same bit for bit
    k, s = data.draw(st.integers(-2, 2)), data.draw(st.sampled_from([1.0, 0.5, 0.25]))
    j0, M = data.draw(grids())
    M = max(M, k - j0 + 1)  # so the sampling level j0 - k + M is positive
    p, q = data.draw(densities(j0, M)), data.draw(densities(j0, M))
    cfg = DistanceConfig(s=s, j0=j0, M=M,
                         wavelet=data.draw(st.sampled_from(["haar", "db2", "db10"])))
    wide, dp, dq = replace(cfg, j0=j0 - k), dilate(p, 2.0 ** k, 0.0), dilate(q, 2.0 ** k, 0.0)
    law = 2.0 ** (k * s)

    def holds(value, dilated):
        return abs(dilated - law * value) <= 1e-12 * law * value

    try:
        value = wavelet_distance(p, q, cfg)
    except InvalidGrid:  # the grid misses a narrow density, and misses it dilated
        with pytest.raises(InvalidGrid):
            wavelet_distance(dp, dq, wide)
        return
    assert holds(value, wavelet_distance(dp, dq, wide))
    assert holds(wlot_distance(embed(p, cfg), embed(q, cfg), s),
                 wlot_distance(embed(dp, wide), embed(dq, wide), s))
    discrete = []
    for pair, hi in (((p, q), 2.0 ** -j0), ((dp, dq), 2.0 ** (k - j0))):
        try:
            discrete.append([discretize(d, 400, (0.0, hi)) for d in pair])
        except InvalidGrid:
            discrete.append(None)
    if discrete[0] is None:
        assert discrete[1] is None
        return
    for mu, dilated in zip(*discrete):
        assert np.array_equal(mu.positions * 2.0 ** k, dilated.positions)
        assert mu.weights.tobytes() == dilated.weights.tobytes()
    assert holds(exact_ws(*discrete[0], s)[0], exact_ws(*discrete[1], s)[0])


def test_original_formulation_breaks_the_dilation_law():
    # the paper's negative claim: the original formula does not scale as
    # W_s does.  Here it misses 2^(ks) by a factor of about 4 (308%)
    p, q, k = uniform_density(0.0, 1.0), bump_density(1.2, 0.5), -2
    new = DistanceConfig(s=1.0, j0=-3, M=14, wavelet="db10")
    dp, dq = dilate(p, 2.0 ** k, 0.0), dilate(q, 2.0 ** k, 0.0)
    for cfg, holds in ((new, True), (replace(new, formulation="original"), False)):
        ratio = (wavelet_distance(dp, dq, replace(cfg, j0=cfg.j0 - k))
                 / (2.0 ** (k * cfg.s) * wavelet_distance(p, q, cfg)))
        assert (abs(ratio - 1.0) <= 1e-12) if holds else (abs(ratio - 1.0) > 0.25)


@functools.lru_cache(maxsize=None)
def _constants(wavelet, s):
    return estimate_constants(build_wavelet_system(wavelet), s)


def _difference(u, v):
    """u - v for two (offset, array) levels, over the union of their windows."""
    (ou, au), (ov, av) = u, v
    first = min(ou, ov)
    out = np.zeros(max(ou + len(au), ov + len(av)) - first)
    out[ou - first: ou - first + len(au)] += au
    out[ov - first: ov - first + len(av)] -= av
    return out


@settings(SETTINGS, max_examples=100)
@given(st.sampled_from(sorted(FAMILIES)), st.floats(0.0, 1.0),
       st.sampled_from([1.0, 0.5, 0.25]), st.sampled_from(["db2", "db10"]),
       st.sampled_from([(-11, 18), (-4, 14)]))
def test_exact_ws_obeys_the_papers_bound(family, fraction, s, wavelet, grid):
    """W_s a12 <= D_new + a12 E on every simulation family, for the
    measures the transform sees, with E the approximation levels' share
    written out through a11.

    The transform sees mu as its samples a_k at level J = j0 + M, the
    coefficients of F_mu = sum_k a_k phi_{J,k}, and the pyramid writes
    F_mu - F_nu exactly as sum_k c_k phi_{j0,k} plus detail parts
    d_jk psi_jk.  For s <= 1, |x - y|^s is a metric, W_s is the dual norm
    of the functions it makes 1-Lipschitz, and a signed measure sigma of
    zero mass has norm at most int |x - r|^s d|sigma| for any point r.  So
    a detail part costs at most 2^(-j(s+1/2)) |d_jk| / a12 at the best r,
    and the details add up to D_new / a12.  c_k phi_{j0,k} minus its mass
    2^(-j0/2) c_k at the best point costs at most 2^(-j0(s+1/2)) |c_k| / a11;
    those points lie 2^(-j0) apart, so the masses left there, which sum to
    zero, move along the lattice for 2^(-j0(s+1/2)) sum_i |c_0 + ... + c_i|.
    The cell masses 2^(-J/2) a_k stand in for a_k phi_{J,k} in the same
    way, at 2^(-J(s+1/2)) |a_k - b_k| / a11 for the two samplings a and b
    (moving both measures alike leaves W_s as it is).  So

        W_s(cells of mu, cells of nu) <= D_new / a12 + E,
        E = 2^(-j0(s+1/2)) (sum_k |c_k| / a11 + sum_i |c_0 + ... + c_i|)
            + 2^(-J(s+1/2)) sum_k |a_k - b_k| / a11,

    up to rounding and the sampled masses' residue from 1, as each
    measure is normalized.  The 1000-point simulation grid cannot stand
    in for the cells: it does not resolve a pair near the identity, as a
    uniform translated by less than 5e-6 loses or gains an end point
    there, so exact_ws reads 0.0015 to 0.0030 while D_new reads 0.
    """
    base, move, (lo, hi) = FAMILIES[family]
    p, q = base(), move(lo + fraction * (hi - lo))
    j0, M = grid
    cfg = DistanceConfig(s=s, j0=j0, M=M, wavelet=wavelet)
    samples = [sample_for_dwt(d, j0, M) for d in (p, q)]
    ws = exact_ws(*(DiscreteMeasure(positions=window_grid(offset, values, 2.0 ** -(j0 + M)),
                                    weights=values / values.sum())
                    for offset, values in samples), s)[0]
    c = _difference(*(_coefficients(d, cfg, M)[0] for d in (p, q)))
    cells = _difference(*samples)
    constants = _constants(wavelet, s)
    share = (2.0 ** (-j0 * (s + 0.5)) * (np.abs(c).sum() / constants.a11
                                         + np.abs(np.cumsum(c)).sum())
             + 2.0 ** (-(j0 + M) * (s + 0.5)) * np.abs(cells).sum() / constants.a11)
    assert ws * constants.a12 <= distance_new(p, q, cfg) + constants.a12 * share


@functools.lru_cache(maxsize=None)
def _wavelet_sup_and_slope(wavelet):
    """max |psi| and the largest difference quotient of psi on the
    cascade's default grid.  The quotient is an average of psi', so it
    reads sup |psi'| from below; the test checks that it holds its value
    one refinement further on.  db10's does (5.465 at depths 12 and 14),
    db2's does not (281, then 527: its psi is not Lipschitz)."""
    system = build_wavelet_system(wavelet)
    slopes = []
    for depth in (DEFAULT_CASCADE_DEPTH, DEFAULT_CASCADE_DEPTH + 2):
        psi = cascade_evaluate(system, "wavelet", depth)
        slopes.append(np.abs(np.diff(psi)).max() / 2.0 ** -depth)
    assert abs(slopes[1] - slopes[0]) <= 1e-3 * slopes[0]
    return np.abs(psi).max(), slopes[1]


@settings(SETTINGS, max_examples=100)
@given(st.sampled_from(sorted(FAMILIES)), st.floats(0.0, 1.0),
       st.sampled_from([0.25, 0.5, 0.75]), st.sampled_from([(-11, 18), (-4, 14)]))
@example("uniform_translate", 0.01, 0.75, (-11, 18))  # the largest ratio seen, 1 / 30
@example("uniform_dilate", 0.3, 0.75, (-11, 18))  # the largest sampled mass gap, 6.1e-5
def test_distance_new_obeys_the_lower_side_of_the_equivalence(family, fraction, s, grid):
    """D_new <= K (S W_s + 2^(-J(s+1/2)) sum_k |a_k - b_k| / a11) + G |S - T|
    for db10 on every simulation family, the other side of the paper's
    equivalence for 0 < s < 1, with K from psi:

        K = 2(L - 1) (|psi'|_inf / (1 - 2^(s-1)) + 2 |psi|_inf / (1 - 2^(-s))).

    Take the signs e_jk of the detail differences and let
    g = sum_jk e_jk 2^(-j(s+1/2)) psi_jk = sum_jk e_jk 2^(-js) psi(2^j . - k),
    so D_new = int g (f_mu - f_nu) with f_mu = sum_k a_k phi_{J,k}, the
    function the transform reads from mu's samples a_k at J = j0 + M.
    psi lives on [0, L - 1], so at most L - 1 translates of one level are
    nonzero at a point, and for |x - y| = d level j moves g by at most
    2(L - 1) 2^(-js) min(2 |psi|_inf, |psi'|_inf 2^j d).  Summing the
    levels with 2^j d <= 1 against the first bound and the rest against
    the second gives |g(x) - g(y)| <= K d^s; at s = 1 the first sum
    diverges.  Next, <g, phi_{J,k}> = 2^(-J/2) (g(y_k) + e_k) at
    y_k = (k + r) 2^(-J), where |e_k| <= K 2^(-Js) int |t - r|^s |phi(t)| dt,
    which is K 2^(-Js) / a11 at the best r.  So D_new is at most
    sum_k (m_k - n_k) g(y_k) + K 2^(-J(s+1/2)) sum_k |a_k - b_k| / a11, with
    the cell masses m_k = 2^(-J/2) a_k and n_k summing to S and T.  Writing
    m = S m^ and n = T n^ for the unit measures the solver takes, the first
    sum is S sum (m^_k - n^_k) g(y_k) + (S - T) sum n^_k g(y_k), at most
    S K W_s(m^, n^) by duality, W_s not moving under the shift r 2^(-J),
    plus |S - T| G, where G = (L - 1) |psi|_inf 2^(-j0 s) / (1 - 2^(-s))
    bounds |g|.  The cell rule leaves S and T off 1 where a support end
    falls inside a cell, up to 6.1e-5 apart here, so G |S - T| stays in.

    In every draw D_new is at most 1 / 30 of the bound, so it is loose,
    but it is a proof, not a fit, and it holds uniformly in M.
    """
    base, move, (lo, hi) = FAMILIES[family]
    p, q = base(), move(lo + fraction * (hi - lo))
    j0, M = grid
    J, L = j0 + M, len(build_wavelet_system("db10").g)
    samples = [sample_for_dwt(d, j0, M) for d in (p, q)]
    S, T = (2.0 ** (-J / 2) * values.sum() for _, values in samples)
    ws = exact_ws(*(DiscreteMeasure(positions=window_grid(offset, values, 2.0 ** -J),
                                    weights=values / values.sum())
                    for offset, values in samples), s)[0]
    cells = _difference(*samples)
    sup, slope = _wavelet_sup_and_slope("db10")
    K = 2 * (L - 1) * (slope / (1.0 - 2.0 ** (s - 1.0)) + 2.0 * sup / (1.0 - 2.0 ** -s))
    G = (L - 1) * sup * 2.0 ** (-j0 * s) / (1.0 - 2.0 ** -s)
    share = 2.0 ** (-J * (s + 0.5)) * np.abs(cells).sum() / _constants("db10", s).a11
    dnew = distance_new(p, q, DistanceConfig(s=s, j0=j0, M=M, wavelet="db10"))
    assert dnew <= K * (S * ws + share) + G * abs(S - T)


def test_equivalence_ratio_on_c05s_pair_settles_as_the_grid_refines():
    """D_new / W_s on c05's pair, uniform on [0, 1] and its translates by
    3 + m (db2's support length plus m), with db2, s = 0.5, j0 = -4 and
    W_s on the 1000-point grid on [0, 13], stays in one band at M = 12, 13
    and 14, and each refinement moves it about half as far as the one
    before, so the equivalence constant does not drift with resolution.
    The ratios read 9.39-12.38; the step from 13 to 14 is 5.8e-5 to
    1.6e-4 relative, 0.50-0.51 of the step from 12 to 13."""
    p = uniform_density(0.0, 1.0)
    mu = discretize(p, 1000, (0.0, 13.0))
    for m in range(5):
        q = translate(p, 3.0 + m)
        ws = exact_ws(mu, discretize(q, 1000, (0.0, 13.0)), 0.5)[0]
        ratios = [distance_new(p, q, DistanceConfig(s=0.5, j0=-4, M=M, wavelet="db2")) / ws
                  for M in (12, 13, 14)]
        assert 9.0 < min(ratios) and max(ratios) < 13.0, ratios
        first, second = (abs(b - a) / a for a, b in zip(ratios, ratios[1:]))
        assert second < 2e-4 and second < 0.6 * first, ratios


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
@given(st.data(), st.sampled_from(["haar", "db2", "db7", "db20"]),
       st.sampled_from(["zero", "periodic"]), st.integers(-5, 5))
def test_one_halving_is_its_definition(data, name, mode, k_offset):
    # round trips and Parseval would still pass if analysis and synthesis
    # shifted together, so each coefficient is checked against its sum:
    # in zero mode sum_l x_l f_{l-2k} over the absolute indices l of x, in
    # periodic mode sum_i x[(2k + i) mod n] f_i
    system = build_wavelet_system(name)
    L = len(system.g)
    n = data.draw(st.integers(1, 60) if mode == "zero"
                  else st.integers(1, 30).map(lambda h: 2 * h))
    x = data.draw(hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    pyr = dwt_decompose(x, system, 1, mode, k_offset=k_offset)
    for f, coeffs, off in ((system.g, pyr.approx, pyr.approx_offset),
                           (system.h, pyr.details[0], pyr.detail_offsets[0])):
        if mode == "periodic":
            assert off == 0 and len(coeffs) == n // 2
            for k, c in enumerate(coeffs):
                assert abs(c - np.dot(x[(2 * k + np.arange(L)) % n], f)) <= 1e-12
            continue
        l = np.arange(k_offset, k_offset + n)
        for k in range(off - 1, off + len(coeffs) + 1):
            i = l - 2 * k
            inside = (i >= 0) & (i < L)
            if off <= k < off + len(coeffs):
                assert abs(coeffs[k - off] - np.dot(x[inside], f[i[inside]])) <= 1e-12
            else:  # just outside the window: no product at all
                assert not inside.any()


@SETTINGS
@given(st.data(), st.sampled_from(["haar", "db2", "db7"]), st.sampled_from(["zero", "periodic"]),
       st.integers(1, 5), st.integers(-5, 5))
def test_reconstruct_refuses_any_level_off_its_chain(data, name, mode, levels, k_offset):
    system = build_wavelet_system(name)
    n = data.draw(st.integers(1, 60) if mode == "zero"
                  else st.integers(1, 8).map(lambda h: h << levels))
    x = np.linspace(-1.0, 1.0, n)
    pyr = dwt_decompose(x, system, levels, mode, k_offset=k_offset)
    assert np.max(np.abs(dwt_reconstruct(pyr, system) - x)) <= 1e-10
    # the approximation (index levels) or one detail level, cut at either
    # end or grown by one value; its offset is derived, so it cannot move
    i = data.draw(st.integers(0, levels))
    values = pyr.approx if i == levels else pyr.details[i]
    values = data.draw(st.sampled_from([values[1:], values[:-1], np.append(values, 0.0)]))
    if i == levels:
        pyr.approx = values
    else:
        pyr.details[i] = values
    with pytest.raises(ShapeMismatch):
        dwt_reconstruct(pyr, system)


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
def test_matrix_is_the_pairwise_distances_at_any_column_block(data):
    # a block is max(1, _BLOCK_POINTS // N) columns, and in 22 of the 30
    # cases some level array spans two blocks or more: each pair's sum
    # over the blocks still equals its wlot_distance
    j0 = data.draw(st.integers(-3, 1))
    M = data.draw(st.integers(max(1, 1 - j0), 10))
    ps = data.draw(st.lists(st.one_of(densities(j0, M), transformed(j0)),
                            min_size=2, max_size=4))
    ps.append(ps[0])
    cfg = DistanceConfig(s=data.draw(st.sampled_from([1.0, 0.5, 0.25])), j0=j0, M=M,
                         wavelet=data.draw(st.sampled_from(["haar", "db2", "db10"])))
    # 1 to 2^15 cells, log-uniform, so that most blocks are narrower than K
    block = data.draw(st.integers(0, 15).flatmap(lambda e: st.integers(1, 2 ** e)))
    with mock.patch("waveot.distance._BLOCK_POINTS", block):
        mat = wlot_distance_matrix(ps, cfg)
    assert np.array_equal(mat, mat.T) and not np.any(np.diag(mat))
    vecs = [embed(p, cfg) for p in ps]
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            pair = wlot_distance(vecs[i], vecs[j], cfg.s)
            assert abs(mat[i, j] - pair) <= 1e-12 * pair


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


_SPELLINGS = ["db10", "DB10", " db2", "db1", "haar", "db99"]
_DEFECTS = [None, None, None, "nan", "inf", "float offset", "half offset", "2-D",
            "near window"]


@st.composite
def hand_built_vectors(draw):
    """(arguments of a WlotVector, True if a WaveotError must refuse them,
    False if they must construct, None if either may happen): a drawn
    wavelet spelling, j0 and M sometimes as floats, and up to five values
    on each level, zeros among them, inside the level's window; with one
    level given at most one defect, such as an offset up to 3 cells past
    either end of the window."""
    wavelet = draw(st.sampled_from(_SPELLINGS))
    j0, M = draw(grids())
    L = len(build_wavelet_system(wavelet).g) if wavelet != "db99" else 20
    defect, at = draw(st.sampled_from(_DEFECTS)), draw(st.integers(0, M - 1))
    levels = []
    for i, (first, length) in enumerate(_chain("zero", 0, 2 ** M, L, M)[:0:-1]):
        values = draw(st.lists(st.sampled_from([0.0, 1.0, -2.5e-17]) | st.floats(-1.0, 1.0),
                               max_size=min(5, length)))
        margin = 3 if i == at and defect == "near window" else 0
        offset = draw(st.integers(first - margin, first + length - len(values) + margin))
        if i == at and defect in ("nan", "inf"):
            values = values + [1.0]
            values.insert(draw(st.integers(0, len(values))), float(defect))
        if i == at and defect == "2-D":
            values = [values]
        if i == at and defect in ("float offset", "half offset"):
            offset = float(offset) if defect == "float offset" else offset + 0.5
        levels.append((offset, values))
    if draw(st.booleans()):
        j0, M = float(j0), float(M)
    if wavelet == "db99" or defect in ("nan", "inf", "half offset", "2-D"):
        refused = True
    else:  # an offset near the window is refused if a nonzero value lies past it
        refused = None if defect == "near window" else False
    return {"wavelet": wavelet, "j0": j0, "M": M, "levels": levels}, refused


@SETTINGS
@given(hand_built_vectors(), st.sampled_from([1.0, 0.5, 0.25]))
# a NaN between two finite values, and an integral float grid and offset
@example(({"wavelet": "db2", "j0": 0, "M": 2,
           "levels": [(-2, [1.0, float("nan"), 1.0]), (0, [])]}, True), 0.5)
@example(({"wavelet": "DB10", "j0": -1.0, "M": 3.0,
           "levels": [(-9.0, [0.0, 1.0]), (0, []), (0, [0.5, -0.25])]}, False), 0.25)
def test_every_vector_that_constructs_reads_back(case, s):
    # what WlotVector accepts, from_text reads back: the same fingerprint,
    # level for level the same arrays, and distance 0 to the original
    kwargs, refused = case
    try:
        vec = WlotVector(**kwargs)
    except WaveotError:
        assert refused is not False
        return
    assert refused is not True
    back = from_text(to_text(vec))
    assert back.fingerprint == vec.fingerprint
    assert vec.wavelet == build_wavelet_system(kwargs["wavelet"]).name
    assert type(vec.j0) is type(vec.M) is int
    for (o, a), (ob, b) in zip(vec.levels, back.levels, strict=True):
        assert o == ob and np.array_equal(a, b)
    assert wlot_distance(back, vec, s) == wlot_distance(vec, vec, s) == 0.0


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
    for i, j, f in plan:
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
    assert crossing([(x[i], y[j]) for i, j, f in plan if f > 0.0]) is None


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


@st.composite
def own_support_measures(draw):
    """(mu, nu): mu on a uniform grid of m points of [0, 1], nu on one of
    n points of an interval of its own, as discretize lays out a density
    on its support, with equal weights (which tie at every match) or
    integer weights 1 to 3.  m and n reach 60, so pricing wraps over up to
    eight blocks of rows."""
    def measure(lo, hi):
        k = draw(st.integers(2, 60))
        if draw(st.booleans()):
            w = np.ones(k)
        else:
            w = np.array(draw(st.lists(st.integers(1, 3), min_size=k, max_size=k)),
                         dtype=float)
        return DiscreteMeasure(np.linspace(lo, hi, k), w / w.sum())

    lo = draw(st.sampled_from([0.1, 0.3, 0.5, 1.5]))
    return measure(0.0, 1.0), measure(lo, lo + draw(st.sampled_from([0.6, 1.0, 1.7])))


# a 60-point uniform pair shifted by 0.3: 86 pivots at s = 0.5, over
# eight blocks of rows
_SHIFTED_PAIR = (DiscreteMeasure(np.linspace(0.0, 1.0, 60), np.full(60, 1 / 60)),
                 DiscreteMeasure(np.linspace(0.3, 1.3, 60), np.full(60, 1 / 60)))


@SETTINGS
@given(own_support_measures(), st.sampled_from([1.0, 0.5, 0.25]))
@example(_SHIFTED_PAIR, 0.5)
def test_exact_ws_matches_lp_oracle_on_own_supports(pair, s):
    # the shared grid's problems take 0-2 pivots, these up to 86
    mu, nu = pair
    assert abs(exact_ws(mu, nu, s)[0] - brute_force_lp(mu, nu, s)) < 1e-8


@SETTINGS
@given(own_support_measures(), st.sampled_from([1.0, 0.5, 0.25]))
@example(_SHIFTED_PAIR, 0.5)
def test_exact_ws_is_symmetric_with_exact_marginals_on_own_supports(pair, s):
    mu, nu = pair
    cost, plan = exact_ws(mu, nu, s)
    assert abs(cost - exact_ws(nu, mu, s)[0]) < 1e-12
    rows, cols = plan_marginals(plan, mu, nu)
    assert np.max(np.abs(rows - mu.weights)) < 1e-9
    assert np.max(np.abs(cols - nu.weights)) < 1e-9


_TREE_DUALS = exact._tree_duals


def fresh_tree_duals(adj):
    """The duals, parents and depths of a full pass from row 0."""
    size = len(adj)
    walk = [0.0] * size, [-1] * size, [0] * size
    _TREE_DUALS(adj, 0, *walk)
    return walk


def assert_walks_match_full_passes(mu, nu, s):
    """Solve, and after the start and every pivot check the duals,
    parents and depths the solver keeps against a full pass from row 0,
    the duals bit for bit."""
    def checked(adj, top, dual, parent, depth):
        _TREE_DUALS(adj, top, dual, parent, depth)
        want = fresh_tree_duals(adj)
        assert (parent, depth) == want[1:]
        assert np.array(dual).tobytes() == np.array(want[0]).tobytes()

    with mock.patch.object(exact, "_tree_duals", checked):
        exact_ws(mu, nu, s)


@SETTINGS
@given(own_support_measures(), st.sampled_from([1.0, 0.5, 0.25]))
@example(_SHIFTED_PAIR, 0.5)
def test_subtree_walks_equal_full_passes_on_own_supports(pair, s):
    assert_walks_match_full_passes(*pair, s)


@SETTINGS
@given(grid_measures(), grid_measures(), st.sampled_from([1.0, 0.5, 0.25]))
def test_subtree_walks_equal_full_passes_on_a_shared_grid(mu, nu, s):
    assert_walks_match_full_passes(mu, nu, s)


@SETTINGS
@given(own_support_measures(), st.sampled_from([1.0, 0.5, 0.25]))
@example(_SHIFTED_PAIR, 0.5)
def test_block_pricing_returns_an_optimal_basis(pair, s):
    # every reduced cost over the whole m x n, not only the last block
    # priced, is above -tol, and the cost is the LP optimum
    mu, nu = pair
    solved = []

    def recorded(cost, flows):
        solved.append((cost, _transport_simplex(cost, flows)))
        return solved[-1][1]

    with mock.patch.object(exact, "_transport_simplex", recorded):
        total = exact_ws(mu, nu, s)[0]
    assert abs(total - brute_force_lp(mu, nu, s)) < 1e-8
    for cost, flows in solved:
        m, n = cost.shape
        adj = [{} for _ in range(m + n)]
        for i, j in flows:
            adj[i][m + j] = adj[m + j][i] = cost.item(i, j)
        dual = np.array(fresh_tree_duals(adj)[0])
        reduced = cost - dual[:m, None] - dual[None, m:]
        assert reduced.min() >= -1e-12 * max(1.0, cost.max())


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


_HAAR = build_wavelet_system("haar")
_PYRAMID = dwt_decompose(np.arange(8.0), _HAAR, 2)
_UNIFORM = uniform_density(0.0, 1.0)
# each public entry point that reads a caller's array, given one value
_ARRAY_READERS = {
    "dwt_decompose": lambda v: dwt_decompose(v, _HAAR, 1),
    "dwt_reconstruct approx": lambda v: dwt_reconstruct(replace(_PYRAMID, approx=v), _HAAR),
    "dwt_reconstruct detail": lambda v: dwt_reconstruct(
        replace(_PYRAMID, details=[_PYRAMID.details[0], v]), _HAAR),
    "Density.__call__": _UNIFORM,
    "DiscreteMeasure positions": lambda v: DiscreteMeasure(v, [1.0]),
    "DiscreteMeasure weights": lambda v: DiscreteMeasure([0.0], v),
    "WaveletSystem": lambda v: WaveletSystem("x", v),
    "WlotVector level": lambda v: WlotVector("haar", -1, 2, [(0, v), (0, [])]),
}


_REALS = st.lists(st.floats(), min_size=1, max_size=3)
# values numpy reads as no array of real numbers, one strategy a kind
_NOT_REALS = {
    "str": st.text(max_size=3),
    "bytes": st.binary(max_size=3),
    "none": st.none(),
    "complex": st.complex_numbers(),
    "complex list": st.lists(st.complex_numbers(), min_size=1, max_size=3),
    "object array": st.lists(st.floats(), max_size=3).map(lambda v: np.array(v, dtype=object)),
    "mixed list": st.lists(st.one_of(st.floats(), st.none(), st.text(max_size=2)), min_size=1,
                           max_size=3).filter(lambda v: not all(isinstance(x, float) for x in v)),
    "ragged": st.tuples(_REALS, _REALS).filter(lambda p: len(p[0]) != len(p[1])).map(list),
}


@pytest.mark.parametrize("reader", sorted(_ARRAY_READERS))
@settings(SETTINGS, max_examples=10)
@given(st.data())
def test_every_array_reader_refuses_what_is_not_real_numbers(reader, data):
    # the DWT and Density.__call__ used to read np.asarray(value, dtype=float),
    # so a str escaped as ValueError, a complex list as TypeError and None
    # read as NaN; all-NaN filter taps passed every identity test
    values = [data.draw(_NOT_REALS[kind], label=kind) for kind in _NOT_REALS]
    if reader == "WaveletSystem":
        values.append([np.nan] * data.draw(st.sampled_from([2, 4, 6])))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for value in values:
            with pytest.raises(WaveotError):
                _ARRAY_READERS[reader](value)
