import tracemalloc

import numpy as np
import pytest

from helpers import trapezoid
from waveot import cascade
from waveot.cascade import cascade_evaluate, estimate_constants
from waveot.errors import InvalidConfig, InvalidExponent, InvalidLevels, WaveotError
from waveot.filters import WaveletSystem, build_wavelet_system, catalog_names


def test_haar_scaling_depth3():
    haar = build_wavelet_system("haar")
    sd = cascade_evaluate(haar, "scaling", 3)
    assert sd.spacing == 0.125
    assert np.allclose(sd.values[:-1], 1.0, atol=1e-12)
    assert sd.values[-1] == 0.0


def test_haar_wavelet_depth3():
    haar = build_wavelet_system("haar")
    sd = cascade_evaluate(haar, "wavelet", 3)
    assert np.allclose(sd.values[:4], 1.0, atol=1e-12)
    assert np.allclose(sd.values[4:8], -1.0, atol=1e-12)
    assert sd.values[-1] == 0.0


@pytest.mark.parametrize("name", ["db2", "db4", "db10", "db20"])
def test_scaling_mass_and_wavelet_cancellation(name):
    system = build_wavelet_system(name)
    phi = cascade_evaluate(system, "scaling", 10)
    psi = cascade_evaluate(system, "wavelet", 10)
    assert abs(trapezoid(phi.values, dx=phi.spacing) - 1.0) < 1e-6
    assert abs(trapezoid(psi.values, dx=psi.spacing)) < 1e-6


def test_db10_refinement_consistency():
    # depth-12 values must refine the depth-11 values: shared dyadic grid
    # points agree and both quadratures sit at 1
    db10 = build_wavelet_system("db10")
    lo = cascade_evaluate(db10, "scaling", 11)
    hi = cascade_evaluate(db10, "scaling", 12)
    assert np.max(np.abs(hi.values[::2] - lo.values)) < 1e-10
    assert abs(trapezoid(hi.values, dx=hi.spacing) - 1.0) < 1e-6


def test_two_scale_relation_holds_on_grid():
    db5 = build_wavelet_system("db5")
    phi = cascade_evaluate(db5, "scaling", 8)
    g = db5.g
    n = len(phi.values)
    scale = 2 ** 8
    recon = np.zeros(n)
    for k in range(len(g)):
        src = 2 * np.arange(n) - k * scale
        ok = (src >= 0) & (src < n)
        recon[ok] += g[k] * phi.values[src[ok]]
    assert np.max(np.abs(np.sqrt(2.0) * recon - phi.values)) < 1e-10


def test_invalid_inputs():
    haar = build_wavelet_system("haar")
    with pytest.raises(ValueError) as exc:
        cascade_evaluate(haar, "scaling", 0)
    assert isinstance(exc.value, WaveotError)
    with pytest.raises(ValueError) as exc:
        cascade_evaluate(haar, "neither", 4)
    assert isinstance(exc.value, WaveotError)
    with pytest.raises(InvalidExponent):
        estimate_constants(haar, 0.0)
    with pytest.raises(InvalidExponent):
        estimate_constants(haar, 1.5)
    for s in ["0.5", None, 1j]:  # these used to escape as TypeError
        with pytest.raises(InvalidExponent, match=f"^s must lie in \\(0, 1\\], got {s}$"):
            estimate_constants(haar, s)


def test_integral_float_depth_is_an_int():
    db2 = build_wavelet_system("db2")
    ref = cascade_evaluate(db2, "scaling", 3)
    sd = cascade_evaluate(db2, "scaling", 3.0)
    assert sd.spacing == ref.spacing and np.array_equal(sd.values, ref.values)
    for depth in (2.5, float("nan"), float("inf")):
        with pytest.raises(InvalidLevels):
            cascade_evaluate(db2, "wavelet", depth)


def test_refinement_depth_budget_checked_before_allocating(monkeypatch):
    def no_grid(*args):
        raise AssertionError("grid built")

    db2 = build_wavelet_system("db2")
    monkeypatch.setattr(cascade, "_integer_values", no_grid)
    for depth in (24, 60, 10**12):
        with pytest.raises(InvalidLevels, match="sampling budget"):
            cascade_evaluate(db2, "scaling", depth)
    # the depth-3 db2 grid has 3 * 2^3 + 1 = 25 points
    monkeypatch.setattr(cascade, "_MAX_SAMPLE_POINTS", 24)
    with pytest.raises(InvalidLevels):
        cascade_evaluate(db2, "wavelet", 3)
    monkeypatch.undo()
    monkeypatch.setattr(cascade, "_MAX_SAMPLE_POINTS", 25)
    assert len(cascade_evaluate(db2, "wavelet", 3).values) == 25


def test_refinement_memory_per_grid_point():
    # the budget is counted in points, so the bytes held per point bound
    # what it admits.  Both functions are refined in one final-size grid,
    # each step writing its midpoints in place, and psi is built over the
    # scaling grid one level coarser in that same grid, so each holds one
    # grid plus two 2^14-point blocks: 8.8 bytes a point by tracemalloc
    # (12.4 with a new grid each step, or a separate half grid for psi)
    db20 = build_wavelet_system("db20")
    for which in ("scaling", "wavelet"):
        tracemalloc.start()
        try:
            values = cascade_evaluate(db20, which, 13).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * len(values), which
        del values


@pytest.mark.parametrize("depth", [1, 8, 12])
@pytest.mark.parametrize("name", ["haar", "db2", "db10", "db20"])
def test_wavelet_from_the_half_grid_equals_the_full_grid_route(name, depth):
    # psi at depth D reads phi only at the even points of the depth-D
    # grid, which are the depth-(D-1) grid
    system = build_wavelet_system(name)
    phi = cascade_evaluate(system, "scaling", depth).values
    full = cascade._two_scale(phi, system.h, 2 ** depth, 0, np.zeros(len(phi)))
    psi = cascade_evaluate(system, "wavelet", depth)
    assert psi.spacing == 2.0 ** -depth
    assert psi.values.tobytes() == full.tobytes()


@pytest.mark.parametrize("name", catalog_names())
def test_integer_values_are_the_fixed_point_of_the_transfer_matrix(name):
    system = build_wavelet_system(name)
    g = system.g
    n = len(g) - 1
    M = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if 0 <= 2 * i - j < len(g):
                M[i, j] = np.sqrt(2.0) * g[2 * i - j]
    values = cascade._integer_values(system)
    assert values[-1] == 0.0 and len(values) == len(g)
    v = values[:-1]
    assert np.max(np.abs(M @ v - v)) <= 1e-14
    assert abs(v.sum() - 1.0) <= 1e-14


def test_undetermined_scaling_function_is_refused():
    # the stretched Haar filter passes every filter identity, but its
    # transfer matrix has eigenvalue 1 twice: the integer values of its
    # phi, 1/3 on [0, 3), are one fixed point and not the only one; an
    # eigensolver may pick phi(k) = [0, 1/2, 1/2, 0] and give a11 = 0.667
    r = 1.0 / np.sqrt(2.0)
    stretched = WaveletSystem(name="stretched", g=[r, 0.0, 0.0, r])
    assert stretched.h.tolist() == [r, 0.0, 0.0, -r]
    for call in (lambda: cascade_evaluate(stretched, "scaling", 4),
                 lambda: cascade_evaluate(stretched, "wavelet", 4),
                 lambda: estimate_constants(stretched, 1.0)):
        with pytest.raises(InvalidConfig, match="stretched: .*eigenvalue 1 more than once"):
            call()


# estimate_constants as computed by the transfer matrix's eigenvector and
# psi from the full depth-12 phi grid; the linear solve moves phi at the
# integers by at most 2.7e-15, and these by at most 6.3e-16 relative
_PINNED_CONSTANTS = {
    ("db2", 1.0): (2.407335696590919, 2.1492967466319977, 0.8467025363481818),
    ("db2", 0.5): (1.5784866812301541, 1.5086558002016777, 0.8467025363481818),
    ("db2", 0.25): (1.1925137698845665, 1.1777816988130794, 0.8467025363481818),
    ("db10", 1.0): (0.6159816644376963, 0.4494672480631561, 0.5657094084756795),
    ("db10", 0.5): (0.6728496755991888, 0.5278834470848355, 0.5657094084756795),
    ("db10", 0.25): (0.6432731353330311, 0.5380903646878725, 0.5657094084756795),
    ("db20", 1.0): (0.3004159693012055, 0.21030615356814777, 0.45815114443327265),
    ("db20", 0.5): (0.4234055824712493, 0.31689108926659226, 0.45815114443327265),
    ("db20", 0.25): (0.4607320182567163, 0.36618863194467294, 0.45815114443327265),
}


@pytest.mark.parametrize("name", ["db2", "db10", "db20"])
def test_constants_match_pinned_values(name):
    system = build_wavelet_system(name)
    for s in (1.0, 0.5, 0.25):
        c = estimate_constants(system, s)
        for got, ref in zip((c.a11, c.a12, c.a13), _PINNED_CONSTANTS[name, s]):
            assert abs(got - ref) <= 2e-15 * ref, (name, s)


def test_haar_constants_closed_form():
    # inf_r int |x-r| over [0,1) is 1/4 at r = 1/2, for |phi| = |psi| = 1;
    # trapezoid endpoint handling of the Haar jump costs ~2^-13 relative
    haar = build_wavelet_system("haar")
    c = estimate_constants(haar, 1.0)
    assert abs(c.a11 - 4.0) < 5e-3
    assert abs(c.a12 - 4.0) < 5e-3
    assert abs(c.a13 - 1.0) < 5e-4


def test_db10_constants_sane():
    db10 = build_wavelet_system("db10")
    c = estimate_constants(db10, 0.5)
    phi = cascade_evaluate(db10, "scaling", 12)
    l1 = trapezoid(np.abs(phi.values), dx=phi.spacing)
    assert abs(c.a13 - 1.0 / l1) < 1e-12
    assert c.a11 > 0 and c.a12 > 0
    # the centered s-moment of |psi| exceeds that of |phi| for db10
    # (psi spreads mass away from its balance point), so a12 < a11
    assert c.a12 < c.a11


def test_grid_search_matches_midpoint_objective_for_haar():
    # direct objective evaluation at the known minimizer r = 1/2
    haar = build_wavelet_system("haar")
    phi = cascade_evaluate(haar, "scaling", 12)
    grid = phi.grid()
    val = trapezoid(np.abs(grid - 0.5) * np.abs(phi.values), dx=phi.spacing)
    assert abs(val - 0.25) < 1e-4
    c = estimate_constants(haar, 1.0)
    assert 1.0 / c.a11 <= val + 1e-12


def test_constants_scan_memory_bounded():
    # the trapezoid weights are applied block by block as each sum is
    # formed, psi is built in place over phi, and the candidate scan
    # writes its cache-sized blocks into one reused array, so the peak is
    # one grid (db20: 159,745 points, 1.2 MiB) plus a scan block (0.5 MiB),
    # 1.8 MiB by tracemalloc; 2.4 MiB with a weighted copy and the half
    # grid kept for psi, 3.0 MiB with phi and psi held together
    db20 = build_wavelet_system("db20")
    tracemalloc.start()
    try:
        estimate_constants(db20, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * 2 ** 20


@pytest.mark.parametrize("block", [4097, 1 << 20])
def test_constants_independent_of_scan_block(monkeypatch, block):
    # one candidate row per block, and 255 rows per block
    db2 = build_wavelet_system("db2")
    ref = estimate_constants(db2, 0.5)
    monkeypatch.setattr(cascade, "_SCAN_BLOCK", block)
    got = estimate_constants(db2, 0.5)
    for a, b in [(got.a11, ref.a11), (got.a12, ref.a12), (got.a13, ref.a13)]:
        assert abs(a - b) <= 1e-12 * abs(b)


def test_results_independent_of_block_points(monkeypatch):
    # the two-scale steps and the objective work _BLOCK_POINTS points at
    # a time: each grid value takes the same terms in the same order in
    # any block, and the objective adds its block sums exactly rounded
    systems = {name: build_wavelet_system(name) for name in ("db2", "db20")}
    grids = {(name, which): cascade_evaluate(system, which, 8).values
             for name, system in systems.items() for which in ("scaling", "wavelet")}
    consts = {name: estimate_constants(system, 0.25) for name, system in systems.items()}
    # db20's 159,745-point grid in 7-point blocks would take seconds a call
    for block, names in ((7, ("db2",)), (1 << 20, ("db2", "db20"))):
        monkeypatch.setattr(cascade, "_BLOCK_POINTS", block)
        for (name, which), ref in grids.items():
            got = cascade_evaluate(systems[name], which, 8).values
            assert got.tobytes() == ref.tobytes(), (block, name, which)
        for name in names:
            got, ref = estimate_constants(systems[name], 0.25), consts[name]
            for a, b in [(got.a11, ref.a11), (got.a12, ref.a12), (got.a13, ref.a13)]:
                assert abs(a - b) <= 1e-15 * abs(b), (block, name)


def test_cascade_refuses_a_system_that_is_not_a_wavelet_system():
    with pytest.raises(InvalidConfig, match="^expected a WaveletSystem, got 'db10'$"):
        cascade_evaluate("db10", "scaling")


def test_constants_refuse_a_system_that_is_not_a_wavelet_system():
    with pytest.raises(InvalidConfig, match="^expected a WaveletSystem, got 'db10'$"):
        estimate_constants("db10", 0.5)
