import tracemalloc

import numpy as np
import pytest

from helpers import trapezoid
from waveot import cascade
from waveot.cascade import cascade_evaluate, estimate_constants
from waveot.errors import InvalidExponent, InvalidLevels, WaveotError
from waveot.filters import build_wavelet_system


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
    # what it admits.  Each two-scale step fills its output in place, one
    # block at a time: the refinement holds the old and the new grid, 12.4
    # bytes a point by tracemalloc (18 with a half-grid result and its
    # temporary), and the wavelet phi and psi, 16.4 (20)
    db20 = build_wavelet_system("db20")
    for which, bound in (("scaling", 14), ("wavelet", 18)):
        tracemalloc.start()
        try:
            values = cascade_evaluate(db20, which, 13).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * len(values), which
        del values


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
    # the candidate scan works in cache-sized blocks, the weighted |phi|
    # and |psi| are built in place, and each objective forms its grid and
    # values one _BLOCK_POINTS block at a time, so the peak is phi and psi
    # (db20: 159,745 points, 1.2 MiB each) plus a scan block, 3.0 MiB by
    # tracemalloc; 4.9 MiB with the grid and a grid-sized objective array
    db20 = build_wavelet_system("db20")
    tracemalloc.start()
    try:
        estimate_constants(db20, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2 ** 20


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
