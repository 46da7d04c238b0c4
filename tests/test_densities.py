import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import CodedError, trapezoid, window_grid
from waveot import densities
from waveot.cli import _DEFAULT_J0
from waveot.densities import (_BUMP_BASE_MASS, Density, DiscreteMeasure,
                              _mass, bump_density, dilate, discretize,
                              sample_for_dwt, translate, uniform_density)
from waveot.errors import (DomainOverflow, InvalidGrid, InvalidInterval,
                           UnbalancedMarginals)
from waveot.exact import exact_ws
from waveot.simulate import FAMILIES


def test_uniform_basics():
    p = uniform_density(0.0, 1.0)
    assert p(0.5) == 1.0
    assert p(1.5) == 0.0
    assert p(-0.1) == 0.0
    with pytest.raises(InvalidInterval):
        uniform_density(2.0, 1.0)


def test_uniform_dilation_paper_cases():
    p = uniform_density(1.0, 2.0)
    narrow = dilate(p, 0.5, 1.5)
    assert narrow.support == (1.25, 1.75)
    assert abs(narrow(1.5) - 2.0) < 1e-12
    wide = dilate(p, 1.5, 1.5)
    assert wide.support == (0.75, 2.25)
    assert abs(wide(1.5) - 2.0 / 3.0) < 1e-12
    with pytest.raises(InvalidInterval):
        dilate(p, 0.0, 1.5)


def test_identity_dilation():
    p = bump_density(1.0, 0.5)
    q = dilate(p, 1.0, 0.3)
    xs = np.linspace(0.4, 1.6, 101)
    assert np.allclose(p(xs), q(xs), atol=1e-12)


def test_translate():
    p = uniform_density(0.0, 1.0)
    q = translate(p, 2.0)
    assert q.support == (2.0, 3.0)
    assert q(2.5) == 1.0 and q(0.5) == 0.0


def test_bump_profile_and_mass():
    # paper profile check: centered at 1/2 with half-width 1/2 equals the
    # standard bump exp(-1/(1-(2u)^2)) shifted from [-1/2, 1/2]
    p = bump_density(0.5, 0.5)
    assert p(0.0) == 0.0 and p(1.0) == 0.0
    val, _ = quad(lambda x: float(p(x)), 0.0, 1.0, epsabs=1e-10, epsrel=1e-10)
    assert abs(val - 1.0) < 1e-8
    c0 = bump_density(0.0, 0.5)
    xs = np.linspace(-0.49, 0.49, 51)
    assert np.allclose(c0(xs), c0(-xs), atol=1e-14)
    with pytest.raises(InvalidInterval):
        bump_density(0.0, 0.0)


def test_mass_preserved_by_transforms():
    p = bump_density(0.3, 0.3)
    for d in (translate(p, 1.2), dilate(p, 0.6, 0.3), dilate(p, 1.4, 0.0)):
        lo, hi = d.support
        val, _ = quad(lambda x: float(d(x)), lo, hi, epsabs=1e-10, epsrel=1e-10)
        assert abs(val - 1.0) < 1e-8


@pytest.mark.parametrize("factor", [1.0 - 2e-8, 1.0 + 2e-8])
def test_mass_check_rejects_off_unit_mass(factor):
    p = bump_density(0.5, 0.5)
    with pytest.raises(InvalidInterval, match="density mass"):
        Density(lambda x: factor * p(x), p.support)


def test_mass_check_accepts_kinked_interpolant():
    # knots off the dyadic cell edges of the mass rule; the trapezoid sum
    # is the exact mass of the linear interpolant
    rng = np.random.default_rng(7)
    lo, spacing = 1.0 / 3.0, 0.7 / 1000
    knots = lo + spacing * np.arange(1001)
    values = np.sin(np.linspace(0.0, np.pi, 1001)) ** 2 * rng.uniform(0.7, 1.3, 1001)
    values /= trapezoid(values, spacing)
    d = Density(lambda x: np.interp(x, knots, values, left=0.0, right=0.0),
                (float(knots[0]), float(knots[-1])))
    assert d(0.5) > 0.0


def _histogram(edges, heights):
    """Evaluator of a piecewise-constant density, zero off its bins."""
    edges = np.asarray(edges, dtype=float)
    heights = np.asarray(heights, dtype=float)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        k = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(heights) - 1)
        return np.where((x >= edges[0]) & (x < edges[-1]), heights[k], 0.0)

    return evaluate


def _random_histogram(bins, hi):
    # bin edges drawn at random in [0, hi], so off the cell edges of the mass rule
    rng = np.random.default_rng(bins)
    edges = np.r_[0.0, np.sort(rng.uniform(0.0, hi, bins - 1)), hi]
    heights = rng.uniform(0.1, 2.0, bins)
    return edges, heights / np.sum(heights * np.diff(edges))


@pytest.mark.parametrize("bins", [2, 7, 200])
def test_mass_rule_refines_jumps_off_cell_edges(bins):
    edges, heights = _random_histogram(bins, 2.5)
    f = _histogram(edges, heights)
    assert abs(_mass(f, 0.0, 2.5) - 1.0) < 1e-11
    assert Density(f, (0.0, 2.5))(1.0) > 0.0
    for factor in (1.0 - 2e-8, 1.0 + 2e-8):
        with pytest.raises(InvalidInterval, match="density mass"):
            Density(_histogram(edges, factor * heights), (0.0, 2.5))


def test_mass_check_accepts_steps_and_mixtures():
    # a jump at 1/3, and uniform mixtures with edges off the dyadic grid
    Density(lambda x: np.where(np.asarray(x) < 1.0 / 3.0, 0.5, 1.25), (0.0, 1.0))
    p, q = uniform_density(0.0, 1.0), uniform_density(1.0, 2.5)
    Density(lambda x: 0.5 * p(x) + 0.5 * q(x), (0.0, 2.5))
    r = translate(dilate(q, 0.7, 0.3), 0.123)
    Density(lambda x: 0.25 * p(x) + 0.75 * r(x), (0.0, r.support[1]))


@pytest.mark.parametrize("center, half_width", [(1000.0, 1e-6), (1000.0, 1e-9), (1e6, 1e-6)])
def test_mass_check_accepts_narrow_bumps_far_from_zero(center, half_width):
    # cells a few hundred float spacings wide: each position is rounded once
    d = bump_density(center, half_width)
    assert d(center) > 0.0


def test_mass_check_rejects_unbounded_support_and_nan():
    with pytest.raises(InvalidInterval, match="finite"):
        Density(lambda x: np.exp(-np.asarray(x, dtype=float)), (0.0, math.inf))
    with pytest.raises(InvalidInterval, match="finite"):
        dilate(bump_density(0.5, 0.5), math.inf, 0.0)
    with pytest.raises(InvalidInterval, match="density mass is nan"):
        Density(lambda x: np.full(np.shape(x), np.nan), (0.0, 1.0))


def test_mass_check_rejects_signed_densities():
    # unit mass, but not a probability
    with pytest.raises(InvalidInterval, match=r"density is -1 < 0 at x = 0\.5"):
        Density(lambda x: np.where(x < 0.5, 3.0, -1.0), (0.0, 1.0))
    with pytest.raises(InvalidInterval, match="< 0"):
        translate(Density(lambda x: np.where(x < 0.5, 3.0, -1.0), (0.0, 1.0)), 1.0)


def test_mass_check_rejects_transforms_past_float_resolution():
    # mass is preserved in exact arithmetic, not in floats: at 1e15 the
    # positions are 0.125 apart, and a bump 1e-14 wide spans about 90 floats
    with pytest.raises(InvalidInterval, match="density mass is 0.9375"):
        translate(uniform_density(0.0, 1.0), 1e15)
    with pytest.raises(InvalidInterval, match="density mass is 1.00000008"):
        dilate(bump_density(0.5, 0.5), 1e-14, 0.5)


def test_transforms_mask_once_and_return_zero_outside_support():
    d = uniform_density(0.0, 1.0)
    for k in range(6):
        d = translate(d, 0.25) if k % 2 == 0 else dilate(d, 1.1, 0.5)
    lo, hi = d.support
    x = np.array([lo - 1e-9, lo, 0.5 * (lo + hi), hi - 1e-9, hi, hi + 1.0])
    assert np.array_equal(d(x) > 0.0, [False, True, True, True, False, False])
    assert d(hi) == 0.0 and d(lo - 1.0) == 0.0


def test_density_keeps_its_evaluator():
    def f(x):
        return np.full_like(x, 2.0)

    d = Density(f, (0.0, 0.5))
    assert d.evaluator is f and d == Density(f, (0.0, 0.5))
    assert translate(d, 1.0).evaluator(np.array([1.25])) == 2.0  # unmasked
    assert np.array_equal(d(np.array([-0.5, 0.0, 0.25, 0.5])), [0.0, 2.0, 2.0, 0.0])


def test_density_keeps_its_support_as_a_tuple():
    # a list support used to be kept, so hash() raised TypeError, and two
    # array supports compared with numpy's ambiguous-truth ValueError
    def f(x):
        return np.ones_like(x)

    d = Density(f, [0, 1])
    assert d.support == (0, 1) and type(d.support) is tuple
    assert all(type(end) is int for end in d.support)  # kept as given
    assert hash(d) == hash(Density(f, (0, 1)))
    a, b = Density(f, np.array([0.0, 1.0])), Density(f, np.array([0.0, 1.0]))
    assert a == b and hash(a) == hash(b) and a.support == (0.0, 1.0)


@pytest.mark.parametrize("evaluate", [
    lambda x: np.ones(3), lambda x: np.ones((len(x), 2)), lambda x: np.ones((len(x), 1)),
    lambda x: np.ones(len(x) + 1),
], ids=["three-values", "two-columns", "one-column", "one-too-many"])
def test_density_refuses_evaluator_output_of_another_shape(evaluate):
    # these used to escape from the mask path as numpy's ValueError or TypeError
    with pytest.raises(InvalidInterval, match=r"^the evaluator returned shape \("):
        Density(evaluate, (0.0, 1.0))


def test_density_keeps_the_evaluator_s_own_exception():
    err = CodedError(3, "evaluator state")

    def fail(x):
        raise err

    with pytest.raises(CodedError) as exc:
        Density(fail, (0.0, 1.0))
    assert exc.value is err
    assert Density(lambda x: 1.0, (0.0, 1.0))(0.5) == 1.0  # one value for all points


def _traced_peak(fn):
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _evaluation_peak(d, n):
    lo, hi = d.support
    x = np.linspace(lo, hi, n, endpoint=False)
    return _traced_peak(lambda: d(x))[1]


def test_transform_layers_do_not_mask_again():
    # one mask per evaluation: a layer holds its mapped points (8 bytes a
    # point), not also a mask, an inside copy and an output of its own
    n, depth = 1 << 15, 6
    d = base = bump_density(0.5, 0.5)
    for k in range(depth):
        d = translate(d, 0.25) if k % 2 == 0 else dilate(d, 1.1, 0.5)
    growth = _evaluation_peak(d, n) - _evaluation_peak(translate(base, 0.25), n)
    assert growth <= 16 * n * (depth - 1)


def test_an_evaluator_of_one_value_is_broadcast():
    # an evaluator owes one value a point, but one for all still works:
    # the density masks when the shape differs, and the mask broadcasts
    d = Density(lambda x: 1.0, (0.0, 1.0))
    assert np.array_equal(d(np.array([0.25, 0.5, 1.0])), [1.0, 1.0, 0.0]) and d(0.5) == 1.0
    assert np.array_equal(sample_for_dwt(d, 0, 4)[1], np.full(16, 0.25))
    m = discretize(d, 11)
    assert np.array_equal(m.weights, np.r_[np.full(10, 0.1), 0.0])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_transform_mass_check_memory(family):
    # one block of the mass check at a time, unmasked inside the support:
    # under 1 MiB, where masking every block while holding the one before
    # peaked at 1.15 to 1.42 MiB
    _, transform, (lo, hi) = FAMILIES[family]
    transform(lo)  # the family's base is built once per process
    _, peak = _traced_peak(lambda: transform(0.5 * (lo + hi)))
    assert peak < 1 << 20


def test_sample_memory_of_a_dilated_bump():
    # the dilated points and the bump's values reuse the arrays their
    # evaluators made: 0.91 MiB beyond the window when each step made one
    d = dilate(bump_density(1.5, 0.5), 1.2, 1.5)
    (_, values), peak = _traced_peak(lambda: sample_for_dwt(d, -9, 22))
    assert peak - values.nbytes < 0.8 * (1 << 20)


def test_bump_base_mass_matches_quadrature():
    ref, _ = quad(lambda t: math.exp(-1.0 / (1.0 - t * t)), -1.0, 1.0,
                  epsabs=0.0, epsrel=1e-13, limit=200)
    assert abs(_BUMP_BASE_MASS - ref) <= 1e-14 * ref
    # every bump's normalization: a change of the mass rule must not move it
    assert _BUMP_BASE_MASS.hex() == "0x1.c6a650a045c5ap-2"


def _point_values(d, window, j0, M):
    """Plain point sampling on the (offset, values) window, with the DWT scale factor."""
    return d(window_grid(*window, 2.0 ** -(j0 + M))) * 2.0 ** (-(j0 + M) / 2.0)


def test_sample_for_dwt_hand_case():
    # domain [0, 2] in 4 cells; the window holds the cells meeting the support
    p = uniform_density(0.0, 1.0)
    offset, values = sample_for_dwt(p, -1, 2)
    assert offset == 0
    assert np.array_equal(window_grid(offset, values, 0.5), [0.0, 0.5])
    assert np.allclose(values, 2.0 ** -0.5 * np.array([1.0, 1.0]), atol=1e-14)
    offset, values = sample_for_dwt(translate(p, 0.75), -1, 2)
    assert offset == 1
    assert np.allclose(values, 2.0 ** -0.5 * np.array([0.5, 1.0, 0.5]), atol=1e-14)


def test_sample_for_dwt_full_paper_size():
    # the window covers the support only: about 2^11 cells, not 2^22
    p = bump_density(0.5, 0.5)
    offset, values = sample_for_dwt(p, -11, 22)
    spacing = 2.0 ** -11
    lo, hi = p.support
    assert len(values) <= (hi - lo) / spacing + 2
    assert offset >= 0 and offset + len(values) <= 2 ** 22
    nz = np.flatnonzero(values)
    assert len(nz) > 0
    assert (offset + nz[-1]) * spacing <= 1.0 + spacing


@pytest.mark.parametrize("M", [18, 22])
def test_windows_start_and_end_on_a_nonzero_cell(M):
    # the window arrives trimmed, so a transform never sees a zero end
    # cell; the bumps' end cells average to 0 at M = 22, where they hold
    # points at which exp(-1/(1 - t^2)) underflows
    for family, (base, transform, (lo, hi)) in FAMILIES.items():
        for d in [base()] + [transform(t) for t in np.linspace(lo, hi, 5)]:
            _, values = sample_for_dwt(d, _DEFAULT_J0[family], M)
            assert values[0] != 0.0 and values[-1] != 0.0, (family, d.support)


def test_sample_for_dwt_overflow():
    p = uniform_density(0.0, 4.0)
    with pytest.raises(DomainOverflow):
        sample_for_dwt(p, -1, 4)


def test_sample_for_dwt_bounds_j0():
    # the domain length 2^-j0 overflows below j0 = -1023
    p = uniform_density(0.0, 1.0)
    with pytest.raises(InvalidGrid, match="j0 must be an integer >= -1023"):
        sample_for_dwt(p, -1024, 1100)
    assert len(sample_for_dwt(p, -1023, 1030)[1]) == 1 << 7


def test_sample_for_dwt_refuses_a_window_without_mass():
    # narrower than the gap between two sample points: every cell averages
    # to zero, as the grid cannot resolve the density
    for lo in (0.5, 0.7):
        d = uniform_density(lo, lo + 1e-9)
        with pytest.raises(InvalidGrid, match="no mass"):
            sample_for_dwt(d, 0, 4)
        assert np.count_nonzero(sample_for_dwt(d, 0, 24)[1]) == 1


def test_sample_for_dwt_integer_arguments():
    d = bump_density(0.5, 0.25)
    ref_offset, ref_values = sample_for_dwt(d, -1, 8)
    for j0, M in ((-1.0, 8), (-1, 8.0), (np.int64(-1), np.float64(8.0))):
        offset, values = sample_for_dwt(d, j0, M)
        assert type(offset) is int
        assert offset == ref_offset and np.array_equal(values, ref_values)
    # a fractional j0 would sample on a grid that is not dyadic
    for j0, M in ((-0.5, 4), (0, 8.5), (0, float("nan")), (float("inf"), 4)):
        with pytest.raises(InvalidGrid, match="integer"):
            sample_for_dwt(d, j0, M)


def test_sample_for_dwt_refuses_windows_past_budget(monkeypatch):
    p = uniform_density(0.0, 1.0)
    # at the real budget: a spacing that underflows to zero is refused
    with pytest.raises(InvalidGrid, match="budget"):
        sample_for_dwt(p, 0, 1100)
    # and so is one whose level j0 + M no double holds; it used to escape
    # as OverflowError from 2.0 ** -(j0 + M)
    with pytest.raises(InvalidGrid, match="budget"):
        sample_for_dwt(uniform_density(-1e-12, 0.0), 10 ** 308, 10 ** 308)
    # 16 cells need at most 64 * (16 + 2) points, 32 cells more than 1200
    monkeypatch.setattr(densities, "_MAX_SAMPLE_POINTS", 1200)
    assert len(sample_for_dwt(p, 0, 4)[1]) == 16
    with pytest.raises(InvalidGrid, match="budget"):
        sample_for_dwt(p, 0, 5)


def test_sample_for_dwt_evaluates_in_blocks():
    # 2^16 cells of 64 points: all points at once would take 32 MiB for
    # the positions alone and over 2 KB a cell at the peak
    p = bump_density(0.5, 0.5)
    tracemalloc.start()
    try:
        _, values = sample_for_dwt(p, 0, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole domain, less the end cells where the bump underflows to 0
    assert 0.99 * (1 << 16) < len(values) <= 1 << 16
    assert peak <= 512 * len(values)


def test_sample_memory_does_not_grow_with_the_window():
    # beyond its result, sampling holds one block of points whatever the
    # window's size; it used to hold 17 MB of 2^12-cell blocks and the
    # window's cell indices
    p = bump_density(0.5, 0.5)
    excess = []
    for M in (14, 17):
        tracemalloc.start()
        try:
            _, values = sample_for_dwt(p, 0, M)
            excess.append(tracemalloc.get_traced_memory()[1] - values.nbytes)
        finally:
            tracemalloc.stop()
        assert 0.99 * (1 << M) < len(values) <= 1 << M
    assert max(excess) < 2 << 20
    assert excess[1] <= excess[0] + (64 << 10)


def test_sample_blocks_do_not_change_values(monkeypatch):
    d = dilate(bump_density(1.5, 0.5), 1.3, 1.5)
    ref_offset, ref_values = sample_for_dwt(d, -3, 12)
    # the reference takes three blocks of 256 cells, the patched run 96 of 7
    assert len(ref_values) > 2 * densities._BLOCK_POINTS // densities._CELL_POINTS
    monkeypatch.setattr(densities, "_BLOCK_POINTS", 7 * densities._CELL_POINTS)
    offset, values = sample_for_dwt(d, -3, 12)
    assert offset == ref_offset
    assert np.array_equal(values, ref_values)


def test_sample_rules_agree_for_smooth_density():
    # cell average = point value + h^2 p''/24 + ...; the bump's second
    # derivative peaks around 1e2, so 2^-11 spacing gives ~1e-5 agreement
    p = bump_density(0.5, 0.5)
    cell = sample_for_dwt(p, -1, 12)
    point = _point_values(p, cell, -1, 12)
    assert np.max(np.abs(point - cell[1])) < 1e-4


def test_cell_rule_preserves_difference_mass():
    # dilation changes the support width, so the point rule miscounts the
    # jump cells while cell averages keep the sampled masses matched
    p = uniform_density(1.0, 2.0)
    q = dilate(p, 0.73, 1.5)
    sp = sample_for_dwt(p, -3, 10)
    sq = sample_for_dwt(q, -3, 10)
    diff_point = _point_values(p, sp, -3, 10).sum() - _point_values(q, sq, -3, 10).sum()
    diff_cell = sp[1].sum() - sq[1].sum()
    assert abs(diff_cell) < abs(diff_point) / 16.0


def test_sampling_consistency_across_m():
    # sum of squared samples approximates the L2 norm of the density up to
    # the dyadic scale factor and must be stable as M grows
    p = bump_density(0.5, 0.5)
    totals = []
    for M in (10, 11):
        _, values = sample_for_dwt(p, -1, M)
        totals.append(float(np.sum(values ** 2)))
    assert abs(totals[0] - totals[1]) < 0.02 * totals[1]


def test_discretize_shared_domain():
    p = uniform_density(0.0, 1.0)
    m = discretize(p, 1000, domain=(0.0, 3.0))
    nz = np.count_nonzero(m.weights)
    assert 330 <= nz <= 338
    assert abs(m.weights.sum() - 1.0) < 1e-12
    vals = m.weights[m.weights > 0]
    assert np.allclose(vals, vals[0], atol=1e-15)


def test_discretize_symmetry():
    p = bump_density(0.5, 0.5)
    m = discretize(p, 1000)
    assert np.max(np.abs(m.weights - m.weights[::-1])) < 1e-12


def test_discretize_errors():
    p = uniform_density(0.0, 1.0)
    with pytest.raises(InvalidGrid):
        discretize(p, 1)
    with pytest.raises(InvalidGrid):
        discretize(p, 100, domain=(2.0, 3.0))
    for domain in ((1.0, 1.0), (2.0, 1.0)):
        with pytest.raises(InvalidInterval, match="invalid grid domain"):
            discretize(p, 100, domain=domain)


def test_discretize_takes_integral_float_counts():
    p = bump_density(0.5, 0.5)
    m = discretize(p, 10.0)
    assert np.array_equal(m.positions, discretize(p, 10).positions)
    assert np.array_equal(m.weights, discretize(p, 10).weights)
    for n in (10.5, float("nan"), float("inf"), "10"):
        with pytest.raises(InvalidGrid, match="grid points"):
            discretize(p, n)


def test_discretize_refuses_a_support_outside_the_domain():
    # the part outside used to be cut off and the rest renormalized, so at
    # param 2.5 a uniform_translate sweep recorded W_1 = 2.2523 for 2.5
    for d, domain, text in ((translate(uniform_density(0.0, 1.0), 2.5), (0.0, 3.0),
                             "[2.5, 3.5] reaches outside the grid domain [0.0, 3.0]"),
                            (uniform_density(0.0, 1.0), (0.5, 3.0),
                             "[0.0, 1.0] reaches outside the grid domain [0.5, 3.0]")):
        with pytest.raises(InvalidGrid, match=f"^support {re.escape(text)}$"):
            discretize(d, 100, domain=domain)
    # a support touching either end of the domain fits
    for shift in (0.0, 2.0):
        m = discretize(translate(uniform_density(0.0, 1.0), shift), 301, domain=(0.0, 3.0))
        held = m.positions[m.weights > 0]
        assert shift <= held[0] and held[-1] <= shift + 1.0 and len(held) >= 99


def test_discretize_evaluates_in_blocks():
    # the weights are filled a block at a time and normalized in place:
    # the grid, the weights and the measure's own checks, about 25 bytes a
    # point, where evaluating the whole grid at once peaks at 50
    p = bump_density(0.5, 0.5)
    n = 1 << 20
    tracemalloc.start()
    try:
        m = discretize(p, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(m) == n and peak < 28 * n
    assert np.array_equal(m.weights, p(m.positions) / p(m.positions).sum())


def test_discretize_refuses_grids_past_budget(monkeypatch):
    p = uniform_density(0.0, 1.0)
    monkeypatch.setattr(densities, "_MAX_SAMPLE_POINTS", 100)
    assert len(discretize(p, 100)) == 100
    with pytest.raises(InvalidGrid, match="2 to 100 grid points"):
        discretize(p, 101)


def test_discrete_measure_validation():
    with pytest.raises(InvalidGrid):
        DiscreteMeasure(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
    for pos, w in (([0.0, 1.0, 2.0], [0.5, 0.5]), ([[0.0, 1.0]], [[0.5, 0.5]]), ([], [])):
        with pytest.raises(InvalidGrid, match="matching 1-D arrays"):
            DiscreteMeasure(np.array(pos), np.array(w))
    with pytest.raises(UnbalancedMarginals):
        DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.6]))
    with pytest.raises(UnbalancedMarginals):
        DiscreteMeasure(np.array([0.0, 1.0]), np.array([-0.5, 1.5]))
    for pos in ([0.0, np.nan], [np.nan, 1.0], [0.0, np.inf], [-np.inf, 0.0]):
        with pytest.raises(InvalidGrid, match="finite"):
            DiscreteMeasure(np.array(pos), np.array([0.5, 0.5]))
    for w in ([np.nan, 1.0], [np.nan, np.nan], [np.inf, 0.0]):
        with pytest.raises(UnbalancedMarginals, match="finite"):
            DiscreteMeasure(np.array([0.0, 1.0]), np.array(w))


def test_discrete_measure_freezes_its_arrays():
    # the measure kept writable aliases of the caller's arrays: a write to
    # the positions moved exact_ws from 0.7071 to 0.4950, and a negative
    # weight the constructor refuses was taken as well
    x, w = np.array([0.0, 1.0, 2.0]), np.array([0.2, 0.3, 0.5])
    mu = DiscreteMeasure(x, w)
    nu = DiscreteMeasure(np.array([0.5, 1.5]), np.array([0.5, 0.5]))
    before = exact_ws(mu, nu, 0.5)[0]
    for arr, values in ((x, [0.0, 1.0, 1.0]), (w, [0.7, -0.2, 0.5]),
                        (mu.positions, [0.0, 1.0, 1.0]), (mu.weights, [0.7, -0.2, 0.5])):
        with pytest.raises(ValueError, match="read-only"):
            arr[:] = values
    assert exact_ws(mu, nu, 0.5)[0] == before
    # a refused measure leaves the caller's arrays as they were
    y = np.array([0.0, 0.0])
    with pytest.raises(InvalidGrid):
        DiscreteMeasure(y, np.array([0.5, 0.5]))
    y[:] = [0.0, 1.0]


@pytest.mark.parametrize("pos, w, error, message", [
    (["a", "b"], [0.5, 0.5], InvalidGrid, "positions"),
    ([[0.0], [1.0, 2.0]], [0.5, 0.5], InvalidGrid, "positions"),
    ([0j, 1j], [0.5, 0.5], InvalidGrid, "positions"),
    (np.array([0.0, 1.0], dtype=object), [0.5, 0.5], InvalidGrid, "positions"),
    ([0.0, 1.0], ["x", 0.5], UnbalancedMarginals, "weights"),
    ([0.0, 1.0], [[0.5], [0.25, 0.25]], UnbalancedMarginals, "weights"),
    ([0.0, 1.0], np.array([0.5, 0.5 + 0j]), UnbalancedMarginals, "weights"),
])
def test_discrete_measure_refuses_inputs_that_are_not_real_arrays(pos, w, error, message):
    # strings and ragged lists used to escape as ValueError, complex lists as
    # TypeError, and a complex array lost its imaginary part with a warning
    with pytest.raises(error, match=f"^{message} must be real numbers$"):
        DiscreteMeasure(pos, w)


@pytest.mark.parametrize("positions", [[-1e308, 1e308], [0.0, 1e308, -1e308, 1.0]],
                         ids=["increasing", "unordered"])
def test_discrete_measure_refuses_positions_whose_span_overflows(positions):
    # np.diff overflowed with a numpy warning before any refusal
    with pytest.raises(InvalidGrid, match="^positions span \\[-1e\\+308, 1e\\+308\\], wider "
                                          "than a double$"):
        DiscreteMeasure(positions, np.full(len(positions), 1 / len(positions)))


@pytest.mark.parametrize("support", [("a", "b"), None, (0, 1, 2), (0.0,), (1.0, math.nan)])
def test_density_refuses_a_support_that_is_not_a_pair_of_reals(support):
    # None and the strings used to escape as TypeError, three ends as ValueError
    with pytest.raises(InvalidInterval, match="^support must be finite with lo < hi, got "):
        Density(lambda x: np.ones_like(x), support)


@pytest.mark.parametrize("domain", [
    ("a", "b"), (0.0,), (0.0, math.inf), (math.nan, 1.0), 3.0,
    pytest.param((-1e308, 1e308), id="width-overflows"),
    pytest.param((0, 10**400), id="end-past-double")])
def test_discretize_refuses_a_domain_that_is_not_a_pair_of_finite_reals(domain):
    # the strings used to escape as numpy's DTypePromotionError and (0.0,)
    # as ValueError; (0.0, inf) warned from linspace before it was refused,
    # and so did (-1e308, 1e308), whose width overflows; 10**400 escaped as
    # numpy's UFuncTypeError
    with pytest.raises(InvalidInterval, match="^invalid grid domain "):
        discretize(uniform_density(0.0, 1.0), 10, domain=domain)


def test_uniform_density_refuses_ends_that_are_not_finite_reals():
    # "a" used to escape as TypeError from the comparison, 10**400 as
    # OverflowError
    for lo, hi in (("a", 1.0), (0.0, math.inf), (0.0, None), (0, 10**400), (-10**400, 0)):
        with pytest.raises(InvalidInterval, match="^need finite lo < hi"):
            uniform_density(lo, hi)


@pytest.mark.parametrize("make, message", [
    (lambda u: translate(u, "x"), "^shift must be a real number"),
    (lambda u: translate(u, None), "^shift must be a real number"),
    (lambda u: dilate(u, "x", 0.5), "^dilation factor must be positive"),
    (lambda u: dilate(u, 1j, 0.5), "^dilation factor must be positive"),
    (lambda u: dilate(u, 2.0, "x"), "^dilation centre must be a real number"),
    (lambda u: bump_density("x", 0.5), "^center must be a real number"),
    (lambda u: bump_density(0.5, "x"), "^half_width must be positive"),
    (lambda u: translate(u, 10**400), "^shift must be a real number"),
    (lambda u: dilate(u, 10**400, 0.5), "^dilation factor must be positive"),
    (lambda u: dilate(u, 2.0, -10**400), "^dilation centre must be a real number"),
    (lambda u: bump_density(10**400, 0.5), "^center must be a real number"),
    (lambda u: bump_density(0.5, 10**400), "^half_width must be positive"),
], ids=["translate-str", "translate-none", "dilate-factor-str", "dilate-factor-complex",
        "dilate-about-str", "bump-center-str", "bump-width-str", "translate-huge-int",
        "dilate-factor-huge-int", "dilate-about-huge-int", "bump-center-huge-int",
        "bump-width-huge-int"])
def test_transforms_refuse_arguments_that_are_not_reals(make, message):
    # each used to escape as TypeError from the support arithmetic, and an
    # integer past the double range as OverflowError
    with pytest.raises(InvalidInterval, match=message):
        make(uniform_density(0.0, 1.0))


@pytest.mark.parametrize("call", [
    lambda d: sample_for_dwt(d, -6, 13),
    lambda d: discretize(d, 10),
    lambda d: discretize(d, 10, domain=(0.0, 3.0)),
    lambda d: translate(d, 1.0),
    lambda d: dilate(d, 2.0, 0.5),
], ids=["sample_for_dwt", "discretize", "discretize-domain", "translate", "dilate"])
@pytest.mark.parametrize("d", ["x", None, (0.0, 1.0)])
def test_density_functions_refuse_what_is_not_a_density(call, d):
    # each used to escape as AttributeError from reading d.support
    with pytest.raises(InvalidInterval, match=f"^expected a Density, got {re.escape(repr(d))}$"):
        call(d)


@pytest.mark.parametrize("evaluator", ["x", None, 1.0, np.ones(3)])
def test_density_refuses_an_evaluator_that_is_not_callable(evaluator):
    # used to escape as TypeError ("... is not callable") from the mass check
    with pytest.raises(InvalidInterval, match="^the evaluator must be callable, got "):
        Density(evaluator, (0.0, 1.0))


@pytest.mark.parametrize("evaluator", [
    lambda x: np.full(np.shape(x), 1 + 1j), lambda x: np.full(np.shape(x), 1 + 0j),
    lambda x: "1", lambda x: np.full(np.shape(x), None),
], ids=["complex", "complex-zero-imag", "str", "object"])
def test_density_refuses_an_evaluator_that_returns_no_real_numbers(evaluator):
    # complex values were cast with a ComplexWarning that dropped their
    # imaginary parts, "1" read as 1.0 and None escaped as TypeError
    with pytest.raises(InvalidInterval, match="^the evaluator must return real numbers$"):
        Density(evaluator, (0.0, 1.0))


def test_mass_check_refuses_an_infinite_value():
    # it used to be refused only after np.diff warned of inf - inf
    with pytest.raises(InvalidInterval, match="^density is inf at x = "):
        Density(lambda x: np.where(x < 0.5, np.inf, 1.0), (0.0, 1.0))


def _half_inverse_sqrt(x):
    """1 / (2 sqrt(x)), of unit mass on (0, 1), and inf at 0 without a warning."""
    return np.divide(0.5, np.sqrt(x), out=np.full(np.shape(x), np.inf), where=x > 0)


def test_discretize_refuses_a_singular_end():
    # the mass check evaluates no point at 0, but discretize's grid starts
    # there: the weights were normalized by inf, with a warning, and only
    # DiscreteMeasure refused the NaNs that gave
    d = Density(_half_inverse_sqrt, (0.0, 1.0))
    assert d(0.0) == math.inf and d(0.25) == 1.0
    with pytest.raises(InvalidGrid,
                       match="^density is inf at grid point x = 0, not a finite weight$"):
        discretize(d, 100)


@pytest.mark.parametrize("x", ["abc", ["0.5"], [1j], [None, 0.5], [[0.5], [0.5, 0.6]]],
                         ids=["str", "str-list", "complex", "none", "ragged"])
def test_density_refuses_points_that_are_not_real_numbers(x):
    # strings used to escape from numpy as ValueError, and None read as NaN
    with pytest.raises(InvalidGrid, match="^density points must be real numbers$"):
        uniform_density(0.0, 1.0)(x)


@pytest.mark.parametrize("make, message", [
    (lambda: Density(lambda x: np.ones_like(x), (0.0, 1e-320)),
     "its width is too small for 262144 mass-check cells$"),
    (lambda: uniform_density(0.0, 5e-324), "its width is too small for 262144 mass-check cells$"),
    (lambda: uniform_density(-1.7e308, 1.7e308),
     "^need finite lo < hi, got \\(-1.7e\\+308, 1.7e\\+308\\)$"),
], ids=["subnormal", "least", "overflow"])
def test_density_refuses_a_support_width_the_mass_check_cannot_cut(make, message):
    # the first two escaped _mass as ZeroDivisionError, as their cells had
    # width 0; the last was refused only after numpy warned of an overflow,
    # and is now refused by the interval rule, whose width must be a double
    with pytest.raises(InvalidInterval, match=message):
        make()
