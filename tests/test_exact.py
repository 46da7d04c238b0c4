import tracemalloc

import numpy as np
import pytest

from helpers import brute_force_lp, random_measure
from waveot.densities import DiscreteMeasure, discretize, translate, uniform_density
from waveot import exact
from waveot.errors import (InvalidExponent, InvalidGrid, SolverDidNotConverge,
                           UnbalancedMarginals)
from waveot.exact import exact_ws, w1_cdf
from waveot.simulate import EXACT_DOMAIN, FAMILIES


def delta(x):
    return DiscreteMeasure(np.array([x]), np.array([1.0]))


def test_single_pair():
    cost, plan = exact_ws(delta(0.0), delta(2.0), 0.5)
    assert abs(cost - np.sqrt(2.0)) < 1e-14
    # the plan is its (source, target, mass) entries, with no wrapper around them
    assert plan == [(0, 0, 1.0)]
    assert type(plan) is list


def test_forced_plan():
    mu = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    nu = delta(0.5)
    cost, _ = exact_ws(mu, nu, 1.0)
    assert abs(cost - 0.5) < 1e-14


def test_uniform_shift_overlap():
    # mass 1 - a stays in the overlap, mass a crosses distance ~1
    p = uniform_density(0.0, 1.0)
    q = translate(p, 0.4)
    mu = discretize(p, 50, domain=(0.0, 1.4))
    nu = discretize(q, 50, domain=(0.0, 1.4))
    cost, _ = exact_ws(mu, nu, 0.5)
    assert abs(cost - brute_force_lp(mu, nu, 0.5)) < 1e-8
    assert abs(cost - 0.4) < 0.05


def test_against_brute_force_lp():
    rng = np.random.default_rng(42)
    for _ in range(10):
        mu = random_measure(rng, 12)
        nu = random_measure(rng, 12)
        for s in (0.25, 0.5, 1.0):
            cost, _ = exact_ws(mu, nu, s)
            assert abs(cost - brute_force_lp(mu, nu, s)) < 1e-8


def test_w1_cdf_examples():
    assert abs(w1_cdf(delta(0.0), delta(3.0)) - 3.0) < 1e-14
    p = uniform_density(0.0, 1.0)
    mu = discretize(p, 1000)
    for a in (0.3, 1.7):
        nu = DiscreteMeasure(mu.positions + a, mu.weights)
        assert abs(w1_cdf(mu, nu) - a) < 1e-6
    assert w1_cdf(mu, mu) == 0.0


def test_w1_oracle_agreement():
    rng = np.random.default_rng(100)
    for _ in range(30):
        mu = random_measure(rng, 200)
        nu = random_measure(rng, 200)
        cost, _ = exact_ws(mu, nu, 1.0)
        assert abs(cost - w1_cdf(mu, nu)) < 1e-7


def test_plan_marginals():
    rng = np.random.default_rng(17)
    mu = random_measure(rng, 80)
    nu = random_measure(rng, 60)
    _, plan = exact_ws(mu, nu, 0.5)
    rows = np.zeros(len(mu))
    cols = np.zeros(len(nu))
    for i, j, f in plan:
        assert f >= 0.0
        rows[i] += f
        cols[j] += f
    assert np.max(np.abs(rows - mu.weights)) < 1e-9
    assert np.max(np.abs(cols - nu.weights)) < 1e-9


def test_jensen_bound():
    rng = np.random.default_rng(21)
    for _ in range(10):
        mu = random_measure(rng, 40)
        nu = random_measure(rng, 40)
        w1 = w1_cdf(mu, nu)
        for s in (0.25, 0.5, 0.75):
            ws, _ = exact_ws(mu, nu, s)
            assert ws <= w1 ** s + 1e-9


def test_convergence_to_w1():
    rng = np.random.default_rng(7)
    for _ in range(5):
        mu = random_measure(rng, 50)
        nu = random_measure(rng, 50)
        w1 = w1_cdf(mu, nu)
        gaps = [abs(exact_ws(mu, nu, s)[0] - w1) for s in (0.9, 0.99, 0.999)]
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert gaps[2] < 0.01 * (1.0 + w1)


def test_metric_properties():
    rng = np.random.default_rng(33)
    mu = random_measure(rng, 30)
    nu = random_measure(rng, 30)
    for s in (0.5, 1.0):
        ab, _ = exact_ws(mu, nu, s)
        ba, _ = exact_ws(nu, mu, s)
        assert abs(ab - ba) < 1e-9
        same, _ = exact_ws(mu, mu, s)
        assert same < 1e-12


def test_translation_invariance():
    rng = np.random.default_rng(4)
    mu = random_measure(rng, 25)
    nu = random_measure(rng, 25)
    base, _ = exact_ws(mu, nu, 0.5)
    mu2 = DiscreteMeasure(mu.positions + 17.25, mu.weights)
    nu2 = DiscreteMeasure(nu.positions + 17.25, nu.weights)
    shifted, _ = exact_ws(mu2, nu2, 0.5)
    assert abs(base - shifted) < 1e-9


def test_zero_weight_atoms_pruned():
    mu = DiscreteMeasure(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.0, 0.5]))
    nu = DiscreteMeasure(np.array([0.5, 1.5]), np.array([0.5, 0.5]))
    cost, plan = exact_ws(mu, nu, 1.0)
    assert abs(cost - 0.5) < 1e-12
    assert all(i != 1 for i, _, _ in plan)


def merged_common_mass(mu, nu):
    """Reference for the common-mass reduction: a two-pointer merge over
    the positive atoms, matching min(a, b) at each coincident position."""
    ia, ib = np.flatnonzero(mu.weights > 0), np.flatnonzero(nu.weights > 0)
    entries, i, j = [], 0, 0
    while i < len(ia) and j < len(ib):
        x, y = mu.positions[ia[i]], nu.positions[ib[j]]
        if x == y:
            t = min(mu.weights[ia[i]], nu.weights[ib[j]])
            entries.append((int(ia[i]), int(ib[j]), float(t)))
        i += x <= y
        j += y <= x
    return entries


def test_common_mass_reduction_matches_merge():
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, 3.0, 25)
    for _ in range(50):
        measures = []
        for _ in range(2):
            idx = np.sort(rng.choice(len(grid), int(rng.integers(1, 15)), replace=False))
            w = rng.integers(0, 4, len(idx)).astype(float)
            if w.sum() == 0:
                w[-1] = 1.0
            measures.append(DiscreteMeasure(grid[idx], w / w.sum()))
        ref = merged_common_mass(*measures)
        assert exact_ws(*measures, 0.5)[1][:len(ref)] == ref


def test_invalid_exponent():
    with pytest.raises(InvalidExponent):
        exact_ws(delta(0.0), delta(1.0), 0.0)
    with pytest.raises(InvalidExponent):
        exact_ws(delta(0.0), delta(1.0), 1.2)
    for s in ["0.5", None, 1j]:  # these used to escape as TypeError
        with pytest.raises(InvalidExponent, match=f"^s must lie in \\(0, 1\\], got {s}$"):
            exact_ws(delta(0.0), delta(1.0), s)


def test_unbalanced_rejected():
    good = delta(0.0)
    # a NaN sum compares false both ways, so the check must not pass it
    for weights in ([0.9], [np.nan]):
        bad = DiscreteMeasure.__new__(DiscreteMeasure)
        object.__setattr__(bad, "positions", np.array([1.0]))
        object.__setattr__(bad, "weights", np.array(weights))
        with pytest.raises(UnbalancedMarginals):
            exact_ws(good, bad, 0.5)
        with pytest.raises(UnbalancedMarginals):
            w1_cdf(good, bad)


def test_residual_budget_checked_before_the_cost_matrix(monkeypatch):
    def no_cost_matrix(*args):
        raise AssertionError("cost matrix built")

    uniform4 = np.full(4, 0.25)
    mu = DiscreteMeasure(np.arange(4.0), uniform4)
    monkeypatch.setattr(exact, "_MAX_RESIDUAL_CELLS", 15)
    monkeypatch.setattr(exact, "abs_power", no_cost_matrix)
    with pytest.raises(InvalidGrid, match="4 x 4 residual"):
        exact_ws(mu, DiscreteMeasure(np.arange(4.0) + 0.5, uniform4), 0.5)
    # common mass is matched first, so only the residual counts
    assert exact_ws(mu, mu, 0.5)[0] == 0.0
    monkeypatch.undo()
    monkeypatch.setattr(exact, "_MAX_RESIDUAL_CELLS", 12)
    # shares the atom at 0 with mu: a 3 x 3 residual
    nu = DiscreteMeasure(np.array([0.0, 0.5, 1.5, 2.5]), uniform4)
    assert abs(exact_ws(mu, nu, 1.0)[0] - w1_cdf(mu, nu)) < 1e-12


def count_pivots(monkeypatch):
    """Count the basis-tree walks of every solve; a solve of k pivots
    makes k + 1 of them, the full pass from row 0 and one walk below the
    subtree that each pivot's leaving arc cuts off."""
    calls = []
    tree_duals = exact._tree_duals

    def counted(*args):
        calls.append(None)
        return tree_duals(*args)

    monkeypatch.setattr(exact, "_tree_duals", counted)
    return calls


def test_pivot_budget_counts_pivots(monkeypatch):
    rng = np.random.default_rng(9)
    mu = random_measure(rng, 8, min_atoms=8)
    nu = random_measure(rng, 8, min_atoms=8)
    calls = count_pivots(monkeypatch)
    cost, _ = exact_ws(mu, nu, 0.5)
    pivots = len(calls) - 1
    assert pivots >= 2
    monkeypatch.setattr(exact, "_PIVOTS_PER_NODE", 0)
    monkeypatch.setattr(exact, "_PIVOTS_EXTRA", pivots)
    assert exact_ws(mu, nu, 0.5)[0] == cost
    monkeypatch.setattr(exact, "_PIVOTS_EXTRA", pivots - 1)
    with pytest.raises(SolverDidNotConverge, match=f"within {pivots - 1} pivots"):
        exact_ws(mu, nu, 0.5)


@pytest.mark.parametrize("family, param", [("uniform_translate", 0.7),
                                           ("uniform_dilate", 1.7)])
def test_nested_start_leaves_few_pivots(monkeypatch, family, param):
    # equal weights tie at every match of the nested plan; completing its
    # forest through one hub atom cost 34,511 degenerate pivots on the first
    base, transform, _ = FAMILIES[family]
    mu = discretize(base(), 1000, domain=EXACT_DOMAIN)
    nu = discretize(transform(param), 1000, domain=EXACT_DOMAIN)
    calls = count_pivots(monkeypatch)
    exact_ws(mu, nu, 0.5)
    assert 1 <= len(calls) <= 4


@pytest.mark.parametrize("s", [0.5, 0.25])
def test_equal_weights_on_own_supports_terminate(monkeypatch, s):
    # each measure discretised on its own support: block pricing takes
    # 250 pivots from the start, and 240 of them move no value, only eps;
    # without the eps Dantzig pricing with a fallback to Bland's rule ran
    # through its whole budget of 49,600 pivots here
    mu = discretize(uniform_density(0.0, 1.0), 100)
    nu = discretize(uniform_density(0.1, 1.1), 100)
    calls = count_pivots(monkeypatch)
    cost, _ = exact_ws(mu, nu, s)
    assert abs(cost - brute_force_lp(mu, nu, s)) < 1e-8
    assert len(calls) - 1 == 250


@pytest.mark.parametrize("s, pivots", [(0.5, 740), (0.25, 796)])
def test_own_support_pivot_counts_are_pinned(monkeypatch, s, pivots):
    # a 400-point uniform pair shifted by 0.3, each on its own support: the
    # pivot path is deterministic, so a change of pricing or of the tree
    # pass that alters it shows here (Dantzig pricing over all m x n cells
    # took 552 and 556 pivots; blocks of ceil(sqrt(m)) rows take more)
    mu = discretize(uniform_density(0.0, 1.0), 400)
    nu = discretize(uniform_density(0.3, 1.3), 400)
    calls = count_pivots(monkeypatch)
    exact_ws(mu, nu, s)
    assert len(calls) - 1 == pivots


def test_own_support_pair_of_1000_points(monkeypatch):
    # Dantzig pricing over all m x n cells and a full tree pass a pivot
    # took 1,392 pivots and 6.3-6.9 s here on 2 CPUs
    mu = discretize(uniform_density(0.0, 1.0), 1000)
    nu = discretize(uniform_density(0.3, 1.3), 1000)
    calls = count_pivots(monkeypatch)
    cost, _ = exact_ws(mu, nu, 0.5)
    assert abs(cost - 0.31123177177140393) <= 1e-12 * 0.31123177177140393
    assert len(calls) - 1 == 1973


def test_solver_memory_per_residual_cell():
    # the cost matrix is 8 bytes a cell and the basis O(m + n); pricing
    # over all m x n cells at once held 19 bytes a cell here
    mu = discretize(uniform_density(0.0, 1.0), 300)
    nu = discretize(uniform_density(0.3, 1.3), 600)
    assert np.intersect1d(mu.positions, nu.positions).size == 0
    tracemalloc.start()
    try:
        exact_ws(mu, nu, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13 * 300 * 600


def test_nested_start_places_rounding_leftovers():
    # the rows sum to 2^-52 more than the columns, and the scan's rounding
    # leaves the last row apart: a completion arc must join it
    a = np.array([0.7, 0.5, 0.6])
    b = np.array([1.1999999999999997, 0.5999999999999999])
    flows = exact._nested_start(np.array([1.0, 2.0, 3.0]), np.array([0.0, 4.0]), a, b)
    assert len(flows) == 3 + 2 - 1
    rows, cols = np.zeros(3), np.zeros(2)
    for (i, j), (f, _) in flows.items():
        assert f >= 0.0
        rows[i] += f
        cols[j] += f
    assert np.max(np.abs(rows - a)) < 1e-15
    assert np.max(np.abs(cols - b)) < 1e-15


def test_exact_ws_refuses_a_measure_that_is_not_a_discrete_measure():
    mu = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(InvalidGrid, match="^expected a DiscreteMeasure, got 'x'$"):
        exact_ws(mu, "x", 0.5)


@pytest.mark.parametrize("solve", [lambda mu, nu: exact_ws(mu, nu, 0.5), w1_cdf],
                         ids=["exact_ws", "w1_cdf"])
def test_solvers_refuse_measures_whose_positions_together_overflow(solve):
    # each measure spans nothing, but their differences overflow: exact_ws
    # returned inf (the true W_0.5 is 1.414e154) after three numpy warnings
    mu, nu = DiscreteMeasure([-1e308], [1.0]), DiscreteMeasure([1e308], [1.0])
    for pair in ((mu, nu), (nu, mu)):
        with pytest.raises(InvalidGrid, match="^the measures span \\[-1e\\+308, 1e\\+308\\], "
                                              "wider than a double$"):
            solve(*pair)


def test_w1_cdf_refuses_a_measure_that_is_not_a_discrete_measure():
    mu = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(InvalidGrid, match="^expected a DiscreteMeasure, got 'x'$"):
        w1_cdf("x", mu)


@pytest.mark.parametrize("field, values, error, message", [
    ("weights", [-0.25, 0.75, 0.25, 0.25], UnbalancedMarginals,
     "weights must be finite and nonnegative"),
    ("positions", [0.0, 1.0, -5.0, 3.0], InvalidGrid,
     "positions must be finite and strictly increasing")], ids=["weights", "positions"])
@pytest.mark.parametrize("solve", [lambda mu, nu: exact_ws(mu, nu, 0.5), w1_cdf],
                         ids=["exact_ws", "w1_cdf"])
def test_solvers_refuse_a_measure_edited_through_a_view(field, values, error, message, solve):
    # a measure built on views keeps them, and their writable buffer can
    # change it after the checks; each solver re-reads both measures by
    # DiscreteMeasure's own rules.  Only the weight sum was read before,
    # so exact_ws returned 0.7071 (weights) and 1.2460 (positions) here,
    # and w1_cdf 1.0 and 4.75
    buffers = {"positions": np.array([0.0, 1.0, 2.0, 3.0]), "weights": np.full(4, 0.25)}
    mu = DiscreteMeasure(**{name: buffer[:] for name, buffer in buffers.items()})
    nu = DiscreteMeasure(np.array([0.5, 1.5]), np.array([0.5, 0.5]))
    buffers[field][:] = values
    for pair in ((mu, nu), (nu, mu)):
        with pytest.raises(error, match=f"^{message}$"):
            solve(*pair)
