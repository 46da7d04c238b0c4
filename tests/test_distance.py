import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import CodedError
from waveot import distance, filters
from waveot.densities import (bump_density, dilate, discretize, sample_for_dwt,
                              translate, uniform_density)
from waveot.distance import (DistanceConfig, distance_matrix, distance_new,
                             distance_original, wavelet_distance)
from waveot.dwt import decompose_call_count, dwt_decompose
from waveot.embedding import embed, wlot_distance_matrix
from waveot.errors import (DomainOverflow, InvalidConfig, InvalidExponent, InvalidGrid,
                           InvalidInterval, UnknownWavelet)
from waveot.exact import exact_ws
from waveot.filters import build_wavelet_system
from waveot.simulate import EXACT_DOMAIN

CFG = DistanceConfig(s=0.5, j0=-6, M=13, wavelet="db10", formulation="new")


def test_config_validation():
    with pytest.raises(InvalidExponent):
        DistanceConfig(s=0.0, j0=-3, M=8)
    with pytest.raises(InvalidExponent):
        DistanceConfig(s=1.1, j0=-3, M=8)
    with pytest.raises(InvalidConfig):
        DistanceConfig(s=0.5, j0=-8, M=8)  # M must exceed -j0
    with pytest.raises(InvalidConfig):
        DistanceConfig(s=0.5, j0=-3, M=8, formulation="original", C0=1.0)
    with pytest.raises(InvalidConfig):
        DistanceConfig(s=0.5, j0=-3, M=8, formulation="alternative", C0=0.0)
    with pytest.raises(InvalidConfig):
        DistanceConfig(s=0.5, j0=-3, M=8, formulation="spectral")
    # the domain 2^1024 and the spacing 2^-1075 are not doubles
    with pytest.raises(InvalidConfig, match="doubles"):
        DistanceConfig(s=0.5, j0=-1024, M=1030)
    with pytest.raises(InvalidConfig, match="doubles"):
        DistanceConfig(s=0.5, j0=-11, M=1086)
    DistanceConfig(s=0.5, j0=-1023, M=2097)


@pytest.mark.parametrize("weights", [
    {"C1": -1.0}, {"C1": 0.0}, {"C1": float("nan")}, {"C1": float("inf")},
    {"C0": float("inf")}, {"C0": float("nan")},
], ids=["C1_negative", "C1_zero", "C1_nan", "C1_inf", "C0_inf", "C0_nan"])
def test_alternative_rejects_bad_weights(weights):
    # C1 = -1 used to give -0.3547 between a uniform and its 0.5-translate,
    # C1 = nan a NaN and C0 = inf an infinite distance
    with pytest.raises(InvalidConfig, match="finite C0 > 0 and C1 > 0"):
        DistanceConfig(s=0.5, j0=-4, M=10, formulation="alternative", **weights)


@pytest.mark.parametrize("s", ["0.5", None, 1j])
def test_config_refuses_an_exponent_that_is_not_real(s):
    # these used to escape as TypeError
    with pytest.raises(InvalidExponent, match=f"^s must lie in \\(0, 1\\], got {s}$"):
        DistanceConfig(s=s, j0=-3, M=8)


@pytest.mark.parametrize("weights", [{"C0": "x"}, {"C1": None}, {"C0": 1j}, {"C1": "2"},
                                     {"C0": 10**400}, {"C1": 10**400}])
def test_alternative_rejects_weights_that_are_not_real(weights):
    # C0 = "x" and C1 = None used to escape as TypeError; 10**400 was
    # accepted, and every distance then failed with OverflowError
    with pytest.raises(InvalidConfig, match="finite C0 > 0 and C1 > 0"):
        DistanceConfig(s=0.5, j0=-4, M=10, formulation="alternative", **weights)


@pytest.mark.parametrize("wavelet", ["nope", 5, None, "db21"])
def test_config_refuses_an_unknown_wavelet_when_it_is_built(wavelet):
    # these used to construct, and a sweep mass-checked all of its
    # densities before its first distance failed on the name
    with pytest.raises(UnknownWavelet, match=f"^{re.escape(str(wavelet))}$"):
        DistanceConfig(s=0.5, j0=-3, M=8, wavelet=wavelet)


def test_config_checks_its_wavelet_without_building_it(monkeypatch):
    # embedding._grid and wlot_distance make a DistanceConfig on every call;
    # it looks the name up among the systems the catalog built at import
    monkeypatch.setattr(filters, "WaveletSystem", None)
    assert DistanceConfig(s=0.5, j0=-3, M=8, wavelet=" DB2").wavelet == " DB2"


@pytest.mark.parametrize("weights", [{"C0": "x"}, {"C1": "x"}, {"C0": 1j}])
def test_new_refuses_weights_that_are_not_real(weights):
    # "new" ignores C0 and C1, but C1 = "x" used to pass silently
    with pytest.raises(InvalidConfig, match="^C0 and C1 must be real numbers, got C0 = "):
        DistanceConfig(s=0.5, j0=-3, M=8, **weights)
    DistanceConfig(s=0.5, j0=-3, M=8, C0=None, C1=2)


def test_default_c0_is_resolved_per_s():
    # an unset C0 means 0 for "original" and diam(EXACT_DOMAIN)^s for
    # "alternative", resolved at use, so replacing s re-resolves it
    p = bump_density(1.5, 0.5)
    q = dilate(p, 1.3, 1.5)
    diam = EXACT_DOMAIN[1] - EXACT_DOMAIN[0]
    assert distance._C0_DIAMETER == diam
    alt = DistanceConfig(s=1.0, j0=-4, M=12, wavelet="db4", formulation="alternative")
    orig = replace(alt, formulation="original")
    for s in (1.0, 0.5, 0.25):
        alt, orig = replace(alt, s=s), replace(orig, s=s)
        assert alt.C0 is None
        assert wavelet_distance(p, q, alt) == wavelet_distance(p, q, replace(alt, C0=diam ** s))
        assert wavelet_distance(p, q, orig) == wavelet_distance(p, q, replace(orig, C0=0.0))


def test_identical_inputs_give_zero():
    p = uniform_density(0.0, 1.0)
    assert distance_new(p, p, CFG) == 0.0
    orig = DistanceConfig(s=0.5, j0=-4, M=12, wavelet="db4", formulation="original")
    assert distance_original(p, p, orig) == 0.0
    alt = DistanceConfig(s=0.5, j0=-4, M=12, wavelet="db4",
                         formulation="alternative", C0=3.0 ** 0.5)
    assert distance_original(p, p, alt) == 0.0


def test_formulation_dispatch_guard():
    p = uniform_density(0.0, 1.0)
    q = translate(p, 0.5)
    orig = DistanceConfig(s=0.5, j0=-4, M=12, formulation="original")
    with pytest.raises(InvalidConfig):
        distance_new(p, q, orig)
    with pytest.raises(InvalidConfig):
        distance_original(p, q, CFG)


def test_symmetry_and_nonnegativity():
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = float(rng.uniform(0.0, 1.5))
        p = translate(uniform_density(0.0, 1.0), a)
        q = bump_density(float(rng.uniform(0.5, 2.0)), 0.4)
        d_pq = distance_new(p, q, CFG)
        d_qp = distance_new(q, p, CFG)
        assert d_pq >= 0.0
        assert abs(d_pq - d_qp) < 1e-12 * max(1.0, d_pq)


@pytest.mark.parametrize("formulation", ["new", "original", "alternative"])
def test_densities_the_grid_cannot_resolve_are_refused(formulation):
    # both sample to all zeros at M = 4, where a distance of 0.0 would be
    # wrong: the exact W_0.5 is 0.447
    p, q = uniform_density(0.5, 0.5 + 1e-9), uniform_density(0.7, 0.7 + 1e-9)
    cfg = DistanceConfig(s=0.5, j0=0, M=4, formulation=formulation)
    with pytest.raises(InvalidGrid, match="no mass"):
        wavelet_distance(p, q, cfg)
    with pytest.raises(InvalidGrid, match=r"^measure 0: density on \[0\.5, 0\.500000001\] carries "
                                          r"no mass on the sampling grid of spacing 0\.0625; "
                                          r"use a larger M$"):
        distance_matrix([p, q], cfg)


def test_triangle_inequality():
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = translate(uniform_density(0.0, 1.0), float(rng.uniform(0, 1.5)))
        q = bump_density(float(rng.uniform(0.5, 2.0)), 0.45)
        r = dilate(uniform_density(1.0, 2.0), float(rng.uniform(0.6, 1.4)), 1.5)
        dpq = distance_new(p, q, CFG)
        dqr = distance_new(q, r, CFG)
        dpr = distance_new(p, r, CFG)
        assert dpr <= dpq + dqr + 1e-9


def test_homogeneity_of_weighted_sum():
    # scaling a sampled window scales the weighted sum of its transform exactly
    sp = sample_for_dwt(uniform_density(0.0, 1.0), CFG.j0, CFG.M)
    system = build_wavelet_system(CFG.wavelet)

    def weighted_sum(values):
        pyr = dwt_decompose(values, system, CFG.M, "zero",
                            j_in=CFG.j0 + CFG.M, k_offset=sp.offset)
        return sum(2.0 ** (-(pyr.j0 + i) * (CFG.s + 0.5)) * np.sum(np.abs(d))
                   for i, d in enumerate(pyr.details))

    base = weighted_sum(sp.values)
    lam = 3.7
    scaled = weighted_sum(lam * sp.values)
    assert abs(scaled - lam * base) < 1e-9 * max(1.0, scaled)


def test_far_apart_supports_cost_memory_of_the_supports():
    # each density is transformed on its own window and a level difference
    # has no cell for the gap, so the 2040 * 2^11 cells between the two
    # supports are never laid out (143.5 MiB when the difference of the
    # samples was formed on the union of the windows)
    cfg = DistanceConfig(s=0.5, j0=-11, M=22)
    u = uniform_density(0.0, 1.0)
    far = translate(u, 2040.0)
    tracemalloc.start()
    try:
        d = distance_new(u, far, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert d == distance_new(far, u, cfg) > 0.0


def test_counterexample_periodicity_of_original():
    # translates by support_length + m give identical original distances,
    # while the exact cost keeps growing
    p = uniform_density(0.0, 1.0)
    T = 3  # db2 support length
    cfg = DistanceConfig(s=0.5, j0=-4, M=16, wavelet="db2", formulation="original")
    values = []
    exacts = []
    for m in range(5):
        q = translate(p, float(T + m))
        values.append(distance_original(p, q, cfg))
        mu = discretize(p, 200, domain=(0.0, 13.0))
        nu = discretize(q, 200, domain=(0.0, 13.0))
        exacts.append(exact_ws(mu, nu, 0.5)[0])
    assert np.max(np.abs(np.array(values) - values[0])) < 1e-8
    assert np.all(np.diff(exacts) > 0)


def test_alternative_positive_on_dilations():
    for b in (0.5, 0.8, 1.25, 1.5):
        p = uniform_density(1.0, 2.0)
        q = dilate(p, b, 1.5)
        cfg = DistanceConfig(s=0.5, j0=-4, M=14, wavelet="db10",
                             formulation="alternative", C0=3.0 ** 0.5)
        d = distance_original(p, q, cfg)
        assert np.isfinite(d) and d > 0.0


def test_translation_growth():
    p = uniform_density(0.0, 1.0)
    for s in (0.25, 0.5, 1.0):
        cfg = DistanceConfig(s=s, j0=-8, M=15, wavelet="db10", formulation="new")
        ds = [distance_new(p, translate(p, float(a)), cfg)
              for a in np.arange(0.1, 2.01, 0.1)]
        assert np.all(np.diff(ds) > 0)


def test_j0_monotonicity():
    # with the top level fixed, raising j0 drops coarse levels from the sum
    p = uniform_density(0.0, 1.0)
    q = translate(p, 0.6)
    top = 7
    ds = []
    for j0 in (-8, -6, -4):
        cfg = DistanceConfig(s=0.5, j0=j0, M=top - j0, wavelet="db10",
                             formulation="new")
        ds.append(distance_new(p, q, cfg))
    assert ds[0] >= ds[1] >= ds[2]


def test_distance_matrix_basics():
    p = uniform_density(0.0, 1.0)
    assert distance_matrix([p], CFG).shape == (1, 1)
    assert distance_matrix([p], CFG)[0, 0] == 0.0
    two = distance_matrix([p, uniform_density(0.0, 1.0)], CFG)
    assert np.allclose(two, 0.0, atol=1e-12)


def test_distance_matrix_matches_pairwise_and_grows():
    p = uniform_density(0.0, 1.0)
    ps = [translate(p, float(a)) for a in np.linspace(0.0, 2.0, 6)]
    mat = distance_matrix(ps, CFG)
    assert np.max(np.abs(mat - mat.T)) == 0.0
    for i, pi in enumerate(ps):
        for j in range(i + 1, len(ps)):
            assert abs(mat[i, j] - distance_new(pi, ps[j], CFG)) < 1e-12
    assert np.all(np.diff(mat[0, 1:]) > 0)


@pytest.mark.parametrize("formulation", ["new", "original", "alternative"])
def test_distance_matrix_transforms_each_density_once(formulation):
    # N transforms for N densities, not two a pair, and every entry is the
    # pair's wavelet_distance bit for bit
    cfg = replace(CFG, formulation=formulation)
    p = uniform_density(0.0, 1.0)
    ps = [p, translate(p, 0.4), dilate(bump_density(1.0, 0.4), 1.3, 1.0), translate(p, 2.0)]
    before = decompose_call_count()
    mat = distance_matrix(ps, cfg)
    assert decompose_call_count() - before == len(ps)
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            assert mat[i, j] == mat[j, i] == wavelet_distance(ps[i], ps[j], cfg)


def test_distance_matrix_error_context():
    p = uniform_density(0.0, 1.0)
    far = translate(p, 80.0)  # outside [0, 2^6]
    with pytest.raises(Exception, match=r"^measure 1: support \[80\.0, 81\.0\] exceeds the "
                                        r"sampling domain \[0, 64\.0\]$"):
        distance_matrix([p, far], CFG)


def test_distance_matrix_context_added_once_without_quotes(monkeypatch):
    def fail(p, cfg, num_levels):
        raise UnknownWavelet("db99")

    monkeypatch.setattr(distance, "_coefficients", fail)
    p = uniform_density(0.0, 1.0)
    with pytest.raises(UnknownWavelet) as exc:
        distance_matrix([p, p], CFG)
    assert str(exc.value) == "measure 0: db99"


def test_distance_matrix_keeps_foreign_exception(monkeypatch):
    err = CodedError(7, "solver state")

    def fail(p, cfg, num_levels):
        raise err

    monkeypatch.setattr(distance, "_coefficients", fail)
    p = uniform_density(0.0, 1.0)
    with pytest.raises(CodedError) as exc:
        distance_matrix([p, p], CFG)
    assert exc.value is err and exc.value.args == (7, "solver state")
    if hasattr(err, "add_note"):  # Python 3.11+
        assert err.__notes__ == ["measure 0"]


def test_distance_matrix_refuses_more_cells_than_budget_before_transforming(monkeypatch):
    # the N x N result had no bound; it is now checked before the first transform
    monkeypatch.setattr(distance, "_MAX_CELLS", 8)
    ps = [uniform_density(0.0, 1.0)] * 3
    before = decompose_call_count()
    with pytest.raises(InvalidGrid, match="^3 measures need 9 matrix cells, more than the "
                                          "budget of 8; use fewer measures$"):
        distance_matrix(ps, CFG)
    assert decompose_call_count() == before
    assert distance_matrix(ps[:2], CFG).shape == (2, 2)


_U = uniform_density(0.0, 1.0)


@pytest.mark.parametrize("call", [
    lambda cfg: wavelet_distance(_U, _U, cfg),
    lambda cfg: distance_new(_U, _U, cfg),
    lambda cfg: distance_original(_U, _U, cfg),
    lambda cfg: distance_matrix([_U, _U], cfg),
    lambda cfg: embed(_U, cfg),
    lambda cfg: wlot_distance_matrix([_U, _U], cfg),
], ids=["wavelet_distance", "distance_new", "distance_original", "distance_matrix",
        "embed", "wlot_distance_matrix"])
@pytest.mark.parametrize("cfg", ["cfg", None, {"s": 0.5, "j0": -6, "M": 13}])
def test_distances_refuse_a_config_that_is_not_a_distance_config(call, cfg):
    # each used to escape as AttributeError from reading cfg.formulation
    before = decompose_call_count()
    with pytest.raises(InvalidConfig, match=f"^expected a DistanceConfig, got {re.escape(repr(cfg))}$"):
        call(cfg)
    assert decompose_call_count() == before


def test_distances_refuse_a_measure_that_is_not_a_density():
    # both used to escape as AttributeError from reading d.support
    with pytest.raises(InvalidInterval, match="^expected a Density, got 'x'$"):
        wavelet_distance(_U, "x", CFG)
    with pytest.raises(InvalidInterval, match="^measure 1: expected a Density, got 'x'$"):
        distance_matrix([_U, "x"], CFG)


@pytest.mark.parametrize("measure, error, message", [
    ("x", InvalidInterval, "expected a Density, got 'x'"),
    (translate(_U, 1e3), DomainOverflow,
     "support [1000.0, 1001.0] exceeds the sampling domain [0, 64.0]"),
], ids=["not_a_density", "outside_the_domain"])
def test_matrices_look_at_a_lone_measure(measure, error, message):
    # distance_matrix returned [[0.]] for one measure without transforming it
    for matrix in (distance_matrix, wlot_distance_matrix):
        with pytest.raises(error, match=f"^measure 0: {re.escape(message)}$"):
            matrix([measure], CFG)


@pytest.mark.parametrize("matrix", [distance_matrix, wlot_distance_matrix])
def test_matrices_take_any_iterable_and_refuse_the_rest(matrix):
    # distance_matrix took only sized sequences (TypeError from len on an
    # iterator); both raised TypeError for a ps that is not iterable
    q = translate(_U, 0.5)
    expect = matrix([_U, q], CFG)
    assert np.array_equal(matrix(iter([_U, q]), CFG), expect)
    assert np.array_equal(matrix((p for p in (_U, q)), CFG), expect)
    for ps in (5, None):
        with pytest.raises(InvalidGrid, match=f"^measures must be an iterable of densities, "
                                              f"got {ps}$"):
            matrix(ps, CFG)


def test_wavelet_distance_dispatch():
    p = uniform_density(0.0, 1.0)
    q = translate(p, 0.4)
    assert wavelet_distance(p, q, CFG) == distance_new(p, q, CFG)
    orig = DistanceConfig(s=0.5, j0=-4, M=12, formulation="original")
    assert wavelet_distance(p, q, orig) == distance_original(p, q, orig)


@pytest.mark.parametrize("kwargs", [{"j0": -6.0, "M": 13}, {"j0": -6, "M": 13.0}])
def test_config_keeps_integral_levels_as_ints(kwargs):
    cfg = DistanceConfig(s=0.5, **kwargs)
    assert type(cfg.j0) is int and type(cfg.M) is int
    assert cfg == CFG
    p, q = uniform_density(0.0, 1.0), bump_density(1.5, 0.5)
    assert distance_new(p, q, cfg) == distance_new(p, q, CFG)


@pytest.mark.parametrize("kwargs", [{"j0": -6, "M": float("inf")},
                                    {"j0": -6, "M": float("nan")},
                                    {"j0": float("nan"), "M": 13},
                                    {"j0": -6, "M": 13.5}])
def test_config_rejects_non_integral_levels(kwargs):
    with pytest.raises(InvalidConfig):
        DistanceConfig(s=0.5, **kwargs)


@pytest.mark.parametrize("weights", [{"C0": np.array([1.0, 2.0])}, {"C1": np.array([1.0, 2.0])},
                                     {"C0": "0"}, {"C1": None}])
def test_original_refuses_weights_that_are_not_real(weights):
    # the arrays used to escape as numpy's ambiguous-truth ValueError
    with pytest.raises(InvalidConfig, match="^original formulation fixes C0 = 0 and C1 = 1$"):
        DistanceConfig(s=0.5, j0=-3, M=8, formulation="original", **weights)
    # "new" ignores the weights, but refuses them too
    with pytest.raises(InvalidConfig, match="^C0 and C1 must be real numbers"):
        DistanceConfig(s=0.5, j0=-3, M=8, **weights)
