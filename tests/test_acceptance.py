"""Acceptance suite: one test per criterion, each printing a PASS line
(run with `pytest tests/test_acceptance.py -v -s` to see them).
"""

import time

import numpy as np
import pytest

from helpers import (brute_force_lp, multiscale_part_densities, random_measure,
                     wavelet_part_densities)
from waveot.cli import main as cli_main
from waveot.densities import bump_density, translate, uniform_density
from waveot.distance import DistanceConfig, distance_new
from waveot.dwt import decompose_call_count, dwt_decompose, dwt_reconstruct
from waveot.embedding import embed, wlot_distance, wlot_distance_matrix
from waveot.exact import exact_ws, w1_cdf
from waveot.filters import build_wavelet_system, catalog_names
from waveot.simulate import SimulationSpec, run_simulation


def _report(num, label):
    print(f"\n[criterion {num:2d}] PASS: {label}")


def test_c01_perfect_reconstruction():
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    for name in catalog_names():
        system = build_wavelet_system(name)
        for m in (4, 8, 12):
            x = rng.standard_normal(2 ** m)
            for mode, levels in (("zero", min(5, m)), ("periodic", min(4, m))):
                pyr = dwt_decompose(x, system, levels, mode)
                err = np.max(np.abs(dwt_reconstruct(pyr, system) - x))
                assert err < 1e-10, (name, m, mode, err)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"reconstruction sweep took {elapsed:.2f}s"
    _report(1, f"IDWT(DWT(x)) = x to 1e-10 for all 20 wavelets ({elapsed:.2f}s)")


def test_c02_filter_identities():
    root2 = np.sqrt(2.0)
    for name in catalog_names():
        w = build_wavelet_system(name)
        L = len(w.g)
        assert abs(w.g.sum() - root2) < 1e-12
        assert abs(w.h.sum()) < 1e-12
        for m in range(1, L // 2):
            assert abs(np.dot(w.g[: L - 2 * m], w.g[2 * m:])) < 1e-12
        qmf = ((-1.0) ** np.arange(L)) * w.g[::-1]
        assert np.max(np.abs(w.h - qmf)) < 1e-12
    _report(2, "filter identities hold at 1e-12 for every catalog entry")


def test_c03_exact_solver_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(31)
    worst_w1 = 0.0
    for _ in range(200):
        mu = random_measure(rng, 200)
        nu = random_measure(rng, 200)
        cost, _ = exact_ws(mu, nu, 1.0)
        worst_w1 = max(worst_w1, abs(cost - w1_cdf(mu, nu)))
    assert worst_w1 < 1e-7

    worst_lp = 0.0
    for _ in range(30):
        mu = random_measure(rng, 12)
        nu = random_measure(rng, 12)
        for s in (0.25, 0.5, 1.0):
            cost, _ = exact_ws(mu, nu, s)
            worst_lp = max(worst_lp, abs(cost - brute_force_lp(mu, nu, s)))
    assert worst_lp < 1e-8
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(3, f"w1 oracle dev {worst_w1:.1e}, LP oracle dev {worst_lp:.1e} "
               f"({elapsed:.1f}s)")


def test_c04_jensen_and_convergence():
    rng = np.random.default_rng(7)
    worst_slack = 0.0
    for _ in range(20):
        mu = random_measure(rng, 60, min_atoms=5)
        nu = random_measure(rng, 60, min_atoms=5)
        w1 = w1_cdf(mu, nu)
        for s in (0.25, 0.5, 0.75):
            ws, _ = exact_ws(mu, nu, s)
            worst_slack = max(worst_slack, ws - w1 ** s)
        gaps = [abs(exact_ws(mu, nu, s)[0] - w1) for s in (0.9, 0.99, 0.999)]
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert gaps[2] < 0.01 * (1.0 + w1)
    assert worst_slack <= 1e-9
    _report(4, f"Jensen slack <= {worst_slack:.1e}; |W_s - W_1| decreasing "
               f"along s = 0.9, 0.99, 0.999 on 20 fixed pairs")


def test_c05_translation_counterexample():
    from waveot.densities import discretize
    from waveot.distance import distance_original
    p = uniform_density(0.0, 1.0)
    system = build_wavelet_system("db2")
    T = system.support_length
    assert T <= 4
    cfg = DistanceConfig(s=0.5, j0=-4, M=16, wavelet="db2", formulation="original")
    wavelet_vals = []
    exact_vals = []
    for m in range(5):
        q = translate(p, float(T + m))
        wavelet_vals.append(distance_original(p, q, cfg))
        mu = discretize(p, 300, domain=(0.0, 13.0))
        nu = discretize(q, 300, domain=(0.0, 13.0))
        exact_vals.append(exact_ws(mu, nu, 0.5)[0])
    spread = np.max(np.abs(np.array(wavelet_vals) - wavelet_vals[0]))
    assert spread < 1e-8
    assert np.all(np.diff(exact_vals) > 0)
    _report(5, f"original distance constant over shifts T+m (spread {spread:.1e}) "
               f"while exact W_s strictly increases")


def test_c05_pair_obeys_the_new_bound_and_breaks_the_original():
    """W_s <= D / a12 on c05's pair holds for the new weights, not the
    original ones.

    Write mu - nu as its approximation at j0 plus detail parts d_jk psi_jk,
    psi_jk(x) = 2^(j/2) psi(2^j x - k).  A part has zero mass, so its
    positive half can go to one point r and on to its negative half, which
    costs |d_jk| int |x - r|^s |psi_jk(x)| dx.  Substituting y = 2^j x - k
    turns that into 2^(-j(s+1/2)) |d_jk| int |y - r'|^s |psi(y)| dy, whose
    infimum over r' is 2^(-j(s+1/2)) |d_jk| / a12.  |x - y|^s is a metric
    for s <= 1, so W_s of a sum of zero-mass parts is at most the sum of
    their W_s, and

        W_s(mu, nu) <= D_new(mu, nu) / a12 + E,

    where D_new weighs level j by 2^(-j(s+1/2)) exactly so, and E is the
    approximation part's share plus the sampling error.  The test asserts
    the bound with E left out, so it checks the detail term alone.
    D_original keeps only the levels 0 <= j < j0 + M and weighs the
    approximation at level 0 by C0 = 0, so it drops the coarse levels that
    carry a shift: it does not move as the shift grows (c05), while W_s
    does, and the same bound fails there, by more at each shift.
    """
    from waveot.cascade import estimate_constants
    from waveot.densities import discretize
    from waveot.distance import distance_original
    db2 = build_wavelet_system("db2")
    a12 = estimate_constants(db2, 0.5).a12
    new = DistanceConfig(s=0.5, j0=-4, M=16, wavelet="db2")
    original = DistanceConfig(s=0.5, j0=-4, M=16, wavelet="db2", formulation="original")
    p = uniform_density(0.0, 1.0)
    new_ratios, original_ratios = [], []
    for m in range(5):
        q = translate(p, float(db2.support_length + m))
        ws = exact_ws(discretize(p, 1000, (0.0, 13.0)), discretize(q, 1000, (0.0, 13.0)), 0.5)[0]
        new_ratios.append(ws * a12 / distance_new(p, q, new))
        original_ratios.append(ws * a12 / distance_original(p, q, original))
    # 0.12-0.16 and 1.46-2.23
    assert max(new_ratios) < 1.0, new_ratios
    assert min(original_ratios) > 1.0 and np.all(np.diff(original_ratios) > 0), original_ratios
    _report(5, f"W_s a12 / D_new <= {max(new_ratios):.3f} < 1 over shifts T+m, while "
               f"W_s a12 / D_original rises {original_ratios[0]:.2f} -> {original_ratios[-1]:.2f}")


def test_c06_multiscale_identity():
    s = 0.5
    worst = 0.0
    for a_coeffs in ((1.0, 1.0, 1.0), (1.0, 2.0, 4.0), (5.0, 0.0, 3.0)):
        mu, nu, c = multiscale_part_densities("db10", a_coeffs, 2, s)
        cfg = DistanceConfig(s=s, j0=-3, M=19, wavelet="db10", formulation="new")
        d = distance_new(mu, nu, cfg)
        expect = sum(a_coeffs) / c
        rel = abs(d - expect) / expect
        worst = max(worst, rel)
        assert rel < 0.01, (a_coeffs, rel)
    _report(6, f"level-sum identity holds for three coefficient patterns "
               f"(worst rel err {worst:.2e} < 1%)")


def test_c07_wavelet_part_identity():
    jp, kp = 1, 0
    mu, nu, c = wavelet_part_densities("db10", jp, kp)
    worst = 0.0
    for s in (0.25, 0.5):
        cfg = DistanceConfig(s=s, j0=-4, M=18, wavelet="db10", formulation="new")
        d = distance_new(mu, nu, cfg)
        expect = 2.0 ** (-jp * (s + 0.5)) / c
        rel = abs(d - expect) / expect
        worst = max(worst, rel)
        assert rel < 0.01, (s, rel)
    _report(7, f"positive/negative wavelet-part identity holds for s in "
               f"{{1/4, 1/2}} (worst rel err {worst:.2e} < 1%)")


@pytest.fixture(scope="module")
def translation_sims():
    out = {}
    for formulation in ("new", "original"):
        cfg = DistanceConfig(s=1.0, j0=-11, M=18, wavelet="db10",
                             formulation=formulation)
        spec = SimulationSpec(family="uniform_translate", cfg=cfg,
                              s_values=(1.0,), count=20, exact_grid_points=300)
        out[formulation] = run_simulation(spec)
    return out


def test_c08_translation_tracking(translation_sims):
    devs = {}
    for formulation, rows in translation_sims.items():
        sel = [r for r in rows if 0.4 <= r.param <= 2.0]
        devs[formulation] = max(abs(r.normalized_value - r.exact_value)
                                / r.exact_value for r in sel)
    fitted = translation_sims["new"][0].norm_constant
    assert 1.0 / 140.0 <= fitted <= 1.0 / 90.0, fitted
    assert devs["new"] < 0.15, devs
    assert devs["original"] > 0.15, devs
    _report(8, f"new formulation tracks exact W1 to {devs['new']:.1%} "
               f"(fitted 1/c = {1 / fitted:.0f}); original plateaus at "
               f"{devs['original']:.1%}")


def test_c09_dilation_tracking():
    cfg = DistanceConfig(s=1.0, j0=-9, M=18, wavelet="db10", formulation="new")
    spec = SimulationSpec(family="bump_dilate", cfg=cfg, s_values=(0.5, 1.0),
                          count=20, exact_grid_points=1000)
    rows = run_simulation(spec)
    worst = 0.0
    for s in (0.5, 1.0):
        sel = [r for r in rows if r.s == s and r.exact_value > 0.0]
        dev = max(abs(r.normalized_value - r.exact_value) / r.exact_value
                  for r in sel)
        worst = max(worst, dev)
        assert dev < 0.10, (s, dev)
    _report(9, f"dilation tracking within {worst:.1%} of exact W_s "
               f"for s in {{1/2, 1}} (bound 10%)")


def test_c10_wlot_consistency():
    cfg = DistanceConfig(s=0.5, j0=-6, M=14, wavelet="db10", formulation="new")
    rng = np.random.default_rng(50)
    base = uniform_density(0.0, 1.0)
    worst = 0.0
    for _ in range(50):
        if rng.uniform() < 0.5:
            p = translate(base, float(rng.uniform(0.0, 2.0)))
        else:
            p = bump_density(float(rng.uniform(0.4, 2.2)), float(rng.uniform(0.2, 0.5)))
        q = bump_density(float(rng.uniform(0.4, 2.2)), float(rng.uniform(0.2, 0.5)))
        diff = abs(wlot_distance(embed(p, cfg), embed(q, cfg), cfg.s)
                   - distance_new(p, q, cfg))
        worst = max(worst, diff)
    assert worst < 1e-10

    ps = [translate(base, float(a)) for a in np.linspace(0.0, 2.0, 9)]
    before = decompose_call_count()
    wlot_distance_matrix(ps, cfg)
    calls = decompose_call_count() - before
    assert calls == len(ps)

    sl = build_wavelet_system("db10").support_length
    for p in (uniform_density(0.0, 1.0), bump_density(0.5, 0.5)):
        for j, n in embed(p, cfg).level_counts().items():
            assert n <= 2.0 ** j * 1.0 + 2 * sl + 2
    _report(10, f"wlot == distance_new to {worst:.1e}; {calls} transforms for "
                f"{len(ps)} measures; per-level sparsity bound holds")


def test_c11_stability_sweeps():
    consts = {1.0: [], 0.5: []}
    for M in (14, 16, 18):
        cfg = DistanceConfig(s=1.0, j0=-11, M=M, wavelet="db10", formulation="new")
        spec = SimulationSpec(family="bump_translate", cfg=cfg,
                              s_values=(1.0, 0.5), count=20, exact_grid_points=300)
        rows = run_simulation(spec)
        for s in (1.0, 0.5):
            consts[s].append([r for r in rows if r.s == s][0].norm_constant)
    spreads = {}
    for s, cs in consts.items():
        cs = np.array(cs)
        spreads[s] = (cs.max() - cs.min()) / cs.min()
        assert spreads[s] < 0.10, (s, cs)

    devs = []
    for j0, M in ((-5, 12), (-8, 15), (-11, 18)):
        cfg = DistanceConfig(s=1.0, j0=j0, M=M, wavelet="db10", formulation="new")
        spec = SimulationSpec(family="bump_translate", cfg=cfg, s_values=(1.0,),
                              count=20, exact_grid_points=300)
        rows = run_simulation(spec)
        sel = [r for r in rows if r.param >= 1.5]
        devs.append(max(abs(r.normalized_value - r.exact_value) / r.exact_value
                        for r in sel))
    assert devs[0] > devs[1] > devs[2], devs
    _report(11, f"normalization constants vary {max(spreads.values()):.1%} "
                f"across M in {{14,16,18}}; large-shift tracking error "
                f"{devs[0]:.3f} > {devs[1]:.3f} > {devs[2]:.3f} as j0 drops")


def test_c12_deterministic_csv(tmp_path):
    args = ["simulate", "--family", "bump_translate", "--s", "1.0", "0.5",
            "--j0", "-8", "--levels", "14", "--count", "6",
            "--exact-points", "150"]
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _report(12, "repeated simulate invocations emit byte-identical CSV")
