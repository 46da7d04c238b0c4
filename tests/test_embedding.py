import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import waveot.embedding
from helpers import wavelet_part_densities
from waveot.densities import Density, bump_density, translate, uniform_density
from waveot.distance import DistanceConfig, distance_new
from waveot.dwt import decompose_call_count
from waveot.embedding import (WlotVector, embed, from_text, prune, read_wlot, to_text,
                              wlot_distance, wlot_distance_matrix, write_wlot)
from waveot.errors import (ConfigMismatch, InvalidConfig, InvalidExponent, InvalidGrid,
                           MalformedWlot, ShapeMismatch)
from waveot.filters import build_wavelet_system

CFG = DistanceConfig(s=0.5, j0=-6, M=13, wavelet="db10", formulation="new")


def test_zero_difference():
    p = uniform_density(0.0, 1.0)
    u = embed(p, CFG)
    assert wlot_distance(u, u, 0.5) == 0.0


def test_levels_within_range():
    v = embed(bump_density(0.7, 0.3), CFG)
    levels = {j for (j, _) in v.entries}
    assert min(levels) >= CFG.j0
    assert max(levels) <= CFG.j0 + CFG.M - 1


def test_matches_distance_new():
    rng = np.random.default_rng(14)
    p = uniform_density(0.0, 1.0)
    for _ in range(8):
        q = bump_density(float(rng.uniform(0.4, 2.0)), float(rng.uniform(0.2, 0.5)))
        r = translate(p, float(rng.uniform(0.0, 2.0)))
        d_vec = wlot_distance(embed(q, CFG), embed(r, CFG), CFG.s)
        d_ref = distance_new(q, r, CFG)
        assert abs(d_vec - d_ref) < 1e-10


def test_single_dominant_entry_for_wavelet_parts():
    mu, nu, _c = wavelet_part_densities("db10", 1, 0)
    cfg = DistanceConfig(s=0.5, j0=-4, M=16, wavelet="db10", formulation="new")
    u = embed(mu, cfg)
    v = embed(nu, cfg)
    diff = {}
    for key in u.entries.keys() | v.entries.keys():
        diff[key] = u.entries.get(key, 0.0) - v.entries.get(key, 0.0)
    peak_key = max(diff, key=lambda k: abs(diff[k]))
    assert peak_key == (1, 0)
    rest = max(abs(val) for key, val in diff.items() if key != peak_key)
    assert rest < 0.05 * abs(diff[peak_key])


def test_metric_axioms_on_vectors():
    u = embed(uniform_density(0.0, 1.0), CFG)
    v = embed(bump_density(1.0, 0.5), CFG)
    w = embed(translate(uniform_density(0.0, 1.0), 0.7), CFG)
    duv = wlot_distance(u, v, 0.5)
    dvu = wlot_distance(v, u, 0.5)
    assert duv >= 0.0 and abs(duv - dvu) < 1e-12 * max(1.0, duv)
    assert wlot_distance(u, w, 0.5) <= duv + wlot_distance(v, w, 0.5) + 1e-12


def test_embed_refuses_other_formulations():
    # embeddings reproduce "new" only; another config must not silently
    # give "new" distances
    ps = [uniform_density(0.0, 1.0), bump_density(0.7, 0.3)]
    for formulation in ("original", "alternative"):
        cfg = replace(CFG, formulation=formulation)
        with pytest.raises(InvalidConfig, match="'new'"):
            embed(ps[0], cfg)
        with pytest.raises(InvalidConfig):
            wlot_distance_matrix(ps, cfg)


def test_wlot_distance_refuses_exponents_outside_the_unit_interval():
    u = embed(uniform_density(0.0, 1.0), CFG)
    v = embed(bump_density(1.0, 0.5), CFG)
    for s in (0.0, -0.5, 1.5, float("nan"), float("inf")):
        with pytest.raises(InvalidExponent):
            wlot_distance(u, v, s)


def test_embed_refuses_a_density_the_grid_cannot_resolve():
    cfg = DistanceConfig(s=0.5, j0=0, M=4, formulation="new")
    with pytest.raises(InvalidGrid, match="no mass"):
        embed(uniform_density(0.5, 0.5 + 1e-9), cfg)


def test_config_mismatch():
    other = DistanceConfig(s=0.5, j0=-5, M=13, wavelet="db10", formulation="new")
    u = embed(uniform_density(0.0, 1.0), CFG)
    v = embed(uniform_density(0.0, 1.0), other)
    with pytest.raises(ConfigMismatch):
        wlot_distance(u, v, 0.5)


def test_sparsity_bound_per_level():
    sl = build_wavelet_system("db10").support_length
    for p, width in ((uniform_density(0.0, 1.0), 1.0),
                     (bump_density(0.5, 0.5), 1.0),
                     (bump_density(1.5, 0.5), 1.0)):
        counts = embed(p, CFG).level_counts()
        for j, n in counts.items():
            assert n <= 2.0 ** j * width + 2 * sl + 2, (j, n)


def test_sparsity_bound_wide_domain():
    # same bound on the wide dyadic domain used for translation sweeps
    cfg = DistanceConfig(s=0.5, j0=-11, M=16, wavelet="db10", formulation="new")
    sl = build_wavelet_system("db10").support_length
    counts = embed(bump_density(0.5, 0.5), cfg).level_counts()
    assert counts
    for j, n in counts.items():
        assert n <= 2.0 ** j * 1.0 + 2 * sl + 2, (j, n)


def test_linearity_of_embedding():
    p = uniform_density(0.0, 1.0)
    q = bump_density(1.5, 0.5)
    alpha, beta = 0.3, 0.7
    mix = Density(lambda x: alpha * p(x) + beta * q(x), (0.0, 2.0))
    u = embed(mix, CFG)
    up = embed(p, CFG)
    uq = embed(q, CFG)
    keys = u.entries.keys() | up.entries.keys() | uq.entries.keys()
    for key in keys:
        combo = alpha * up.entries.get(key, 0.0) + beta * uq.entries.get(key, 0.0)
        assert abs(u.entries.get(key, 0.0) - combo) < 1e-10


def test_embedding_count_is_linear():
    ps = [translate(uniform_density(0.0, 1.0), float(a))
          for a in np.linspace(0.0, 2.0, 7)]
    before = decompose_call_count()
    mat = wlot_distance_matrix(ps, CFG)
    assert decompose_call_count() - before == len(ps)
    assert mat.shape == (7, 7)
    assert np.all(np.diff(mat[0, 1:]) > 0)


def test_text_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    q = bump_density(float(rng.uniform(0.5, 1.5)), 0.4)
    vec = embed(q, CFG)
    assert len(vec) > 0
    text = to_text(vec)
    assert text.startswith(f"wlot db10 {CFG.j0} {CFG.M}\n")
    back = from_text(text)
    assert back.fingerprint == vec.fingerprint
    assert back.entries == vec.entries  # bit-exact floats
    path = tmp_path / "vec.wlot"
    write_wlot(vec, path)
    assert read_wlot(path).entries == vec.entries


def test_from_text_rejects_bad_header():
    with pytest.raises(ValueError):
        from_text("wlotx db10 -6 13\n")


GOOD_WLOT = "wlot db10 -6 13\n-6 0 0.25\n6 3 -1.5\n"


def test_from_text_accepts_good_text():
    vec = from_text(GOOD_WLOT)
    assert vec.fingerprint == ("db10", -6, 13)
    assert vec.entries == {(-6, 0): 0.25, (6, 3): -1.5}
    assert to_text(vec) == GOOD_WLOT


@pytest.mark.parametrize("text, line", [
    ("wlot db99 -6 13\n-6 0 0.25\n", 1),
    ("wlot db10 -6.5 13\n-6 0 0.25\n", 1),
    ("wlot db10 -6 x\n-6 0 0.25\n", 1),
    ("wlot db10 -6 13\n\n-6 0 0.25\n", 2),
    ("wlot db10 -6 13\n-6 0 0.25\n-6 1\n", 3),
    ("wlot db10 -6 13\n-6 0.5 0.25\n", 2),
    ("wlot db10 -6 13\n-6 0 abc\n", 2),
    ("wlot db10 -6 13\n-6 0 0.25\n-6 0 0.5\n", 3),
    ("wlot db10 -6 13\n-6 0 nan\n", 2),
    ("wlot db10 -6 13\n-6 0 inf\n", 2),
    ("wlot db10 -6 13\n-7 0 0.25\n", 2),
    ("wlot db10 -6 13\n-6 0 0.25\n7 0 0.25\n", 3),
    ("wlot db10 -6 13\n-6 0 0.25\n-6 1000000000000000 1.0\n", 3),
    ("wlot db10 -6 100000000\n", 1),
    ("wlot db10 -1100 1110\n", 1),
    ("wlot db10 -6 0\n", 1),
], ids=["unknown_wavelet", "non_integer_j0", "non_integer_M", "blank_line",
        "missing_field", "non_integer_k", "non_numeric_value", "duplicate_key",
        "nan_value", "inf_value", "level_below_j0", "level_at_j0_plus_M",
        "translation_past_window", "grid_too_fine",
        "domain_too_wide", "no_levels"])
def test_from_text_rejects_malformed(text, line):
    with pytest.raises(MalformedWlot, match=rf"^line {line}: "):
        from_text(text)


def test_translation_windows_are_the_full_domain_transform():
    # db10 wavelets at level j span 19 translations of 2^-j, so over the
    # domain [0, 64] level 6 holds translations -9 ... 4095, level -6
    # only -18 ... 0
    for line in ("6 -9 1.0", "6 4095 1.0", "-6 -18 1.0", "-6 0 1.0"):
        assert len(from_text(f"wlot db10 -6 13\n{line}\n")) == 1
    for line in ("6 -10 1.0", "6 4096 1.0", "-6 -19 1.0", "-6 1 1.0"):
        with pytest.raises(MalformedWlot, match="^line 2: translation"):
            from_text(f"wlot db10 -6 13\n{line}\n")


def test_from_text_refuses_spans_past_budget(monkeypatch):
    monkeypatch.setattr(waveot.embedding, "_MAX_CELLS", 100)
    assert len(from_text("wlot db10 -6 13\n6 0 1.0\n6 99 1.0\n")) == 2
    with pytest.raises(MalformedWlot, match=r"^line 4: .* 100 translations"):
        from_text("wlot db10 -6 13\n6 0 1.0\n6 99 1.0\n5 0 1.0\n")


def test_from_text_drops_zero_values():
    vec = from_text("wlot db10 -6 13\n-6 0 0.0\n0 1 0.5\n0 3 -0.0\n")
    assert vec.entries == {(0, 1): 0.5}
    assert len(vec) == 1 and vec.level_counts() == {0: 1}
    assert vec.levels[0][0] == 0 and len(vec.levels[0][1]) == 0
    assert vec.levels[6][0] == 1 and list(vec.levels[6][1]) == [0.5]
    assert to_text(vec) == "wlot db10 -6 13\n0 1 0.5\n"
    with pytest.raises(MalformedWlot, match="^line 3: duplicate"):
        from_text("wlot db10 -6 13\n-6 0 0.0\n-6 0 0.0\n")


def test_matrix_budget_counts_covered_translations(monkeypatch):
    # the translates at 0 and 0.5 overlap, the one at 40 lies far away:
    # each covered translation is one column, the gap takes none
    ps = [translate(uniform_density(0.0, 1.0), a) for a in (0.0, 0.5, 40.0)]
    vecs = [embed(p, CFG) for p in ps]
    cells = len(ps) * sum(
        len(set().union(*(range(o, o + len(a)) for o, a in level)))
        for level in zip(*(v.levels for v in vecs)))
    monkeypatch.setattr(waveot.embedding, "_MAX_CELLS", cells - 1)
    with pytest.raises(InvalidGrid, match=rf"budget of {cells - 1} cells"):
        wlot_distance_matrix(ps, CFG)
    monkeypatch.setattr(waveot.embedding, "_MAX_CELLS", cells)
    mat = wlot_distance_matrix(ps, CFG)
    assert mat[0, 2] == pytest.approx(wlot_distance(vecs[0], vecs[2], CFG.s), rel=1e-12)


def test_matrix_independent_of_row_block(monkeypatch):
    # one row of differences per block, and every later row in one block
    ps = [translate(uniform_density(0.0, 1.0), a) for a in (0.0, 0.5, 40.0)]
    ps += [bump_density(0.6, 0.3), bump_density(1.4, 0.5)]
    vecs = [embed(p, CFG) for p in ps]
    results = []
    for block in (1, 1 << 30):
        monkeypatch.setattr(waveot.embedding, "_BLOCK_POINTS", block)
        results.append(wlot_distance_matrix(ps, CFG))
    one_row, all_rows = results
    assert np.array_equal(one_row, one_row.T)
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            pair = wlot_distance(vecs[i], vecs[j], CFG.s)
            assert abs(one_row[i, j] - pair) <= 1e-12 * pair
            assert abs(one_row[i, j] - all_rows[i, j]) <= 1e-12 * pair


def test_matrix_of_no_coefficients():
    # K = 0 columns: no measures, or measures without detail coefficients
    # (the Haar details of the uniform density on the whole domain)
    assert wlot_distance_matrix([], CFG).shape == (0, 0)
    cfg = DistanceConfig(s=1.0, j0=0, M=4, wavelet="haar")
    p = uniform_density(0.0, 1.0)
    assert not any(len(values) for _, values in embed(p, cfg).levels)
    assert np.array_equal(wlot_distance_matrix([p, p], cfg), np.zeros((2, 2)))


def test_matrix_working_set_is_one_block(monkeypatch):
    # 32 measures (4 translates, each 8 times) over K = 26,253 columns:
    # X is 6.4 MiB, and row i's differences are taken one row at a time in
    # one reused block, so the peak exceeds X by the weights and the block,
    # 0.43 MiB by tracemalloc (12.4 MiB when row 0's 31 differences
    # were laid out next to those of row 1)
    cfg = DistanceConfig(s=0.5, j0=-2, M=16, wavelet="db2")
    distinct = [translate(uniform_density(0.0, 1.0), 0.2 * i) for i in range(4)]
    vecs = {id(p): embed(p, cfg) for p in distinct}
    ps = distinct * 8
    K = sum(len(set().union(*(range(o, o + len(a)) for o, a in level)))
            for level in zip(*(v.levels for v in vecs.values())))
    x_bytes = 8 * len(ps) * K
    assert x_bytes >= 4 * 2 ** 20
    # the embeddings are made beforehand, so their transients do not count
    monkeypatch.setattr(waveot.embedding, "embed", lambda p, _cfg: vecs[id(p)])
    tracemalloc.start()
    try:
        mat = wlot_distance_matrix(ps, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x_bytes + 2 ** 20
    first, second = vecs[id(ps[0])], vecs[id(ps[1])]
    assert mat[0, 1] == pytest.approx(wlot_distance(first, second, cfg.s), rel=1e-12)
    assert mat[0, 4] == 0.0


def test_level_arrays_are_trimmed_and_read_only():
    vec = embed(bump_density(0.7, 0.3), CFG)
    assert len(vec.levels) == CFG.M
    for _, values in vec.levels:
        assert values[0] != 0.0 and values[-1] != 0.0
        assert not values.flags.writeable
    with pytest.raises(ShapeMismatch):
        WlotVector(wavelet="db10", j0=CFG.j0, M=CFG.M, levels=vec.levels[1:])


def test_prune():
    vec = embed(bump_density(0.7, 0.3), CFG)
    eps = 1e-6
    small = prune(vec, eps)
    assert all(abs(v) >= eps for v in small.entries.values())
    assert len(small) < len(vec)
    assert small.fingerprint == vec.fingerprint


def test_integral_float_levels_write_a_readable_header():
    cfg = DistanceConfig(s=0.5, j0=-9.0, M=18.0)
    vec = embed(bump_density(1.5, 0.5), cfg)
    text = to_text(vec)
    assert text.startswith("wlot db10 -9 18\n")
    assert from_text(text).entries == vec.entries
