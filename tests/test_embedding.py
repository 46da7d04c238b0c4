import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import waveot.distance
import waveot.embedding
from helpers import CodedError, wavelet_part_densities
from waveot.densities import Density, bump_density, translate, uniform_density
from waveot.distance import DistanceConfig, distance_new
from waveot.dwt import decompose_call_count
from waveot.embedding import (WlotVector, embed, from_text, prune, read_wlot, to_text,
                              wlot_distance, wlot_distance_matrix, write_wlot)
from waveot.errors import (ConfigMismatch, DomainOverflow, InvalidConfig, InvalidExponent,
                           InvalidGrid, MalformedWlot, ShapeMismatch, UnknownWavelet)
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


def test_embed_refuses_other_formulations(monkeypatch):
    # embeddings reproduce "new" only; another config must not silently
    # give "new" distances.  The matrix checked it only per measure, so
    # an empty list passed; it now refuses ahead of its N x N budget
    ps = [uniform_density(0.0, 1.0), bump_density(0.7, 0.3)]
    monkeypatch.setattr(waveot.embedding, "_MAX_CELLS", 1)
    for formulation in ("original", "alternative"):
        cfg = replace(CFG, formulation=formulation)
        message = f"^only the 'new' formulation embeds, got '{formulation}'$"
        with pytest.raises(InvalidConfig, match=message):
            embed(ps[0], cfg)
        before = decompose_call_count()
        for measures in (ps, []):
            with pytest.raises(InvalidConfig, match=message):
                wlot_distance_matrix(measures, cfg)
        assert decompose_call_count() == before


def test_wlot_distance_refuses_exponents_outside_the_unit_interval():
    u = embed(uniform_density(0.0, 1.0), CFG)
    v = embed(bump_density(1.0, 0.5), CFG)
    for s in (0.0, -0.5, 1.5, float("nan"), float("inf")):
        with pytest.raises(InvalidExponent):
            wlot_distance(u, v, s)
    for s in ["0.5", None, 1j]:  # these used to escape as TypeError
        with pytest.raises(InvalidExponent, match=f"^s must lie in \\(0, 1\\], got {s}$"):
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
    # one column per block, and all K columns in one block: the sums
    # regroup, but each pair still equals its wlot_distance to rounding
    ps = [translate(uniform_density(0.0, 1.0), a) for a in (0.0, 0.5, 40.0)]
    ps += [bump_density(0.6, 0.3), bump_density(1.4, 0.5)]
    vecs = [embed(p, CFG) for p in ps]
    results = []
    for block in (1, 1 << 30):
        monkeypatch.setattr(waveot.distance, "_BLOCK_POINTS", block)
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


def test_matrix_error_context():
    p = uniform_density(0.0, 1.0)
    far = translate(p, 80.0)  # outside [0, 2^6]
    with pytest.raises(DomainOverflow, match=r"^measure 1: support \[80"):
        wlot_distance_matrix([p, far], CFG)


def test_matrix_context_added_once_without_quotes(monkeypatch):
    def fail(p, cfg):
        raise UnknownWavelet("db99")

    monkeypatch.setattr(waveot.embedding, "embed", fail)
    p = uniform_density(0.0, 1.0)
    with pytest.raises(UnknownWavelet) as exc:
        wlot_distance_matrix([p, p], CFG)
    assert str(exc.value) == "measure 0: db99"


def test_matrix_keeps_foreign_exception(monkeypatch):
    err = CodedError(7, "solver state")

    def fail(p, cfg):
        raise err

    monkeypatch.setattr(waveot.embedding, "embed", fail)
    p = uniform_density(0.0, 1.0)
    with pytest.raises(CodedError) as exc:
        wlot_distance_matrix([p, p], CFG)
    assert exc.value is err and exc.value.args == (7, "solver state")
    if hasattr(err, "add_note"):  # Python 3.11+
        assert err.__notes__ == ["measure 0"]


def test_matrix_working_set_is_one_block(monkeypatch):
    # 32 measures (4 translates, each 8 times) over K = 26,253 columns:
    # the 32 x K coefficient matrix would take 6.4 MiB, but it is taken
    # 512 columns at a time into one reused block, and their differences
    # into a second, so the peak is those two blocks, the K weights and the
    # result, 0.57 MiB by tracemalloc, and a bound of 1 MiB does not grow
    # with K
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
    assert peak < 2 ** 20
    first, second = vecs[id(ps[0])], vecs[id(ps[1])]
    assert mat[0, 1] == pytest.approx(wlot_distance(first, second, cfg.s), rel=1e-12)
    assert mat[0, 4] == 0.0


def test_matrix_refuses_more_cells_than_budget_before_embedding(monkeypatch):
    # the N x N result had no bound; it is now checked before the first embed
    monkeypatch.setattr(waveot.embedding, "_MAX_CELLS", 8)
    ps = [uniform_density(0.0, 1.0)] * 3
    before = decompose_call_count()
    with pytest.raises(InvalidGrid, match="^3 measures need 9 matrix cells, more than the "
                                          "budget of 8; use fewer measures$"):
        wlot_distance_matrix(ps, CFG)
    assert decompose_call_count() == before


def test_matrix_result_is_the_one_n_by_n_array():
    # 1,000 measures of one Haar coefficient each: the working set is the
    # 7.6 MiB result, filled in both triangles (15.8 MiB when the lower
    # one was mirrored from the upper as out + out.T)
    cfg = DistanceConfig(s=0.5, j0=0, M=1, wavelet="haar")
    ps = [uniform_density(0.0, 0.7), uniform_density(0.0, 0.6)] * 500
    tracemalloc.start()
    try:
        mat = wlot_distance_matrix(ps, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * mat.nbytes
    assert mat.shape == (1000, 1000) and np.array_equal(mat, mat.T)
    vecs = [embed(p, cfg) for p in ps[:2]]
    assert mat[0, 999] == wlot_distance(*vecs, cfg.s) > 0.0 and mat[0, 998] == 0.0


def test_level_arrays_are_trimmed_and_read_only():
    vec = embed(bump_density(0.7, 0.3), CFG)
    assert len(vec.levels) == CFG.M
    for _, values in vec.levels:
        assert values[0] != 0.0 and values[-1] != 0.0
        assert not values.flags.writeable
    with pytest.raises(ShapeMismatch):
        WlotVector(wavelet="db10", j0=CFG.j0, M=CFG.M, levels=vec.levels[1:])


def test_vector_owns_its_levels():
    # np.ascontiguousarray of a contiguous slice copied nothing, so a
    # caller's write showed through the read-only levels: a NaN made
    # wlot_distance nan and the vector's own text unreadable
    vec = embed(uniform_density(0.2, 0.7), CFG)
    arrays = [np.array(values) for _, values in vec.levels]
    copy = WlotVector(wavelet=vec.wavelet, j0=vec.j0, M=vec.M,
                      levels=[(offset, a) for (offset, _), a in zip(vec.levels, arrays)])
    next(a for a in arrays if len(a))[0] = np.nan
    assert wlot_distance(copy, vec, CFG.s) == 0.0
    assert to_text(copy) == to_text(vec)
    assert from_text(to_text(copy)).entries == vec.entries


def test_prune():
    vec = embed(bump_density(0.7, 0.3), CFG)
    eps = 1e-6
    small = prune(vec, eps)
    assert all(abs(v) >= eps for v in small.entries.values())
    assert len(small) < len(vec)
    assert small.fingerprint == vec.fingerprint
    assert prune(vec, 0).entries == vec.entries


@pytest.mark.parametrize("eps", [float("nan"), "x", None, 1j, pytest.param(10**400, id="huge-int")])
def test_prune_refuses_a_threshold_that_is_not_a_real_number(eps):
    # no magnitude is >= NaN, so it would drop every entry, a string would
    # escape as numpy's UFuncTypeError, and 10**400 as OverflowError
    vec = embed(bump_density(0.7, 0.3), CFG)
    with pytest.raises(InvalidConfig, match="^eps must be a real number"):
        prune(vec, eps)


def test_integral_float_levels_write_a_readable_header():
    cfg = DistanceConfig(s=0.5, j0=-9.0, M=18.0)
    vec = embed(bump_density(1.5, 0.5), cfg)
    text = to_text(vec)
    assert text.startswith("wlot db10 -9 18\n")
    assert from_text(text).entries == vec.entries


# a vector of CFG's grid (db10, j0 = -6, M = 13) with one level given; the
# others are empty.  Level -6 of db10 over [0, 64] holds translations -18 ... 0
def one_level(offset, values, j=-6, **header):
    levels = [(0, [])] * CFG.M
    levels[j - CFG.j0] = (offset, values)
    return WlotVector(**{"wavelet": "db10", "j0": CFG.j0, "M": CFG.M, **header},
                      levels=levels)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_vector_refuses_non_finite_values(value):
    # these used to construct, give NaN or inf distances and write files
    # that from_text refused
    with pytest.raises(ShapeMismatch, match=f"^level -6: non-finite value {value}$"):
        one_level(0, [value, 1.0])
    with pytest.raises(ShapeMismatch, match=f"^level 2: non-finite value {value}$"):
        one_level(5, [0.0, 1.0, value, 2.0, 0.0], j=2)


def test_vector_refuses_translations_outside_the_window():
    assert len(one_level(-18, [1.0])) == len(one_level(0, [1.0])) == 1
    # zeros outside the window are trimmed before the window is checked
    offset, values = one_level(-20, [0.0, 0.0, 1.0, 0.0, 0.0, 2.0, 0.0]).levels[0]
    assert offset == -18 and list(values) == [1.0, 0.0, 0.0, 2.0]
    for offset, values in ((10 ** 9, [1.0]), (-19, [1.0, 0.0]), (-1, [0.0, 1.0, 1.0])):
        with pytest.raises(ShapeMismatch, match=r"^level -6: translation -?\d+ outside "
                                                r"\[-18, 1\) of level -6$"):
            one_level(offset, values)


def test_vector_takes_integral_float_grids_as_ints():
    # j0 = -6.0 used to make to_text raise TypeError
    vec = one_level(0, [1.0], j0=-6.0, M=13.0)
    assert vec.fingerprint == ("db10", -6, 13)
    assert type(vec.j0) is int and type(vec.M) is int
    assert to_text(vec) == "wlot db10 -6 13\n-6 0 1\n"
    with pytest.raises(InvalidConfig, match="^j0 must be an integer"):
        one_level(0, [1.0], j0=-6.5)
    with pytest.raises(InvalidConfig, match="^M must be a positive integer"):
        one_level(0, [1.0], M=13.5)


@pytest.mark.parametrize("values", [[[1.0, 2.0]], [[1.0], [2.0]], 5.0])
def test_vector_refuses_a_level_that_is_not_one_dimensional(values):
    # a 2-D level used to make to_text raise IndexError
    with pytest.raises(ShapeMismatch, match="^level -6: [02]-D values, not 1-D$"):
        one_level(0, values)


def test_vector_offsets_are_integers():
    # a float offset used to make wlot_distance raise TypeError
    vec = one_level(-1.0, [0.5, 1.0])
    assert vec.levels[0][0] == -1 and type(vec.levels[0][0]) is int
    assert wlot_distance(vec, one_level(-1, [0.5, 1.0]), 0.5) == 0.0
    for offset in (0.5, "0", None, float("nan")):
        with pytest.raises(ShapeMismatch, match="^level -6: bad offset"):
            one_level(offset, [1.0])


@pytest.mark.parametrize("level", [(0, ["x"]), (0, [1j]), (0, np.array([1j])), (0,), 5,
                                   (0, [1.0], 2), (0, [[1.0], [2.0, 3.0]])])
def test_vector_refuses_a_level_that_is_not_an_offset_and_real_values(level):
    # these used to escape as ValueError or TypeError, and a complex array
    # to lose its imaginary part with a ComplexWarning
    levels = [level] + [(0, [])] * (CFG.M - 1)
    with pytest.raises(ShapeMismatch, match=r"^level -6: not an \(offset, real values\) pair$"):
        WlotVector(wavelet="db10", j0=CFG.j0, M=CFG.M, levels=levels)


@pytest.mark.parametrize("header, error", [
    ({"wavelet": "db99"}, UnknownWavelet),
    ({"wavelet": "sym4"}, UnknownWavelet),
    ({"wavelet": ["db10"]}, UnknownWavelet),  # a list, not a str
    ({"wavelet": None}, UnknownWavelet),
    ({"j0": -1100, "M": 1110}, InvalidConfig),
    ({"M": 100000000}, InvalidConfig),
    ({"j0": np.array(-6)}, InvalidConfig),
])
def test_vector_refuses_what_from_text_refuses_in_a_header(header, error):
    # these used to construct and write files that from_text refused; the
    # header is checked before the levels are counted
    with pytest.raises(error):
        WlotVector(**{"wavelet": "db10", "j0": -6, "M": 13, **header},
                   levels=[(0, [])] * 13)


def test_vector_refuses_more_than_max_cells(monkeypatch):
    monkeypatch.setattr(waveot.embedding, "_MAX_CELLS", 100)
    levels = [(0, [])] * CFG.M
    levels[12], levels[11] = (0, np.ones(60)), (0, np.ones(40))
    assert len(WlotVector(wavelet="db10", j0=CFG.j0, M=CFG.M, levels=levels)) == 100
    levels[10] = (0, [0.0, 1.0, 0.0])  # trimmed to one cell
    with pytest.raises(InvalidGrid, match="^the levels hold 101 cells, more than 100$"):
        WlotVector(wavelet="db10", j0=CFG.j0, M=CFG.M, levels=levels)


@pytest.mark.parametrize("spelling, name", [("DB10", "db10"), ("db1", "haar"),
                                            (" db2", "db2"), ("Haar ", "haar")])
def test_embed_keeps_the_wavelet_as_the_catalog_spells_it(spelling, name):
    # "DB10" and "db1" embeddings used to write unreadable files, and " db2"
    # to come back with another fingerprint
    p = bump_density(1.5, 0.5)
    vec = embed(p, replace(CFG, wavelet=spelling))
    assert vec.fingerprint == (name, CFG.j0, CFG.M)
    back = from_text(to_text(vec))
    assert back.fingerprint == vec.fingerprint
    assert wlot_distance(back, vec, CFG.s) == 0.0
    assert wlot_distance(vec, embed(p, replace(CFG, wavelet=name)), CFG.s) == 0.0


@pytest.mark.parametrize("spelling, name", [("db01", "haar"), ("db010", "db10"),
                                            ("db+2", "db2"), ("db\u0663", "db3")])
def test_embed_names_every_spelling_of_a_system_as_the_catalog_does(spelling, name):
    # "db010" and "db10" embeddings of one density used to refuse each
    # other with ConfigMismatch
    p = bump_density(1.5, 0.5)
    vec = embed(p, replace(CFG, wavelet=spelling))
    assert vec.fingerprint == (name, CFG.j0, CFG.M)
    assert wlot_distance(vec, embed(p, replace(CFG, wavelet=name)), CFG.s) == 0.0


def test_from_text_reads_every_name_the_type_takes():
    for name, spelled in (("DB10", "db10"), ("db1", "haar"), ("HAAR", "haar")):
        vec = from_text(f"wlot {name} -6 13\n-6 0 0.25\n")
        assert vec.fingerprint == (spelled, -6, 13)
        assert to_text(vec) == f"wlot {spelled} -6 13\n-6 0 0.25\n"
    with pytest.raises(MalformedWlot, match=r"^line 1: bad tag or unknown wavelet in "
                                            r"'wlot db99 -6 13'$"):
        from_text("wlot db99 -6 13\n")


def test_read_wlot_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    # this used to escape as UnicodeDecodeError
    path = tmp_path / "bad.wlot"
    path.write_bytes(b"wlot db10 -6 13\n-6 0 0.25\xff\n")
    with pytest.raises(MalformedWlot, match="^line 2: "):
        read_wlot(path)
    path.write_bytes(b"wlot d\xc3b10 -6 13\n")
    with pytest.raises(MalformedWlot, match="^line 1: "):
        read_wlot(path)
    path.write_bytes(GOOD_WLOT.replace("\n", "\r\n").encode())
    assert to_text(read_wlot(path)) == GOOD_WLOT


@pytest.mark.parametrize("levels", [None, 5])
def test_vector_refuses_levels_that_are_not_a_sequence(levels):
    # these used to escape as TypeError from tuple()
    with pytest.raises(ShapeMismatch, match=f"^levels must be a sequence of 13 levels, got {levels}$"):
        WlotVector(wavelet="db10", j0=-6, M=13, levels=levels)


def test_wlot_distance_refuses_a_vector_that_is_not_a_wlot_vector():
    vec = embed(bump_density(1.5, 0.5), CFG)
    for u, v in ((vec, "x"), ("x", vec)):
        with pytest.raises(ShapeMismatch, match="^expected a WlotVector, got 'x'$"):
            wlot_distance(u, v, 0.5)


def test_prune_refuses_a_vector_that_is_not_a_wlot_vector():
    with pytest.raises(ShapeMismatch, match="^expected a WlotVector, got 'x'$"):
        prune("x", 0.1)


def test_to_text_refuses_a_vector_that_is_not_a_wlot_vector():
    with pytest.raises(ShapeMismatch, match="^expected a WlotVector, got 'x'$"):
        to_text("x")


def test_write_wlot_leaves_the_file_as_it_was_for_a_bad_vector(tmp_path):
    # the text is built before the file is opened, and so truncated
    path = tmp_path / "vec.wlot"
    path.write_bytes(b"8 bytes\n")
    with pytest.raises(ShapeMismatch, match="^expected a WlotVector, got 'x'$"):
        write_wlot("x", path)
    assert path.read_bytes() == b"8 bytes\n"


def test_wlot_files_refuse_a_path_that_is_not_a_file_name(tmp_path):
    # open() takes an int as a file descriptor: write_wlot wrote there and
    # closed the caller's descriptor, read_wlot(12345) escaped as OSError
    # and a float path as TypeError
    vec, path = from_text(GOOD_WLOT), tmp_path / "vec.wlot"
    fd = os.open(path, os.O_RDWR | os.O_CREAT)
    try:
        for call in (lambda p: write_wlot(vec, p), read_wlot):
            for bad in (fd, 12345, 3.5, None):
                with pytest.raises(InvalidConfig, match=f"^expected a file path \\(str, bytes "
                                                        f"or os.PathLike\\), got {bad}$"):
                    call(bad)
        os.fstat(fd)  # still open
    finally:
        os.close(fd)
    assert path.read_bytes() == b""
    write_wlot(vec, bytes(path))
    assert to_text(read_wlot(str(path))) == path.read_text() == GOOD_WLOT


@pytest.mark.parametrize("text", [5, None, GOOD_WLOT.encode()], ids=["int", "none", "bytes"])
def test_from_text_refuses_text_that_is_not_a_str(text):
    # 5 and None used to escape as AttributeError, bytes as TypeError
    with pytest.raises(MalformedWlot, match="^expected a str, got "):
        from_text(text)
