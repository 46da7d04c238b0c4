import numpy as np
import pytest

from waveot.cascade import cascade_evaluate
from waveot.dwt import decompose_call_count, dwt_decompose, dwt_reconstruct
from waveot.errors import EmptyInput, InvalidConfig, InvalidLevels, ShapeMismatch
from waveot.filters import build_wavelet_system, catalog_names

ROOT2 = np.sqrt(2.0)


def test_haar_constant_signal():
    haar = build_wavelet_system("haar")
    pyr = dwt_decompose([1.0, 1.0, 1.0, 1.0], haar, 1, "zero")
    assert np.allclose(pyr.approx, [ROOT2, ROOT2], atol=1e-14)
    assert np.allclose(pyr.details[0], [0.0, 0.0], atol=1e-14)


def test_haar_pure_oscillation():
    haar = build_wavelet_system("haar")
    pyr = dwt_decompose([1.0, -1.0], haar, 1, "zero")
    assert np.allclose(pyr.approx, [0.0], atol=1e-14)
    assert np.allclose(pyr.details[0], [ROOT2], atol=1e-14)


def test_zero_mode_output_lengths():
    # a halving from an even-offset array yields floor((N + L - 1) / 2)
    # coefficients; odd offsets (which arise below the first level) cover
    # one extra absolute translation index
    db4 = build_wavelet_system("db4")
    L = len(db4.g)
    rng = np.random.default_rng(3)
    n = 77
    pyr = dwt_decompose(rng.standard_normal(n), db4, 3, "zero")
    assert len(pyr.details[-1]) == (n + L - 1) // 2
    expected = n
    offset = 0
    for d, off in zip(reversed(pyr.details), reversed(pyr.detail_offsets)):
        lo = -((L - 1 - offset) // 2)  # ceil((offset - L + 1) / 2)
        hi = (offset + expected - 1) // 2
        assert off == lo
        assert len(d) == hi - lo + 1
        expected = len(d)
        offset = lo
    assert len(pyr.approx) == expected


@pytest.mark.parametrize("name", ["haar", "db2", "db7", "db10", "db20"])
@pytest.mark.parametrize("mode", ["zero", "periodic"])
def test_round_trip(name, mode):
    system = build_wavelet_system(name)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(1024)
    pyr = dwt_decompose(x, system, 6, mode)
    assert np.max(np.abs(dwt_reconstruct(pyr, system) - x)) < 1e-10


def test_round_trip_db2_three_levels():
    db2 = build_wavelet_system("db2")
    rng = np.random.default_rng(5)
    x = rng.standard_normal(64)
    pyr = dwt_decompose(x, db2, 3, "zero")
    assert np.max(np.abs(dwt_reconstruct(pyr, db2) - x)) < 1e-10


def test_round_trip_deep_db10():
    db10 = build_wavelet_system("db10")
    rng = np.random.default_rng(6)
    x = rng.standard_normal(2 ** 10)
    pyr = dwt_decompose(x, db10, 10, "zero")
    assert np.max(np.abs(dwt_reconstruct(pyr, db10) - x)) < 1e-10


def test_round_trip_with_offset():
    # absolute-translation bookkeeping must survive odd/even offsets
    db3 = build_wavelet_system("db3")
    rng = np.random.default_rng(8)
    x = rng.standard_normal(97)
    for off in (-7, -2, 0, 5):
        pyr = dwt_decompose(x, db3, 4, "zero", k_offset=off)
        assert np.max(np.abs(dwt_reconstruct(pyr, db3) - x)) < 1e-10


def test_offset_shifts_coefficients_exactly():
    # shifting the input by an even offset relabels coefficients without
    # changing their values
    db5 = build_wavelet_system("db5")
    rng = np.random.default_rng(9)
    x = rng.standard_normal(40)
    a = dwt_decompose(x, db5, 1, "zero", k_offset=0)
    b = dwt_decompose(x, db5, 1, "zero", k_offset=6)
    assert np.allclose(a.details[0], b.details[0], atol=1e-14)
    assert b.detail_offsets[0] - a.detail_offsets[0] == 3


def test_parseval_one_level_periodic():
    rng = np.random.default_rng(12)
    for name in ("haar", "db5", "db10"):
        system = build_wavelet_system(name)
        x = rng.standard_normal(512)
        pyr = dwt_decompose(x, system, 1, "periodic")
        lhs = np.sum(pyr.approx ** 2) + np.sum(pyr.details[0] ** 2)
        assert abs(lhs - np.sum(x ** 2)) < 1e-10


def test_linearity():
    db6 = build_wavelet_system("db6")
    rng = np.random.default_rng(13)
    x = rng.standard_normal(130)
    y = rng.standard_normal(130)
    px = dwt_decompose(x, db6, 3, "zero")
    py = dwt_decompose(y, db6, 3, "zero")
    pxy = dwt_decompose(x + 2.0 * y, db6, 3, "zero")
    assert np.allclose(pxy.approx, px.approx + 2.0 * py.approx, atol=1e-12)
    for dxy, dx, dy in zip(pxy.details, px.details, py.details):
        assert np.allclose(dxy, dx + 2.0 * dy, atol=1e-12)


def test_errors():
    haar = build_wavelet_system("haar")
    with pytest.raises(InvalidLevels):
        dwt_decompose([1.0, 2.0], haar, 0, "zero")
    with pytest.raises(EmptyInput):
        dwt_decompose([], haar, 1, "zero")
    with pytest.raises(InvalidLevels):
        dwt_decompose([1.0, 2.0, 3.0], haar, 1, "periodic")
    with pytest.raises(InvalidConfig, match="unknown mode"):
        dwt_decompose([1.0, 2.0], haar, 1, mode="foo")
    pyr = dwt_decompose([1.0, 2.0], haar, 1, "zero")
    pyr.mode = "foo"
    with pytest.raises(InvalidConfig, match="unknown mode"):
        dwt_reconstruct(pyr, haar)


def test_shape_mismatch_on_tampered_pyramid():
    db2 = build_wavelet_system("db2")
    pyr = dwt_decompose(np.arange(32.0), db2, 2, "zero")
    pyr.details[0] = pyr.details[0][:-1]
    with pytest.raises(ShapeMismatch):
        dwt_reconstruct(pyr, db2)
    # an approximation off the geometry the input fixes
    for field, value in (("approx", pyr.approx[:-1]), ("approx_offset", pyr.approx_offset + 1)):
        pyr = dwt_decompose(np.arange(32.0), db2, 2, "zero")
        setattr(pyr, field, value)
        with pytest.raises(ShapeMismatch, match="approximation"):
            dwt_reconstruct(pyr, db2)


def test_integral_float_levels_and_offsets_are_ints():
    db2 = build_wavelet_system("db2")
    x = np.arange(1.0, 9.0)
    ref = dwt_decompose(x, db2, 2, k_offset=2, j_in=3)
    for kwargs in ({"num_levels": 2.0}, {"k_offset": 2.0}, {"j_in": 3.0},
                   {"num_levels": np.float64(2.0), "k_offset": np.int64(2)}):
        args = {"num_levels": 2, "k_offset": 2, "j_in": 3, **kwargs}
        pyr = dwt_decompose(x, db2, **args)
        assert np.array_equal(pyr.approx, ref.approx)
        assert all(np.array_equal(a, b) for a, b in zip(pyr.details, ref.details))
        assert (pyr.j0, pyr.approx_offset, pyr.detail_offsets) == \
            (ref.j0, ref.approx_offset, ref.detail_offsets)
        assert all(type(v) is int for v in (pyr.j0, pyr.approx_offset, pyr.input_offset,
                                             *pyr.detail_offsets))
    for levels in (1.5, float("nan"), float("inf"), "2"):
        with pytest.raises(InvalidLevels):
            dwt_decompose(x, db2, levels)
    for offset in (2.5, float("nan"), None):
        with pytest.raises(InvalidConfig, match="k_offset"):
            dwt_decompose(x, db2, 2, k_offset=offset)


def test_shape_mismatch_on_empty_pyramid():
    db2 = build_wavelet_system("db2")
    pyr = dwt_decompose(np.arange(32.0), db2, 2, "zero")
    pyr.details = []
    pyr.detail_offsets = []
    with pytest.raises(ShapeMismatch):
        dwt_reconstruct(pyr, db2)


def test_decompose_counter():
    haar = build_wavelet_system("haar")
    before = decompose_call_count()
    dwt_decompose([1.0, 2.0, 3.0, 4.0], haar, 1, "zero")
    dwt_decompose([1.0, 2.0, 3.0, 4.0], haar, 2, "zero")
    assert decompose_call_count() == before + 2


def test_orthonormality_via_initialization():
    # sampling the L2-normalized wavelet at (0, 0) twelve levels above and
    # decomposing must return that single unit coefficient
    db10 = build_wavelet_system("db10")
    psi = cascade_evaluate(db10, "wavelet", 12)
    j0, M = -5, 17  # j0 + M = 12
    spacing = 2.0 ** (-(j0 + M))
    n = 2 ** M
    width = db10.support_length
    ks = np.arange(int(width / spacing) + 1)
    sample = np.zeros(n)
    sample[: len(ks)] = 2.0 ** (-(j0 + M) / 2.0) * np.interp(
        ks * spacing, psi.grid(), psi.values, left=0.0, right=0.0)
    pyr = dwt_decompose(sample, db10, M, "zero", j_in=j0 + M)
    peak = None
    worst = 0.0
    for i, (d, off) in enumerate(zip(pyr.details, pyr.detail_offsets)):
        level = pyr.j0 + i
        for t in np.flatnonzero(np.abs(d) > 1e-15):
            if (level, off + int(t)) == (0, 0):
                peak = d[t]
            else:
                worst = max(worst, abs(d[t]))
    assert peak is not None and abs(peak - 1.0) < 1e-3
    assert worst < 1e-2
