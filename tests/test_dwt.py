import dataclasses
import tracemalloc

import numpy as np
import pytest

from waveot import densities, distance, dwt
from waveot.cascade import cascade_evaluate
from waveot.dwt import CoefficientPyramid, decompose_call_count, dwt_decompose, dwt_reconstruct
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
    pyr = dwt_decompose(np.arange(32.0), db2, 2, "zero")
    pyr.approx = pyr.approx[:-1]
    with pytest.raises(ShapeMismatch, match="approximation"):
        dwt_reconstruct(pyr, db2)
    # a periodic detail level must sit on the chain its input fixes
    pyr = dwt_decompose(np.arange(32.0), db2, 2, "periodic")
    pyr.details[0] = pyr.details[0][:-1]
    with pytest.raises(ShapeMismatch, match="^detail level -2: expected length 8 at offset 0, "
                                            "got 7$"):
        dwt_reconstruct(pyr, db2)


@pytest.mark.parametrize("mode", ["zero", "periodic"])
def test_offsets_are_derived_from_the_chain_not_stored(mode):
    # a pyramid stores its input geometry and filter length; every offset
    # is read from _chain, so no offset can disagree with the levels
    db2 = build_wavelet_system("db2")
    pyr = dwt_decompose(np.arange(32.0), db2, 3, mode, k_offset=5)
    chain = dwt._chain(mode, 5, 32, 4, 3)
    assert [f.name for f in dataclasses.fields(pyr)] == [
        "j0", "approx", "details", "mode", "input_length", "filter_length", "input_offset"]
    assert pyr.filter_length == 4
    assert pyr.approx_offset == chain[3][0] == pyr.detail_offsets[0]
    assert pyr.detail_offsets == [off for off, _ in chain[:0:-1]]
    for field in ("approx_offset", "detail_offsets"):
        with pytest.raises(AttributeError):
            setattr(pyr, field, 0)
    pyr.input_offset = 7  # the offsets follow the geometry they are derived from
    assert pyr.approx_offset == dwt._chain(mode, 7, 32, 4, 3)[3][0]


def test_periodic_pyramid_cut_in_half_is_refused():
    # every array halved still joins its neighbours, so only the input
    # length tells that 16 samples would come back for 32
    db2 = build_wavelet_system("db2")
    pyr = dwt_decompose(np.arange(32.0), db2, 2, "periodic")
    pyr.approx = pyr.approx[:4]
    pyr.details = [pyr.details[0][:4], pyr.details[1][:8]]
    with pytest.raises(ShapeMismatch,
                       match="^approximation array inconsistent with input geometry$"):
        dwt_reconstruct(pyr, db2)


@pytest.mark.parametrize("mode", ["zero", "periodic"])
def test_reconstruct_refuses_an_input_geometry_that_is_not_integers(mode):
    # zero mode let these escape as TypeError; periodic mode never read them
    haar = build_wavelet_system("haar")
    x = np.arange(1.0, 9.0)
    for field, value, message in (
            ("input_length", None, "input length is not an integer > 0"),
            ("input_length", 0, "input length is not an integer > 0"),
            ("input_length", 8.5, "input length is not an integer > 0"),
            ("input_offset", None, "input offset is not an integer"),
            ("input_offset", "x", "input offset is not an integer")):
        pyr = dwt_decompose(x, haar, 2, mode)
        setattr(pyr, field, value)
        with pytest.raises(ShapeMismatch, match=f"^{message}$"):
            dwt_reconstruct(pyr, haar)
    pyr = dwt_decompose(x, haar, 2, mode)
    pyr.input_length = 8.0  # an integral float is read as 8
    assert np.max(np.abs(dwt_reconstruct(pyr, haar) - x)) <= 1e-12
    if mode == "periodic":  # 2^2 does not divide 6: no chain at all
        pyr.input_length = 6
        with pytest.raises(InvalidLevels, match="periodic mode requires length divisible"):
            dwt_reconstruct(pyr, haar)


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
    with pytest.raises(ShapeMismatch):
        dwt_reconstruct(pyr, db2)


def test_decompose_counter():
    haar = build_wavelet_system("haar")
    before = decompose_call_count()
    dwt_decompose([1.0, 2.0, 3.0, 4.0], haar, 1, "zero")
    dwt_decompose([1.0, 2.0, 3.0, 4.0], haar, 2, "zero")
    assert decompose_call_count() == before + 2


def test_refused_transform_is_not_counted():
    # the counter reads as "transforms made", so a call _chain refuses,
    # for its length or for its mode, leaves it as it was
    haar = build_wavelet_system("haar")
    before = decompose_call_count()
    with pytest.raises(InvalidLevels):
        dwt_decompose([1.0, 2.0, 3.0], haar, 1, "periodic")
    with pytest.raises(InvalidConfig, match="unknown mode"):
        dwt_decompose([1.0, 2.0], haar, 1, mode="foo")
    assert decompose_call_count() == before


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


def test_level_bound_is_the_most_any_config_decomposes():
    # M = _MAX_SAMPLING_LEVEL - j0 is largest at the lowest j0
    assert dwt._MAX_LEVELS == distance._MAX_SAMPLING_LEVEL - densities._MIN_J0


def test_decompose_refuses_more_levels_than_any_config_takes(monkeypatch):
    # past about log2(n) levels each level still keeps an array of about
    # L - 1 entries, so time and memory grow with the level count itself;
    # the count is refused before the chain of windows is derived
    monkeypatch.setattr(dwt, "_chain", None)
    with pytest.raises(InvalidLevels, match="^num_levels must be at most 2097, got 2098$"):
        dwt_decompose(np.ones(8), build_wavelet_system("db20"), 2098)


def test_the_most_levels_still_round_trip():
    db20 = build_wavelet_system("db20")
    x = np.arange(1.0, 9.0)
    pyr = dwt_decompose(x, db20, 2097)
    assert pyr.levels == 2097 and pyr.j0 == -2097
    assert np.max(np.abs(dwt_reconstruct(pyr, db20) - x)) < 1e-12


@pytest.mark.parametrize("mode", ["zero", "periodic"])
def test_pyramid_holds_only_its_coefficients(mode):
    # each level is cut from a convolution about twice its length; kept as
    # a strided view it held that whole convolution alive, 1,030 KiB for
    # the 513 KiB of 10 db10 levels of 2^16 samples
    x = np.random.default_rng(0).standard_normal(1 << 16)
    db10 = build_wavelet_system("db10")
    tracemalloc.start()
    try:
        pyr = dwt_decompose(x, db10, 10, mode)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    coefficients = pyr.approx.nbytes + sum(d.nbytes for d in pyr.details)
    assert held < coefficients + (16 << 10)


def test_reconstruct_refuses_more_levels_than_any_config_takes(monkeypatch):
    monkeypatch.setattr(dwt, "_chain", None)
    pyr = CoefficientPyramid(j0=-2098, approx=np.ones(1), details=[np.ones(1)] * 2098,
                             mode="zero", input_length=8, filter_length=2)
    with pytest.raises(ShapeMismatch,
                       match="^pyramid has 2098 detail levels, at most 2097 allowed$"):
        dwt_reconstruct(pyr, build_wavelet_system("haar"))


def test_decompose_refuses_a_system_that_is_not_a_wavelet_system():
    with pytest.raises(InvalidConfig, match="^expected a WaveletSystem, got 'haar'$"):
        dwt_decompose([1.0, 2.0], "haar", 1)


def test_reconstruct_refuses_arguments_of_the_wrong_type():
    haar = build_wavelet_system("haar")
    with pytest.raises(ShapeMismatch, match="^expected a CoefficientPyramid, got 'x'$"):
        dwt_reconstruct("x", haar)
    with pytest.raises(InvalidConfig, match="^expected a WaveletSystem, got 'haar'$"):
        dwt_reconstruct(dwt_decompose([1.0, 2.0], haar, 1), "haar")


@pytest.mark.parametrize("x", ["abc", [1j, 1.0], [None, 1.0], b"ab", [[1.0], [1.0, 2.0]]],
                         ids=["str", "complex", "none", "bytes", "ragged"])
def test_decompose_refuses_an_input_that_is_not_real_numbers(x):
    # "abc" used to escape as ValueError, [1j, 1.0] as TypeError, and
    # [None, 1.0] read as [nan, 1.0]
    with pytest.raises(EmptyInput, match="^input must be an array of real numbers$"):
        dwt_decompose(x, build_wavelet_system("haar"), 1)


def test_reconstruct_refuses_details_that_are_not_a_sequence():
    # details=5 used to escape as TypeError
    db2 = build_wavelet_system("db2")
    for value in (5, None):
        pyr = dwt_decompose(np.arange(32.0), db2, 2, "zero")
        pyr.details = value
        with pytest.raises(ShapeMismatch, match="^pyramid has no detail levels or empty "
                                                "approximation$"):
            dwt_reconstruct(pyr, db2)


def test_reconstruct_reads_j0_as_an_integer():
    # j0 only names a level in a refusal; "x" escaped as TypeError (str + int)
    db2 = build_wavelet_system("db2")
    for j0, want in (("x", "^j0 is not an integer$"), (None, "^j0 is not an integer$"),
                     (-2.0, "^detail level -2: expected length 10 at offset -2, got 9$")):
        pyr = dwt_decompose(np.arange(32.0), db2, 2, "zero")
        pyr.j0 = j0
        pyr.details[0] = pyr.details[0][:-1]
        with pytest.raises(ShapeMismatch, match=want):
            dwt_reconstruct(pyr, db2)


def test_reconstruct_refuses_arrays_that_are_not_real_numbers():
    db2 = build_wavelet_system("db2")
    pyr = dwt_decompose(np.arange(32.0), db2, 2, "zero")
    pyr.approx = pyr.approx.astype(object)
    with pytest.raises(ShapeMismatch, match="^approximation must be real numbers$"):
        dwt_reconstruct(pyr, db2)
    pyr = dwt_decompose(np.arange(32.0), db2, 2, "zero")
    pyr.details[1] = [str(v) for v in pyr.details[1]]
    with pytest.raises(ShapeMismatch, match="^detail levels must be real numbers$"):
        dwt_reconstruct(pyr, db2)
    pyr = dwt_decompose(np.arange(32.0), db2, 2, "zero")
    pyr.details[0] = pyr.details[0][:, None]  # 2-D used to escape as ValueError
    with pytest.raises(ShapeMismatch, match="^detail level -2: expected length 10 at offset -2, "
                                            "got \\(10, 1\\)$"):
        dwt_reconstruct(pyr, db2)


@pytest.mark.parametrize("mode", ["zero", "periodic"])
def test_reconstruct_refuses_a_system_of_another_filter_length(mode):
    # the chain comes from the pyramid's own filter length: periodic mode
    # read a db2 pyramid with db4's chain and came back off by up to 23.6,
    # and zero mode refused the mix only because the lengths differed
    db2, db4 = build_wavelet_system("db2"), build_wavelet_system("db4")
    x = np.arange(32.0)
    pyr = dwt_decompose(x, db2, 2, mode)
    with pytest.raises(ShapeMismatch, match="^pyramid's filter length 4 is not the system's 8$"):
        dwt_reconstruct(pyr, db4)
    for value in ("x", None, 4.5, 6):
        pyr.filter_length = value
        with pytest.raises(ShapeMismatch, match=f"^pyramid's filter length {value!r} is not "
                                                "the system's 4$"):
            dwt_reconstruct(pyr, db2)
    pyr.filter_length = 4.0  # an integral float is read as 4
    assert np.max(np.abs(dwt_reconstruct(pyr, db2) - x)) <= 1e-12
