import dataclasses
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from waveot.densities import uniform_density
from waveot.distance import DistanceConfig, wavelet_distance
from waveot.errors import InvalidConfig, UnknownWavelet
from waveot.filters import WaveletSystem, build_wavelet_system, catalog_names

ROOT = Path(__file__).resolve().parents[1]
ROOT2 = np.sqrt(2.0)


def test_catalog_contents():
    names = catalog_names()
    assert names[0] == "haar"
    assert "db2" in names and "db20" in names
    assert len(names) == 20


def test_haar_filters_exact():
    w = build_wavelet_system("haar")
    assert np.allclose(w.g, [1 / ROOT2, 1 / ROOT2], atol=1e-15)
    assert np.allclose(w.h, [1 / ROOT2, -1 / ROOT2], atol=1e-15)
    assert w.support_length == 1


def test_db2_invariants():
    w = build_wavelet_system("db2")
    assert len(w.g) == 4
    assert abs(w.g.sum() - ROOT2) < 1e-12
    assert abs(np.dot(w.g[:2], w.g[2:])) < 1e-12


@pytest.mark.parametrize("name", catalog_names())
def test_filter_identities(name):
    w = build_wavelet_system(name)
    L = len(w.g)
    assert L % 2 == 0
    assert abs(w.g.sum() - ROOT2) < 1e-12
    assert abs(w.h.sum()) < 1e-12
    for m in range(1, L // 2):
        assert abs(np.dot(w.g[: L - 2 * m], w.g[2 * m:])) < 1e-12
    assert abs(np.dot(w.g, w.g) - 1.0) < 1e-12
    qmf = ((-1.0) ** np.arange(L)) * w.g[::-1]
    assert np.max(np.abs(w.h - qmf)) < 1e-12


def test_unknown_names_rejected():
    with pytest.raises(UnknownWavelet):
        build_wavelet_system("db99")
    with pytest.raises(UnknownWavelet):
        build_wavelet_system("sym4")
    with pytest.raises(UnknownWavelet):
        build_wavelet_system("dbx")


@pytest.mark.parametrize("name", [5, None, ["db10"], b"db10"])
def test_names_that_are_not_str_rejected(name):
    # these used to escape as AttributeError (or TypeError for bytes), and a
    # DistanceConfig that named one failed every distance that way
    with pytest.raises(UnknownWavelet, match=f"^{re.escape(str(name))}$"):
        build_wavelet_system(name)
    p = uniform_density(0.0, 1.0)
    with pytest.raises(UnknownWavelet):
        wavelet_distance(p, p, DistanceConfig(s=0.5, j0=-1, M=4, wavelet=name))


def test_db1_is_haar_alias():
    assert np.array_equal(build_wavelet_system("db1").g,
                          build_wavelet_system("haar").g)


@pytest.mark.parametrize("spelling, name", [("db1", "haar"), ("db01", "haar"), ("HAAR ", "haar"),
                                            ("db010", "db10"), ("db+2", "db2"),
                                            ("db\u0663", "db3"), (" DB20", "db20")])
def test_system_is_named_as_the_catalog_spells_it(spelling, name):
    # the lower-cased key used to be the name, so "db1", "db010" and "db+2"
    # gave names that are not catalog names
    system = build_wavelet_system(spelling)
    assert system.name == name and name in catalog_names()
    assert system is build_wavelet_system(name)


def test_lookup_builds_no_system_after_import(monkeypatch):
    # each transform, WlotVector and .wlot header used to build and check
    # its system afresh: 180 builds in a traced embed_matrix pass
    built = []
    monkeypatch.setattr(WaveletSystem, "__post_init__", lambda system: built.append(system))
    for name in catalog_names():
        system = build_wavelet_system(name)
        assert system is build_wavelet_system(f" {name.upper()} ") and system.name == name
        DistanceConfig(s=0.5, j0=-3, M=8, wavelet=name)
    assert built == []


def test_filters_immutable():
    w = build_wavelet_system("db3")
    with pytest.raises(ValueError):
        w.g[0] = 0.0


def test_generator_reproduces_the_embedded_tables():
    pytest.importorskip("mpmath")
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "make_daubechies_tables.py")],
                         cwd=ROOT, capture_output=True, check=True)
    assert out.stdout == (ROOT / "src" / "waveot" / "_db_tables.py").read_bytes()


def _broken_filter(part):
    g = build_wavelet_system("db2").g.copy()
    if part == "length":
        return g[:3]
    if part == "low_sum":
        return g * 1.01
    if part == "high_sum":  # the sum stays sqrt(2), the alternating sum moves by 0.02
        return g + 0.005 * (-1.0) ** np.arange(4)
    if part == "norm":
        # |g|^2 = (even sum)^2 + (odd sum)^2 - 2 (lag products), so with both
        # sums exact a lag-2 product of -0.9e-12, inside the tolerance, puts
        # the norm 1.8e-12 off 1, outside it
        r = 1 / ROOT2
        a = (r + np.sqrt(r * r + 3.6e-12)) / 2
        return np.array([a, r, r - a, 0.0])
    # even and odd taps each sum to 1/sqrt(2) and the norm is 1, so the
    # lag-2 and lag-4 products cancel, but each is -0.1736 or +0.1736
    S = 0.9
    p, r = (S + np.array([1.0, -1.0]) * np.sqrt(S * S - 4 * (S * S - S / ROOT2))) / 2
    return np.array([p, 1 / ROOT2, 1 / ROOT2 - S, 0.0, r, 0.0])


@pytest.mark.parametrize("part, message", [
    ("length", "even length"), ("low_sum", "low-pass sum"), ("high_sum", "high-pass sum"),
    ("norm", "low-pass norm"), ("orthogonality", "shift-orthogonality")])
def test_hand_built_system_breaking_an_identity_is_invalid_config(part, message):
    with pytest.raises(InvalidConfig, match=f"bad: .*{message}"):
        WaveletSystem(name="bad", g=_broken_filter(part))


def test_system_is_built_from_g_alone():
    # h is the quadrature mirror of g, computed as build_wavelet_system did
    # before the system took g alone, so no h can disagree with g
    assert [f.name for f in dataclasses.fields(WaveletSystem) if f.init] == ["name", "g"]
    for name in catalog_names():
        w = build_wavelet_system(name)
        g = np.array(w.g)
        mirror = ((-1.0) ** np.arange(len(g))) * g[::-1]
        assert WaveletSystem(name, g).h.tobytes() == w.h.tobytes() == mirror.tobytes()
    with pytest.raises(TypeError):
        WaveletSystem("haar", w.g, w.h)


@pytest.mark.parametrize("g", [
    ["a", "b"],
    np.array([1.0, 1.0]) / ROOT2 + 0j,
    None,
    np.array([[1.0], [1.0]]) / ROOT2,
], ids=["str", "complex", "none", "columns"])
def test_hand_built_system_with_filters_that_are_not_1d_reals_is_invalid_config(g):
    # these used to escape from numpy as ValueError or TypeError
    with pytest.raises(InvalidConfig, match="^x: filters must be 1-D arrays of real numbers$"):
        WaveletSystem("x", g)


def test_refused_system_leaves_the_callers_filters_writable():
    # the filters used to be marked read-only before the identities were checked
    g = np.array([0.5, 0.5])
    with pytest.raises(InvalidConfig, match="^bad: low-pass sum is not sqrt"):
        WaveletSystem("bad", g)
    assert g.flags.writeable
    system = WaveletSystem("haar", g * ROOT2)
    assert not (system.g.flags.writeable or system.h.flags.writeable)


def test_hand_built_system_with_nan_taps_is_invalid_config():
    # each identity test read abs(r) > tol, false for NaN, so all five passed
    # and the constants and the transform came out NaN
    nan = [float("nan")] * 4
    with pytest.raises(InvalidConfig, match="^x: low-pass sum is not sqrt\\(2\\)$"):
        WaveletSystem("x", nan)


@pytest.mark.parametrize("g", [[np.inf, -np.inf, 0.0, 0.0], [1e308, 1e308, -1e308, 0.0]],
                         ids=["opposite infinities", "overflowing sum"])
def test_taps_whose_sum_is_not_finite_are_refused_without_a_numpy_warning(g):
    # g.sum() warned "invalid value encountered in reduce" before the
    # refusal, so with warnings as errors the RuntimeWarning reached the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidConfig, match="^x: low-pass sum is not sqrt\\(2\\)$"):
            WaveletSystem("x", g)
