import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def test_db1_is_haar_alias():
    assert np.array_equal(build_wavelet_system("db1").g,
                          build_wavelet_system("haar").g)


def test_filters_immutable():
    w = build_wavelet_system("db3")
    with pytest.raises(ValueError):
        w.g[0] = 0.0


def test_generator_reproduces_the_embedded_tables():
    pytest.importorskip("mpmath")
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "make_daubechies_tables.py")],
                         cwd=ROOT, capture_output=True, check=True)
    assert out.stdout == (ROOT / "src" / "waveot" / "_db_tables.py").read_bytes()


def _broken_filters(part):
    w = build_wavelet_system("db2")
    g, h = w.g.copy(), w.h.copy()
    if part == "length":
        return g[:3], h[:3]
    if part == "low_sum":
        return g * 1.01, h
    if part == "high_sum":
        return g, h + 0.01
    if part == "orthogonality":
        # even and odd taps each sum to 1/sqrt(2) and the norm is 1, so the
        # lag-2 and lag-4 products cancel, but each is -0.1736 or +0.1736
        S = 0.9
        p, r = (S + np.array([1.0, -1.0]) * np.sqrt(S * S - 4 * (S * S - S / ROOT2))) / 2
        g = np.array([p, 1 / ROOT2, 1 / ROOT2 - S, 0.0, r, 0.0])
        return g, (-1.0) ** np.arange(6) * g[::-1]
    return g, -h  # the quadrature-mirror relation


@pytest.mark.parametrize("part, message", [
    ("length", "even length"), ("low_sum", "low-pass sum"), ("high_sum", "high-pass sum"),
    ("orthogonality", "shift-orthogonality"), ("mirror", "quadrature-mirror")])
def test_hand_built_system_breaking_an_identity_is_invalid_config(part, message):
    g, h = _broken_filters(part)
    with pytest.raises(InvalidConfig, match=f"bad: .*{message}"):
        WaveletSystem(name="bad", g=g, h=h)
