import math
import re
from dataclasses import replace

import numpy as np
import pytest

from helpers import CodedError
from waveot import densities, simulate
from waveot.densities import (_MAX_SAMPLE_POINTS, bump_density, dilate, sample_for_dwt,
                              translate, uniform_density)
from waveot.distance import DistanceConfig, distance_original
from waveot.errors import DegenerateFit, InvalidConfig, InvalidExponent, UnknownWavelet
from waveot.simulate import (CSV_HEADER, FAMILIES, SimulationRow, SimulationSpec,
                             emit_csv, fit_normalization, run_simulation)

SMALL_CFG = DistanceConfig(s=1.0, j0=-8, M=14, wavelet="db10", formulation="new")


def make_row(param, wavelet_value, exact_value, s=1.0):
    return SimulationRow(family="uniform_translate", formulation="new",
                         wavelet="db10", s=s, j0=-8, M=14, param=param,
                         wavelet_value=wavelet_value, exact_value=exact_value,
                         norm_constant=0.0, normalized_value=0.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        SimulationSpec(family="gaussian_translate", cfg=SMALL_CFG)
    with pytest.raises(ValueError):
        SimulationSpec(family="uniform_translate", cfg=SMALL_CFG, count=1)
    with pytest.raises(ValueError):
        SimulationSpec(family="uniform_translate", cfg=SMALL_CFG,
                       param_range=(2.0, 1.0))
    top = SimulationSpec(family="uniform_translate", cfg=SMALL_CFG,
                         count=simulate._MAX_COUNT)
    assert len(top.params()) == simulate._MAX_COUNT
    with pytest.raises(ValueError, match="count must lie"):
        SimulationSpec(family="uniform_translate", cfg=SMALL_CFG,
                       count=simulate._MAX_COUNT + 1)


@pytest.mark.parametrize("kwargs", [
    {"s_values": 0.5}, {"s_values": None}, {"param_range": (1,)}, {"param_range": 1.0},
    {"param_range": ("a", "b")}, {"param_range": (0.0, float("inf"))}, {"family": ["x"]},
    {"family": None}])
def test_spec_refuses_ill_typed_fields(kwargs):
    # these used to escape as TypeError or ValueError, or, for the strings
    # and the infinite range, to fail only once the sweep ran
    with pytest.raises(InvalidConfig):
        SimulationSpec(**{"family": "uniform_translate", "cfg": SMALL_CFG, **kwargs})


def test_csv_keeps_the_wavelet_as_the_user_spells_it():
    cfg = replace(SMALL_CFG, wavelet="db1")
    rows = run_simulation(SimulationSpec(family="uniform_translate", cfg=cfg, s_values=(1.0,),
                                         count=2, exact_grid_points=40))
    assert [row.wavelet for row in rows] == ["db1", "db1"]


def test_spec_keeps_its_exponents_as_a_tuple():
    spec = SimulationSpec(family="uniform_translate", cfg=SMALL_CFG, s_values=[1.0, 0.5])
    assert spec.s_values == (1.0, 0.5)
    assert spec == SimulationSpec(family="uniform_translate", cfg=SMALL_CFG,
                                  s_values=(1.0, 0.5))


def test_spec_refuses_a_bad_exponent_before_the_sweep(monkeypatch):
    # the sweep used to run the s = 1 and s = 0.5 groups, 8 wavelet
    # distances and exact solves, before s = 1.5 raised
    calls = []
    monkeypatch.setattr(simulate, "wavelet_distance", lambda *args: calls.append(args))
    with pytest.raises(InvalidExponent, match="got 1.5"):
        SimulationSpec(family="bump_dilate", cfg=DistanceConfig(s=1.0, j0=-9, M=12),
                       s_values=(1.0, 0.5, 1.5), count=4)
    assert calls == []


def test_spec_checks_its_bounds_before_any_density_is_built(monkeypatch):
    # refused before run_simulation builds every transform (1000 of them
    # take 18.7 s) and before discretize would refuse the grid
    built = []
    monkeypatch.setattr(densities.Density, "__post_init__", lambda d: built.append(d))
    for kwargs, message in (({"s_values": ()}, "at least one exponent"),
                            # "0.5" was split into "0", ".", "5" and refused
                            # as "s must lie in (0, 1], got 0", not by name
                            ({"s_values": "0.5"}, "at least one exponent, got '0.5'$"),
                            ({"exact_grid_points": 1}, "need 2 to 33554432 grid points, got 1"),
                            ({"exact_grid_points": _MAX_SAMPLE_POINTS + 1}, "grid points")):
        with pytest.raises(InvalidConfig, match=message):
            SimulationSpec(family="bump_translate", cfg=SMALL_CFG, count=1000, **kwargs)
    for points in (2, _MAX_SAMPLE_POINTS):
        spec = SimulationSpec(family="bump_translate", cfg=SMALL_CFG, exact_grid_points=points)
        assert spec.exact_grid_points == points
    assert built == []


def test_spec_takes_integral_float_counts():
    spec = SimulationSpec(family="uniform_translate", cfg=SMALL_CFG, s_values=(1.0,),
                          count=3.0, exact_grid_points=40.0)
    assert type(spec.count) is int and type(spec.exact_grid_points) is int
    ref = SimulationSpec(family="uniform_translate", cfg=SMALL_CFG, s_values=(1.0,),
                         count=3, exact_grid_points=40)
    assert spec == ref
    assert run_simulation(spec) == run_simulation(ref)
    for kwargs in ({"count": 2.5}, {"count": float("nan")}, {"exact_grid_points": 20.5},
                   {"exact_grid_points": None}):
        with pytest.raises(InvalidConfig):
            SimulationSpec(family="uniform_translate", cfg=SMALL_CFG, **kwargs)


def test_default_param_ranges():
    spec = SimulationSpec(family="uniform_translate", cfg=SMALL_CFG, count=20)
    assert spec.params()[0] == 0.0 and spec.params()[-1] == 2.0
    spec = SimulationSpec(family="bump_dilate", cfg=SMALL_CFG, count=20)
    assert spec.params()[0] == 0.5 and spec.params()[-1] == 1.5


def test_fit_normalization_exact_proportionality():
    rows = [make_row(p, w, 2.0 * w) for p, w in [(0.5, 1.0), (1.0, 2.0), (2.0, 3.0)]]
    assert abs(fit_normalization(rows) - 2.0) < 1e-12


def test_fit_normalization_single_row():
    assert abs(fit_normalization([make_row(1.0, 1.0, 3.0)]) - 3.0) < 1e-12


def test_fit_normalization_excludes_low_params():
    # the contaminated row below 10% of the range must not affect the fit
    rows = [make_row(0.0, 5.0, 0.0)] + \
           [make_row(p, w, 2.0 * w) for p, w in [(0.5, 1.0), (1.0, 2.0), (2.0, 3.0)]]
    assert abs(fit_normalization(rows) - 2.0) < 1e-12


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_fit_normalization_at_the_ends_of_the_double_range(scale):
    # the unscaled sums overflowed to nan at 1e200 and underflowed to a
    # refused "all zero" window at 1e-200
    w = [scale * v for v in (1.0, 2.0, 3.0)]
    assert fit_normalization([make_row(p, v, v) for p, v in zip((0.5, 1.0, 2.0), w)]) == 1.0
    assert fit_normalization([make_row(p, v, 2 * v) for p, v in zip((0.5, 1.0, 2.0), w)]) == 2.0


def test_fit_normalization_refuses_a_constant_past_the_double_range():
    # c = 1e600; the unscaled sum of squares underflowed and read "all zero"
    with pytest.raises(DegenerateFit, match="^the least-squares constant overflows a double$"):
        fit_normalization([make_row(1.0, 1e-300, 1e300)])


def test_fit_normalization_keeps_the_unscaled_bits():
    # the sums are formed over powers of two, which is exact, so c is the
    # unscaled least-squares ratio bit for bit wherever that did not overflow
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(1, 20))
        w = rng.standard_normal(n) * 10.0 ** rng.uniform(-30, 30)
        e = rng.standard_normal(n) * 10.0 ** rng.uniform(-30, 30)
        rows = [make_row(1.0, wi, ei) for wi, ei in zip(w.tolist(), e.tolist())]
        assert fit_normalization(rows) == float(np.sum(w * e) / np.sum(w ** 2))


def test_fit_normalization_degenerate():
    with pytest.raises(DegenerateFit):
        fit_normalization([make_row(1.0, 0.0, 1.0)])
    with pytest.raises(DegenerateFit):
        fit_normalization([])


def test_run_simulation_identity_and_w1():
    spec = SimulationSpec(family="uniform_translate", cfg=SMALL_CFG,
                          s_values=(1.0,), count=21, param_range=(0.0, 2.0),
                          exact_grid_points=1000)
    rows = run_simulation(spec)
    assert len(rows) == 21
    first = rows[0]
    assert first.param == 0.0
    assert first.wavelet_value == 0.0 and first.exact_value == 0.0
    one = [r for r in rows if abs(r.param - 1.0) < 1e-12][0]
    assert abs(one.exact_value - 1.0) < 2e-3
    assert rows[0].norm_constant == rows[5].norm_constant


def test_rows_ordered_by_s_then_param():
    spec = SimulationSpec(family="uniform_translate", cfg=SMALL_CFG,
                          s_values=(1.0, 0.5), count=4, exact_grid_points=120)
    rows = run_simulation(spec)
    assert [r.s for r in rows] == [1.0] * 4 + [0.5] * 4
    params = [r.param for r in rows[:4]]
    assert params == sorted(params)


def test_normalized_value_consistency():
    spec = SimulationSpec(family="bump_translate", cfg=SMALL_CFG,
                          s_values=(0.5,), count=5, exact_grid_points=120)
    for r in run_simulation(spec):
        assert abs(r.normalized_value - r.norm_constant * r.wavelet_value) < 1e-15


def test_auto_c0_uses_domain_diameter_power():
    cfg = DistanceConfig(s=1.0, j0=-4, M=12, wavelet="db4",
                         formulation="alternative")
    spec = SimulationSpec(family="uniform_dilate", cfg=cfg, s_values=(0.5,),
                          count=4, exact_grid_points=120)
    rows = run_simulation(spec)
    assert all(np.isfinite(r.wavelet_value) for r in rows)
    nonidentity = [r for r in rows if abs(r.param - 1.0) > 1e-9]
    assert all(r.wavelet_value > 0 for r in nonidentity)
    base, transform, _ = FAMILIES["uniform_dilate"]
    auto = replace(cfg, s=0.5, C0=3 ** 0.5)
    row = nonidentity[0]
    assert row.wavelet_value == distance_original(base(), transform(row.param), auto)


def test_emit_csv(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv([], path)
    assert path.read_text() == CSV_HEADER + "\n"

    spec = SimulationSpec(family="uniform_translate", cfg=SMALL_CFG,
                          s_values=(1.0, 0.5, 0.25), count=20,
                          exact_grid_points=120)
    rows = run_simulation(spec)
    emit_csv(rows, path)
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 62  # header + 60 rows + trailing newline
    assert lines[-1] == ""

    path2 = tmp_path / "again.csv"
    emit_csv(run_simulation(spec), path2)
    assert path2.read_bytes() == path.read_bytes()


def test_run_simulation_error_context(monkeypatch):
    spec = SimulationSpec(family="uniform_translate", cfg=SMALL_CFG, s_values=(1.0,),
                          count=2, exact_grid_points=40)
    context = "family uniform_translate, s=1.0, param=0.0"

    def unknown(p, q, cfg):
        raise UnknownWavelet("db99")

    monkeypatch.setattr(simulate, "wavelet_distance", unknown)
    with pytest.raises(UnknownWavelet) as exc:
        run_simulation(spec)
    assert str(exc.value) == f"{context}: db99"

    err = CodedError(7, "solver state")

    def foreign(p, q, cfg):
        raise err

    monkeypatch.setattr(simulate, "wavelet_distance", foreign)
    with pytest.raises(CodedError) as exc:
        run_simulation(spec)
    assert exc.value is err and exc.value.args == (7, "solver state")
    if hasattr(err, "add_note"):  # Python 3.11+
        assert err.__notes__ == [context]


def test_spec_refuses_a_cfg_that_is_not_a_distance_config():
    # these used to escape as TypeError from dataclasses.replace
    for cfg in (None, "x"):
        with pytest.raises(InvalidConfig,
                           match=f"^expected a DistanceConfig, got {re.escape(repr(cfg))}$"):
            SimulationSpec(family="bump_dilate", cfg=cfg)


def test_csv_header_is_pinned():
    assert CSV_HEADER == ("family,formulation,wavelet,s,j0,M,param,"
                          "wavelet_value,exact_value,norm_constant,normalized_value")


def test_emit_csv_formats_each_column(tmp_path):
    # the widest grid a config allows, and values that need all twelve
    # significant digits or an exponent
    row = SimulationRow(family="bump_dilate", formulation="alternative", wavelet="DB10",
                        s=0.25, j0=-1023, M=2097, param=0.1 + 0.2, wavelet_value=1.0 / 3.0,
                        exact_value=1.2345678901234e-20, norm_constant=123456789012345.0,
                        normalized_value=-2.5)
    path = tmp_path / "row.csv"
    emit_csv([row, make_row(1.5, 2.0 / 3.0, 6.02214076e23)], path)
    assert path.read_text().split("\n")[1:] == [
        "bump_dilate,alternative,DB10,0.25,-1023,2097,0.3,0.333333333333,"
        "1.23456789012e-20,1.23456789012e+14,-2.5",
        "uniform_translate,new,db10,1,-8,14,1.5,0.666666666667,6.02214076e+23,0,0",
        ""]


@pytest.mark.parametrize("family, explicit", [
    ("uniform_translate", lambda t: translate(uniform_density(0.0, 1.0), t)),
    ("uniform_dilate", lambda t: dilate(uniform_density(1.0, 2.0), t, 1.5)),
    ("bump_translate", lambda t: translate(bump_density(0.5, 0.5), t)),
    ("bump_dilate", lambda t: dilate(bump_density(1.5, 0.5), t, 1.5)),
])
def test_family_transforms_are_the_paper_sweeps(family, explicit):
    # each family translates or dilates its base about the base's centre
    _, transform, (lo, hi) = FAMILIES[family]
    for t in (lo, hi):
        got, want = transform(t), explicit(t)
        assert got.support == want.support
        a, b = sample_for_dwt(got, -2, 10), sample_for_dwt(want, -2, 10)
        assert a.offset == b.offset and a.values.tobytes() == b.values.tobytes()


def test_run_simulation_refuses_a_spec_that_is_not_a_simulation_spec():
    with pytest.raises(InvalidConfig, match="^expected a SimulationSpec, got 'x'$"):
        run_simulation("x")


def test_fit_normalization_refuses_rows_that_are_not_simulation_rows():
    with pytest.raises(DegenerateFit, match="^rows must be an iterable of SimulationRow, got 5$"):
        fit_normalization(5)
    with pytest.raises(DegenerateFit, match="^expected a SimulationRow, got 1$"):
        fit_normalization([1, 2])
    with pytest.raises(DegenerateFit, match="^expected a SimulationRow, got 'x'$"):
        fit_normalization([make_row(1.0, 1.0, 3.0), "x"])


def test_emit_csv_refuses_a_row_before_it_opens_the_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"kept\n")
    with pytest.raises(InvalidConfig, match="^expected a SimulationRow, got 'x'$"):
        emit_csv([make_row(1.0, 1.0, 3.0), "x"], path)
    assert path.read_bytes() == b"kept\n"


def test_each_norm_constant_is_the_fit_of_its_s_group():
    spec = SimulationSpec(family="bump_dilate", cfg=SMALL_CFG, s_values=(1.0, 0.5),
                          count=4, exact_grid_points=120)
    rows = run_simulation(spec)
    for s in spec.s_values:
        group = [r for r in rows if r.s == s]
        c = fit_normalization(group)
        assert len(group) == 4
        assert all(r.norm_constant == c and r.normalized_value == c * r.wavelet_value
                   for r in group)


@pytest.mark.parametrize("bad", [
    (1.0, math.nan, 2.0), (1.0, math.inf, 2.0), (1.0, 1.0, -math.inf), (math.inf, 1.0, 2.0),
], ids=["nan-wavelet", "inf-wavelet", "inf-exact", "inf-param"])
def test_fit_normalization_refuses_non_finite_values(bad):
    # NaN wavelet values gave a NaN constant, one inf gave NaN and a warning
    rows = [make_row(0.5, 1.0, 2.0), make_row(*bad)]
    with pytest.raises(DegenerateFit, match="must be finite$"):
        fit_normalization(rows)
    # below the fit window, a NaN value does not enter the fit
    assert fit_normalization([make_row(0.0, math.nan, 0.0), make_row(1.0, 1.0, 3.0)]) == 3.0
