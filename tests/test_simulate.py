from dataclasses import replace

import numpy as np
import pytest

from helpers import CodedError
from waveot import simulate
from waveot.distance import DistanceConfig, distance_original
from waveot.errors import DegenerateFit, InvalidConfig, UnknownWavelet
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
    assert getattr(err, "__notes__", [context]) == [context]
