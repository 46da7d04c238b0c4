import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import waveot.densities
import waveot.exact
import waveot.simulate
from waveot.cascade import estimate_constants
from waveot.cli import build_parser, main
from waveot.densities import translate, uniform_density
from waveot.distance import DistanceConfig, distance_new, distance_original
from waveot.embedding import read_wlot
from waveot.filters import build_wavelet_system
from waveot.simulate import SimulationSpec


def test_constants_command(capsys):
    assert main(["constants", "--wavelet", "haar", "--s", "1.0"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    got = {line.split()[0]: float(line.split()[1]) for line in out}
    ref = estimate_constants(build_wavelet_system("haar"), 1.0)
    assert abs(got["a11"] - ref.a11) < 1e-9
    assert abs(got["a12"] - ref.a12) < 1e-9
    assert abs(got["a13"] - ref.a13) < 1e-9


def test_distance_command(capsys):
    code = main(["distance", "--family", "uniform_translate", "--param", "0.8",
                 "--s", "0.5", "--j0", "-6", "--levels", "12",
                 "--wavelet", "db10"])
    assert code == 0
    printed = float(capsys.readouterr().out.strip())
    cfg = DistanceConfig(s=0.5, j0=-6, M=12, wavelet="db10", formulation="new")
    p = uniform_density(0.0, 1.0)
    ref = distance_new(p, translate(p, 0.8), cfg)
    assert abs(printed - ref) < 1e-9 * max(1.0, ref)


def test_distance_command_auto_c0(capsys):
    # the alternative formulation defaults to C0 = diam(EXACT_DOMAIN)^s = 3^s
    code = main(["distance", "--family", "uniform_translate", "--param", "0.8",
                 "--s", "0.5", "--j0", "-6", "--levels", "12",
                 "--formulation", "alternative"])
    assert code == 0
    printed = float(capsys.readouterr().out.strip())
    cfg = DistanceConfig(s=0.5, j0=-6, M=12, formulation="alternative",
                         C0=3 ** 0.5)
    p = uniform_density(0.0, 1.0)
    ref = distance_original(p, translate(p, 0.8), cfg)
    assert abs(printed - ref) < 1e-9 * max(1.0, ref)


def test_explicit_auto_c0_is_the_default(capsys):
    args = ["distance", "--family", "bump_dilate", "--param", "1.2", "--s", "0.25",
            "--j0", "-6", "--levels", "12", "--formulation", "alternative"]
    assert main(args) == 0
    default = capsys.readouterr().out
    assert main(args + ["--c0", "auto"]) == 0
    assert capsys.readouterr().out == default
    with pytest.raises(SystemExit) as exc:
        main(args + ["--c0", "heavy"])
    assert exc.value.code == 2


def test_flag_defaults_are_the_librarys():
    # each default has one copy, in SimulationSpec or DistanceConfig
    spec = {f.name: f.default for f in fields(SimulationSpec)}
    cfg = {f.name: f.default for f in fields(DistanceConfig)}
    parser = build_parser()
    args = parser.parse_args(["simulate", "--family", "bump_dilate", "--out", "x.csv"])
    assert (args.count, args.exact_points, tuple(args.s)) == \
        (spec["count"], spec["exact_grid_points"], spec["s_values"])
    assert (args.wavelet, args.formulation, args.c0, args.c1) == \
        (cfg["wavelet"], cfg["formulation"], cfg["C0"], cfg["C1"])
    assert parser.parse_args(["constants"]).wavelet == cfg["wavelet"]


def test_simulate_deterministic(tmp_path, capsys):
    args = ["simulate", "--family", "uniform_translate", "--s", "1.0",
            "--j0", "-6", "--levels", "12", "--count", "5",
            "--exact-points", "100"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().strip().split("\n")
    assert len(lines) == 6
    assert lines[0].startswith("family,")


def test_embed_command(tmp_path, capsys):
    out = tmp_path / "vec.wlot"
    code = main(["embed", "--family", "bump_translate", "--param", "0.5",
                 "--s", "0.5", "--j0", "-6", "--levels", "12", "--out", str(out)])
    assert code == 0
    vec = read_wlot(out)
    assert vec.j0 == -6 and vec.M == 12 and len(vec) > 0


@pytest.mark.parametrize("formulation", ["original", "alternative"])
def test_embed_refuses_other_formulations(tmp_path, capsys, formulation):
    out = tmp_path / "vec.wlot"
    code = main(["embed", "--family", "bump_translate", "--param", "0.5",
                 "--s", "0.5", "--j0", "-6", "--levels", "12",
                 "--formulation", formulation, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_unknown_family_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--family", "nope", "--out", "x.csv"])
    assert exc.value.code != 0


def test_io_error_reports_and_fails(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "out.csv"
    code = main(["simulate", "--family", "uniform_translate", "--s", "1.0",
                 "--j0", "-6", "--levels", "12", "--count", "3",
                 "--exact-points", "80", "--out", str(target)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_domain_error_reports_and_fails(capsys):
    # translation range pushes the support outside [0, 2^-j0]
    code = main(["distance", "--family", "uniform_translate", "--param", "70.0",
                 "--s", "0.5", "--j0", "-6", "--levels", "12"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_support_outside_the_exact_grid_reports_and_fails(tmp_path, capsys):
    # at param 2.5 the support [2.5, 3.5] leaves the exact grid [0, 3]: the
    # cut-off density used to be renormalized and its W_1 written to the CSV
    out = tmp_path / "out.csv"
    code = main(["simulate", "--family", "uniform_translate", "--s", "1",
                 "--j0", "-6", "--levels", "12", "--range", "0", "2.5", "--count", "2",
                 "--exact-points", "80", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: family uniform_translate, s=1.0, param=2.5: support [2.5, 3.5] reaches "
        "outside the grid domain [0.0, 3.0]\n")
    assert not out.exists()


def test_solver_non_convergence_reports_and_fails(tmp_path, capsys, monkeypatch):
    # the bump_dilate cells at s < 1 need one pivot from the nested start,
    # so a budget of none cannot solve them
    monkeypatch.setattr(waveot.exact, "_PIVOTS_PER_NODE", 0)
    monkeypatch.setattr(waveot.exact, "_PIVOTS_EXTRA", 0)
    code = main(["simulate", "--family", "bump_dilate", "--s", "0.5",
                 "--j0", "-6", "--levels", "12", "--count", "3",
                 "--exact-points", "80", "--out", str(tmp_path / "out.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "did not converge" in err


def test_residual_budget_reports_and_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(waveot.exact, "_MAX_RESIDUAL_CELLS", 100)
    code = main(["simulate", "--family", "bump_dilate", "--s", "0.5",
                 "--j0", "-6", "--levels", "12", "--count", "3",
                 "--exact-points", "80", "--out", str(tmp_path / "out.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "budget of 100 cells" in err


def test_sampling_budget_reports_and_fails(capsys, monkeypatch):
    monkeypatch.setattr(waveot.densities, "_MAX_SAMPLE_POINTS", 1000)
    code = main(["distance", "--family", "bump_dilate", "--param", "1.2",
                 "--s", "0.5", "--j0", "-6", "--levels", "12"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "budget of 1000 points" in err


@pytest.mark.parametrize("weight", [["--c1", "-1"], ["--c1", "nan"], ["--c0", "inf"]])
def test_bad_alternative_weights_report_and_fail(capsys, weight):
    code = main(["distance", "--family", "uniform_translate", "--param", "0.5",
                 "--s", "0.5", "--j0", "-4", "--levels", "10",
                 "--formulation", "alternative"] + weight)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_grid_past_double_range_reports_and_fails(capsys):
    # the domain 2^1100 overflows a double; this used to be an OverflowError
    code = main(["distance", "--family", "bump_dilate", "--param", "1.2",
                 "--j0", "-1100", "--levels", "1110"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("bad", [["--count", "1"], ["--range", "2", "1"],
                                 ["--range", " -1e308", "1e308"]])
def test_bad_sweep_spec_reports_and_fails(tmp_path, capsys, bad):
    # the overflowing range printed numpy's "invalid value" warning, then
    # "support must be finite with lo < hi, got (nan, nan)"
    code = main(["simulate", "--family", "bump_dilate", "--out",
                 str(tmp_path / "out.csv")] + bad)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_exponent_in_a_sweep_fails_before_it_starts(tmp_path, capsys, monkeypatch):
    def unreachable(p, q, cfg):
        raise AssertionError("a wavelet distance was computed")

    monkeypatch.setattr(waveot.simulate, "wavelet_distance", unreachable)
    out = tmp_path / "out.csv"
    code = main(["simulate", "--family", "bump_dilate", "--s", "1", "0.5", "1.5",
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "1.5" in err
    assert not out.exists()


def test_bad_exact_points_fail_before_any_density_is_built(tmp_path, capsys, monkeypatch):
    # refused before the sweep builds its 1000 transforms, 18.7 s of work
    def unreachable(d):
        raise AssertionError("a density was built")

    monkeypatch.setattr(waveot.densities.Density, "__post_init__", unreachable)
    out = tmp_path / "out.csv"
    code = main(["simulate", "--family", "bump_translate", "--s", "1", "--count", "1000",
                 "--exact-points", "1", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "error: exact_grid_points: need 2 to 33554432 grid points, got 1\n"


def test_zero_exact_points_reports_and_fails(tmp_path, capsys):
    code = main(["simulate", "--family", "uniform_translate", "--s", "1.0",
                 "--j0", "-6", "--levels", "12", "--count", "3",
                 "--exact-points", "0", "--out", str(tmp_path / "out.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "grid points" in err


def test_exact_points_past_budget_reports_and_fails(tmp_path, capsys):
    # 10^13 points are 80 TB; this used to end in a numpy MemoryError traceback
    out = tmp_path / "out.csv"
    code = main(["simulate", "--family", "bump_dilate", "--s", "1", "--count", "2",
                 "--exact-points", "10000000000000", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "grid points" in captured.err


def test_count_past_budget_reports_and_fails(tmp_path, capsys):
    # np.linspace of 10^13 parameters used to end in a MemoryError traceback
    out = tmp_path / "out.csv"
    code = main(["simulate", "--family", "bump_dilate", "--s", "1",
                 "--count", "10000000000000", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "count must lie in [2, 100000]" in captured.err


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; importing it costs most of a CLI start
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, waveot.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
