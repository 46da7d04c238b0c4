"""Refusals of integers too long to print: every entry point that checks a
scalar argument refuses one of 5,001 digits, of either sign, with its own
WaveotError, a message that names the digit count and no warning.

Python prints at most 4,300 digits of an integer, so a message formatted
with such a value raised ValueError in place of the refusal.
"""

import warnings

import numpy as np
import pytest

from waveot import (DistanceConfig, SimulationSpec, WlotVector, bump_density,
                    build_wavelet_system, cascade_evaluate, dilate, discretize, dwt_decompose,
                    embed, estimate_constants, exact_ws, prune, sample_for_dwt, translate,
                    uniform_density)
from waveot.errors import (InvalidConfig, InvalidExponent, InvalidGrid, InvalidInterval,
                           InvalidLevels)

_UNIFORM = uniform_density(0.0, 1.0)
_DB2 = build_wavelet_system("db2")
_CFG = DistanceConfig(s=0.5, j0=-4, M=8, wavelet="db2")
_VEC = embed(_UNIFORM, _CFG)
_MEASURE = discretize(_UNIFORM, 10)

# each entry point with one argument given as n, and the error it refuses n with
_ENTRY_POINTS = {
    "translate a": (lambda n: translate(_UNIFORM, n), InvalidInterval),
    "dilate b": (lambda n: dilate(_UNIFORM, n, 0.5), InvalidInterval),
    "dilate about": (lambda n: dilate(_UNIFORM, 2.0, n), InvalidInterval),
    "bump_density center": (lambda n: bump_density(n, 0.5), InvalidInterval),
    "bump_density half_width": (lambda n: bump_density(0.5, n), InvalidInterval),
    "uniform_density ends": (lambda n: uniform_density(min(0, n), max(0, n)), InvalidInterval),
    "discretize num_points": (lambda n: discretize(_UNIFORM, n), InvalidGrid),
    "discretize domain": (lambda n: discretize(_UNIFORM, 10, (min(0, n), max(1, n))),
                          InvalidInterval),
    "sample_for_dwt j0": (lambda n: sample_for_dwt(_UNIFORM, n, 8), InvalidGrid),
    "sample_for_dwt M": (lambda n: sample_for_dwt(_UNIFORM, -4, n), InvalidGrid),
    "DistanceConfig s": (lambda n: DistanceConfig(s=n, j0=-4, M=8), InvalidExponent),
    "DistanceConfig j0": (lambda n: DistanceConfig(s=1, j0=n, M=8), InvalidConfig),
    "DistanceConfig M": (lambda n: DistanceConfig(s=1, j0=-4, M=n), InvalidConfig),
    "DistanceConfig C0": (lambda n: DistanceConfig(s=1, j0=-4, M=8, C0=n), InvalidConfig),
    "DistanceConfig C1": (lambda n: DistanceConfig(s=1, j0=-4, M=8, C1=n), InvalidConfig),
    "SimulationSpec count": (lambda n: SimulationSpec("uniform_translate", _CFG, count=n),
                             InvalidConfig),
    "SimulationSpec exact_grid_points": (
        lambda n: SimulationSpec("uniform_translate", _CFG, exact_grid_points=n), InvalidConfig),
    "SimulationSpec param_range": (
        lambda n: SimulationSpec("uniform_translate", _CFG, param_range=(min(0, n), max(1, n))),
        InvalidConfig),
    "dwt_decompose num_levels": (lambda n: dwt_decompose(np.ones(8), _DB2, n), InvalidLevels),
    "dwt_decompose j_in": (lambda n: dwt_decompose(np.ones(8), _DB2, 2, j_in=n), InvalidConfig),
    "dwt_decompose k_offset": (lambda n: dwt_decompose(np.ones(8), _DB2, 2, k_offset=n),
                               InvalidConfig),
    "cascade_evaluate refinement_depth": (lambda n: cascade_evaluate(_DB2, "scaling", n),
                                          InvalidLevels),
    "estimate_constants s": (lambda n: estimate_constants(_DB2, n), InvalidExponent),
    "exact_ws s": (lambda n: exact_ws(_MEASURE, _MEASURE, n), InvalidExponent),
    "prune eps": (lambda n: prune(_VEC, n), InvalidConfig),
    "WlotVector j0": (lambda n: WlotVector("db2", n, 8, _VEC.levels), InvalidConfig),
}


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_entry_points_refuse_an_integer_too_long_to_print(entry, sign):
    call, error = _ENTRY_POINTS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as refused:
            call(sign * 10 ** 5000)
    assert f"{'-' if sign < 0 else ''}<5001-digit integer>" in str(refused.value)
