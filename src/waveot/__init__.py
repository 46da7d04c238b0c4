"""Wavelet s-Wasserstein distances for 1-D probability densities.

Computes three weighted-l1 wavelet formulations of the s-Wasserstein
distance (0 < s <= 1) between densities on the line, compares them
against an exact discrete optimal-transport solver, and embeds measures
as sparse detail-coefficient vectors whose weighted-l1 metric reproduces
the "new" formulation exactly.
"""

from .cascade import HolderConstants, cascade_evaluate, estimate_constants
from .densities import (Density, DiscreteMeasure, bump_density, dilate, discretize,
                        sample_for_dwt, translate, uniform_density)
from .distance import (DistanceConfig, distance_matrix, distance_new,
                       distance_original, wavelet_distance)
from .dwt import CoefficientPyramid, dwt_decompose, dwt_reconstruct
from .embedding import (WlotVector, embed, prune, read_wlot, wlot_distance,
                        wlot_distance_matrix, write_wlot)
from .exact import exact_ws, w1_cdf
from .filters import WaveletSystem, build_wavelet_system, catalog_names
from .simulate import (SimulationRow, SimulationSpec, emit_csv,
                       fit_normalization, run_simulation)

__all__ = [
    "WaveletSystem", "build_wavelet_system", "catalog_names",
    "CoefficientPyramid", "dwt_decompose", "dwt_reconstruct",
    "cascade_evaluate", "estimate_constants", "HolderConstants",
    "Density", "DiscreteMeasure",
    "uniform_density", "bump_density", "translate", "dilate",
    "sample_for_dwt", "discretize",
    "exact_ws", "w1_cdf",
    "DistanceConfig", "distance_new", "distance_original",
    "distance_matrix", "wavelet_distance",
    "WlotVector", "embed", "wlot_distance", "wlot_distance_matrix",
    "prune", "write_wlot", "read_wlot",
    "SimulationSpec", "SimulationRow", "run_simulation",
    "fit_normalization", "emit_csv",
]

__version__ = "0.1.0"
