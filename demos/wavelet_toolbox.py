"""Tour of the wavelet machinery underneath the distances.

Shows the filter catalog with its defining identities, dyadic values of
the scaling/wavelet functions from the refinement cascade, a perfect
reconstruction round trip, and the constants that calibrate the
two-sided comparison with the exact transport distance.

Run: python demos/wavelet_toolbox.py
"""

import numpy as np

from waveot import (build_wavelet_system, cascade_evaluate, catalog_names,
                    dwt_decompose, dwt_reconstruct, estimate_constants)

print("catalog:", ", ".join(catalog_names()))

db10 = build_wavelet_system("db10")
print(f"\ndb10: {len(db10.g)} taps, support length {db10.support_length}")
print(f"  sum g - sqrt(2) = {db10.g.sum() - np.sqrt(2):.2e}")
print(f"  sum h           = {db10.h.sum():.2e}")
print(f"  ||g||^2 - 1     = {np.dot(db10.g, db10.g) - 1:.2e}")


def trapezoid(sd):
    """Trapezoid-rule integral of a sampled function."""
    return np.sum(sd.spacing * (sd.values[1:] + sd.values[:-1]) / 2.0)


phi = cascade_evaluate(db10, "scaling", 12)
psi = cascade_evaluate(db10, "wavelet", 12)
print(f"\nscaling function on {len(phi.values)} dyadic points, "
      f"mass = {trapezoid(phi):.12f}")
print(f"wavelet cancellation: integral = {trapezoid(psi):.2e}")

rng = np.random.default_rng(0)
x = rng.standard_normal(4096)
pyr = dwt_decompose(x, db10, 8, "zero")
err = np.max(np.abs(dwt_reconstruct(pyr, db10) - x))
print(f"\n8-level round trip on 4096 samples: max error {err:.2e}")

print("\nconstants 1/inf_r int |x-r|^s |phi|, same for psi, and 1/||phi||_1:")
print(f"  {'wavelet':>8} {'s':>5} {'a11':>10} {'a12':>10} {'a13':>10}")
for name in ("haar", "db4", "db10"):
    system = build_wavelet_system(name)
    for s in (0.5, 1.0):
        c = estimate_constants(system, s)
        print(f"  {name:>8} {s:5.2f} {c.a11:10.5f} {c.a12:10.5f} {c.a13:10.5f}")
