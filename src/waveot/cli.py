"""Command-line interface.

Subcommands:
  simulate   run a benchmark sweep and write a CSV
  distance   print one wavelet distance between a base density and its
             transform at a given parameter
  embed      write the sparse coefficient vector of a transformed density
  constants  print the estimated a11/a12/a13 constants for a wavelet

All parameters come from flags; exit code 0 on success, 1 with a
diagnostic line on stderr otherwise.
"""

import argparse
import sys

from .cascade import estimate_constants
from .distance import FORMULATIONS, DistanceConfig, wavelet_distance
from .embedding import embed, write_wlot
from .errors import WaveotError
from .filters import build_wavelet_system, catalog_names
from .simulate import EXACT_DOMAIN, FAMILIES, SimulationSpec, emit_csv, run_simulation

# translations wander further than dilations, so they default to a wider
# dyadic domain (larger 2^-j0)
_DEFAULT_J0 = {"uniform_translate": -11, "bump_translate": -11,
               "uniform_dilate": -9, "bump_dilate": -9}
_DEFAULT_M = 18
_FULL_M = 22


def _add_cfg_flags(p, with_s_list):
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    if with_s_list:
        p.add_argument("--s", type=float, nargs="+", default=SimulationSpec.s_values,
                       help="exponent values (default: %(default)s)")
    else:
        p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--j0", type=int, default=None,
                   help="lowest level (default: -11 for translations, -9 for dilations)")
    p.add_argument("--levels", type=int, default=None, metavar="M",
                   help=f"number of DWT levels (default {_DEFAULT_M}; {_FULL_M} with --full)")
    p.add_argument("--wavelet", default=DistanceConfig.wavelet, choices=catalog_names(),
                   help="(default: %(default)s)")
    p.add_argument("--formulation", default=DistanceConfig.formulation, choices=FORMULATIONS,
                   help="(default: %(default)s)")
    p.add_argument("--c0", type=lambda v: None if v == "auto" else float(v),
                   default=DistanceConfig.C0,
                   help="approximation weight; 'auto', the default, gives 0 for the "
                        "original and 3^s for the alternative formulation")
    p.add_argument("--c1", type=float, default=DistanceConfig.C1,
                   help="detail weight (default: %(default)s)")
    p.add_argument("--full", action="store_true",
                   help="full-size parameters (M = 22)")


def _resolve_cfg(args, s):
    j0 = args.j0 if args.j0 is not None else _DEFAULT_J0[args.family]
    M = args.levels if args.levels is not None else (_FULL_M if args.full else _DEFAULT_M)
    return DistanceConfig(s=s, j0=j0, M=M, wavelet=args.wavelet,
                          formulation=args.formulation, C0=args.c0, C1=args.c1)


def _cmd_simulate(args):
    spec = SimulationSpec(
        family=args.family, cfg=_resolve_cfg(args, args.s[0]), s_values=tuple(args.s),
        count=args.count, param_range=tuple(args.range) if args.range else None,
        exact_grid_points=args.exact_points)
    rows = run_simulation(spec)
    emit_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_distance(args):
    cfg = _resolve_cfg(args, args.s)
    base, transform, _ = FAMILIES[args.family]
    print(f"{wavelet_distance(base(), transform(args.param), cfg):.12g}")
    return 0


def _cmd_embed(args):
    cfg = _resolve_cfg(args, args.s)
    vec = embed(FAMILIES[args.family][1](args.param), cfg)
    write_wlot(vec, args.out)
    print(f"wrote {len(vec)} coefficients to {args.out}")
    return 0


def _cmd_constants(args):
    system = build_wavelet_system(args.wavelet)
    c = estimate_constants(system, args.s)
    print(f"a11 {c.a11:.12g}")
    print(f"a12 {c.a12:.12g}")
    print(f"a13 {c.a13:.12g}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="waveot",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a sweep and write a CSV")
    _add_cfg_flags(p, with_s_list=True)
    p.add_argument("--count", type=int, default=SimulationSpec.count,
                   help="parameters in the sweep (default: %(default)s)")
    p.add_argument("--range", type=float, nargs=2, default=None,
                   metavar=("LO", "HI"))
    p.add_argument("--exact-points", dest="exact_points", type=int,
                   default=SimulationSpec.exact_grid_points,
                   help="exact-solver grid points on [%g, %g] (default: %%(default)s)"
                   % EXACT_DOMAIN)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("distance", help="print one pairwise distance")
    _add_cfg_flags(p, with_s_list=False)
    p.add_argument("--param", type=float, required=True,
                   help="transform parameter (translation a or dilation b)")
    p.set_defaults(fn=_cmd_distance)

    p = sub.add_parser("embed", help="write an embedded coefficient vector")
    _add_cfg_flags(p, with_s_list=False)
    p.add_argument("--param", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_embed)

    p = sub.add_parser("constants", help="print a11/a12/a13 for a wavelet")
    p.add_argument("--wavelet", default=DistanceConfig.wavelet, choices=catalog_names(),
                   help="(default: %(default)s)")
    p.add_argument("--s", type=float, default=1.0)
    p.set_defaults(fn=_cmd_constants)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (WaveotError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
