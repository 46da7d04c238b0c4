"""One fresh benchmark process: set up waveot, run one workload, check it.

Started by ``perfbench/run.py`` with ``src`` on ``PYTHONPATH`` and the
BLAS thread counts pinned to 1.  Prints one JSON object as the last line
of its standard output.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR
"""

import argparse
import json
import time

_T0 = time.perf_counter()

import waveot.cli  # noqa: E402  (timed: the import every CLI run pays)
from waveot.densities import bump_density  # noqa: E402
from waveot.filters import build_wavelet_system  # noqa: E402


def first_use():
    """The lazy work the first command of a process pays: the bump base
    mass quadrature and the default wavelet's filter validation."""
    bump_density(0.5, 0.5)
    build_wavelet_system("db10")


first_use()
SETUP_S = time.perf_counter() - _T0

import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "waveot"


def run_workload(args):
    import tracer as tracing
    import workloads

    tracer = None
    if args.trace:
        tracing.check_passthrough()
        tracer = tracing.Tracer()
        tracer.install(tracing.IMPORT_SITES)
        tracer.install((workloads, attr, name) for attr, name in workloads.BENCH_SITES)
    cls = workloads.WORKLOADS[args.workload]
    reference = json.loads((Path(__file__).parent / "reference_seed0.json")
                           .read_text())[cls.name]
    workload = cls(args.seed, Path(args.workdir), reference, tracer)

    # whole passes, at least two, while the next one fits in the time
    results = []
    if tracer:
        tracer.active = True
    t_end = time.perf_counter() + args.seconds
    while len(results) < 2 or \
            time.perf_counter() + min(r[0] for r in results) <= t_end:
        results.append(workload.run_pass())
        if len(results) == 1:
            # the peak of one pass: later passes add the outputs kept for
            # the checks, and their number depends on the host's speed
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.active = False
    passes = len(results)

    checks = workloads.Checks()
    try:
        workload.check(results, checks)
    except Exception as exc:  # a check that raises is a failed check
        checks.attempted += 1
        checks.fail(("check",), f"checks raised {type(exc).__name__}: {exc}")
    out = {
        "workload": cls.name,
        "passes": passes,
        "pass_s": [r[0] for r in results],
        "op_s": [[t1 - t0 for t0, t1 in r[1]] for r in results],
        "peak_rss_mb": peak_rss_mb,
        "attempted": checks.attempted,
        "failed": len(checks.failed_ops),
        "messages": checks.messages,
    }
    if tracer:
        out["layers"] = tracing.layer_metrics(tracer.spans, passes)
        out["spans"] = len(tracer.spans) / passes
        missing = [name for name in cls.required_spans if tracer.count(name) == 0]
        if missing:
            out["messages"].append(
                f"traced layers recorded zero calls: {', '.join(missing)}")
        spans_file = ROOT / "perfbench" / ".work" / f"spans-{cls.name}-seed{args.seed}.json"
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        spans_file.write_text(json.dumps(tracer.spans))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    args = parser.parse_args()

    if not Path(waveot.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"waveot imported from {waveot.cli.__file__}, not from {SRC}")
    out = {"setup_s": SETUP_S}
    if not args.setup_only:
        import workloads
        out.update(run_workload(args))
        out["provenance"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "source_digest": workloads.source_digest(),
        }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
