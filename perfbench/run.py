"""waveot benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src``.
Each run starts fresh worker processes (``perfbench/worker.py``) with
OMP/OpenBLAS/MKL pinned to one thread, so that numbers measure waveot
and not the scheduler.

--trace 0: three set-up-only processes, one worker, three more set-up-only
processes; prints every end-to-end metric of BENCHMARK.json, then the
pass time (best-of and median) and the median and tail op latency, which
are too noisy between runs to carry a bound.  --trace 1: one
untraced and one traced worker; prints every per-layer metric, per pass,
plus the tracing overhead (traced over untraced best pass).

The last line of standard output is one JSON object {"correct",
"attempted", "failed", "metrics"}; the lines before it name every metric
with its unit, the error rate, the tail percentile and its sample count,
and the provenance of the run.  Exit code 0 when every output checked
correct, 1 when a check failed or an op raised, 2 when the run could not
be made.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep_dilate", "distance_full", "embed_matrix", "constants")
SETUP_RUNS = 3  # set-up-only processes before the worker, and again after
DEADLINE_S = 170.0


def tail(values):
    """Highest percentile with at least ten samples beyond it, by nearest
    rank: (value, percentile), or None when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    return ordered[n - 11], 100.0 * (n - 10) / n


def best_pass(pass_s, op_s):
    """One pass with every op at its fastest over the run's passes, plus
    the fastest time a pass spent outside its ops.  Other tenants of the
    host slow some stretches of a run by up to half; the fastest repeat of
    an op is less affected than its median."""
    outside = min(wall - sum(ops) for wall, ops in zip(pass_s, op_s))
    return sum(min(times) for times in zip(*op_s)) + max(outside, 0.0)


def provenance(seed):
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "waveot").glob("*.py"))
    commit = "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             timeout=10, capture_output=True, text=True).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        out = []
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:
        commit = out[1]
    return {"commit": commit,
            "nproc": len(os.sched_getaffinity(0)), "seed": seed,
            "src_waveot_lines": lines}


class Children:
    """Starts worker processes one at a time, each waited for before the
    next starts, all within one deadline."""

    def __init__(self, workdir):
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
                        PYTHONPATH=os.pathsep.join(
                            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.workdir = workdir

    def run(self, *args):
        cmd = [sys.executable, str(HERE / "worker.py"), *args]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RuntimeError("time budget exhausted before starting a worker")
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def workload(self, args, trace):
        return self.run("--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(trace),
                        "--workdir", str(self.workdir))


def end_to_end(children, args):
    """Bounded metrics (those in BENCHMARK.json) and unbounded ones.

    Pass times and op latencies move by up to half between runs minutes
    apart on a shared 2-CPU VM, more than any bound the benchmark may set,
    so they are reported beside the result, not in it.  Set-up is sampled
    before and after the worker, so that its median spans the run."""
    setups = [children.run("--setup-only")["setup_s"] for _ in range(SETUP_RUNS)]
    res = children.workload(args, 0)
    setups += [res["setup_s"]] + [children.run("--setup-only")["setup_s"]
                                  for _ in range(SETUP_RUNS)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    op_ms = [1e3 * t for ops in res["op_s"] for t in ops]
    notes = {"best_pass_s": best_pass(res["pass_s"], res["op_s"]),
             "wall_s": statistics.median(res["pass_s"]),
             "op_p50_ms": statistics.median(op_ms),
             "ops": len(op_ms), "passes": res["passes"], "setup_samples": len(setups)}
    op_tail = tail(op_ms)
    if op_tail:
        notes["op_tail_ms"], notes["op_tail_percentile"] = op_tail
    return res, metrics, notes


def per_layer(children, args):
    plain = children.workload(args, 0)
    res = children.workload(args, 1)
    traced = best_pass(res["pass_s"], res["op_s"])
    untraced = best_pass(plain["pass_s"], plain["op_s"])
    values = {**res["layers"], "trace.overhead_ratio": traced / untraced,
              "trace.spans": res["spans"]}
    units = {m["name"]: m["unit"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    if units.keys() != values.keys():
        raise RuntimeError(f"traced metrics {sorted(values.keys() ^ units.keys())} "
                           "are not both measured and listed in BENCHMARK.json")
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    notes = {"passes": res["passes"], "untraced_best_pass_s": untraced,
             "traced_best_pass_s": traced}
    plain["messages"] = [f"untraced: {m}" for m in plain["messages"]] + res["messages"]
    res["attempted"] += plain["attempted"]
    res["failed"] += plain["failed"]
    res["messages"] = plain["messages"]
    return res, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "waveot" / "__init__.py").is_file():
        print(f"perfbench: no waveot sources under {SRC}", file=sys.stderr)
        return 2

    workdir = HERE / ".work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        children = Children(workdir)
        res, metrics, notes = (per_layer if args.trace else end_to_end)(children, args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0 and not res["messages"]
    for message in res["messages"]:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    if not args.trace:
        print(f"  {'best_pass_s':28s} {notes['best_pass_s']:.6g} s (unbounded; "
              f"each op at its fastest of {notes['passes']} passes)")
        print(f"  {'wall_s':28s} {notes['wall_s']:.6g} s (unbounded; median "
              f"of {notes['passes']} passes)")
        print(f"  {'op_p50_ms':28s} {notes['op_p50_ms']:.6g} ms (unbounded)")
        if "op_tail_ms" in notes:
            print(f"  {'op_tail_ms':28s} {notes['op_tail_ms']:.6g} ms (unbounded; "
                  f"p{notes['op_tail_percentile']:.4g} of {notes['ops']} ops, "
                  "10 beyond it)")
    print(f"  {'error_rate':28s} {failed / attempted:.6g} ({failed} of {attempted} ops failed)")
    print(json.dumps({"notes": notes, "provenance": {**provenance(args.seed),
                                                     **res["provenance"]}}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
