"""Record one point of the benchmark trajectory as BENCH_<n>.json.

    python3 tools/bench_snapshot.py

Run from anywhere; it takes no options and runs for several minutes.  It
makes, one after the other:

* ``perfbench/run.py --workload W --seed 0 --seconds 20 --trace T`` for
  each of the four workloads at T = 0 and T = 1, keeping each run's
  exit code and last-line JSON;
* ``waveot simulate --family F --full`` for the four families, in this
  process through ``waveot.cli.main``, best of two wall-clock times.

It writes ``BENCH_<n>.json`` at the repository root, n one above the
highest such file present (1 when there is none).  Beside the results it
records, per workload, the untraced worker's best pass inside the traced
run next to the untraced run's best pass: both time the same code minutes
apart, so their ratio shows how far the host drifted during the snapshot.
When an earlier file exists, its figures are copied under "previous", so
each file reads against the one before it.
"""

import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep_dilate", "distance_full", "embed_matrix", "constants")
FAMILIES = ("uniform_translate", "uniform_dilate", "bump_translate", "bump_dilate")
SECONDS = 20
REPEATS = 2  # in-process simulate timings per family; the best is kept


def perfbench(workload, trace):
    """Exit code, notes+provenance line and result line of one run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode == 2 or len(lines) < 2:  # the run could not be made
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def simulate_full_s(family):
    """Best wall-clock seconds of `waveot simulate --family F --full`."""
    from waveot.cli import main

    best = float("inf")
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["simulate", "--family", family, "--full", "--out", str(Path(tmp) / "out.csv")]
        for _ in range(REPEATS):
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            best = min(best, time.perf_counter() - start)
            if code != 0:
                raise RuntimeError(f"waveot {' '.join(argv)} exited {code}")
    return best


def previous_snapshot():
    """(n, figures) of the highest BENCH_<n>.json present, or (0, None)."""
    found = {int(m.group(1)): p for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))}
    if not found:
        return 0, None
    n = max(found)
    figures = json.loads(found[n].read_text())
    figures.pop("previous", None)  # one step back only, so files do not nest
    return n, {"file": found[n].name, **figures}


def main():
    sys.path.insert(0, str(ROOT / "src"))
    n, previous = previous_snapshot()
    runs, drift, provenance = {}, {}, None
    for workload in WORKLOADS:
        runs[workload] = {}
        for trace in (0, 1):
            print(f"perfbench {workload} --trace {trace}", file=sys.stderr)
            code, notes, result = perfbench(workload, trace)
            runs[workload][f"trace{trace}"] = {"exit": code, **result}
            provenance = provenance or notes["provenance"]
            if trace:
                drift[workload]["untraced_best_pass_s_in_traced_run"] = \
                    notes["notes"]["untraced_best_pass_s"]
            else:
                drift[workload] = {"untraced_run_best_pass_s": notes["notes"]["best_pass_s"]}
    simulate = {}
    for family in FAMILIES:
        print(f"simulate --family {family} --full", file=sys.stderr)
        simulate[family] = simulate_full_s(family)
    snapshot = {
        "provenance": provenance,
        "perfbench": {"seed": 0, "seconds": SECONDS, "runs": runs, "host_drift": drift},
        "simulate_full_best_s": simulate,
    }
    if previous is not None:
        snapshot["previous"] = previous
    path = ROOT / f"BENCH_{n + 1}.json"
    path.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
