"""Regenerate perfbench/reference_seed0.json from one seed-0 pass of each
workload.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

Only do this when an intended change of results is being accepted; the
benchmark compares every run against these values.
"""

import json
import tempfile
from pathlib import Path

import workloads


def main():
    out = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        workdir = Path(tmp)
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(0, workdir, {}, None)
            out[name] = workload.reference_record([workload.run_pass()])
            print(f"{name}: recorded")
    path = Path(__file__).parent / "reference_seed0.json"
    path.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
