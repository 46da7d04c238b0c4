"""Print one SHA-256 digest for each output the byte-identity gate covers.

    python3 tools/output_digests.py

Run from anywhere; it takes no options, imports waveot from this tree's
``src`` and runs each command in process through ``waveot.cli.main``:

* ``waveot simulate`` for the four families under the default, ``--full``,
  ``--formulation original``, ``--formulation alternative`` and
  ``--wavelet haar --s 1 0.5`` (the CSV bytes);
* ``waveot distance`` and ``waveot embed`` at s = 0.5 and two parameters
  per family (the printed line; the ``.wlot`` bytes);
* ``waveot constants`` for db2, db10 and db20 at s = 1, 0.5 and 0.25 (the
  printed lines).

Each line reads ``<sha256>  <command>``.  Diff the output of two trees,
say a change and a ``git archive`` copy of its parent, to check that the
change leaves every output byte for byte as it was.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ("uniform_translate", "uniform_dilate", "bump_translate", "bump_dilate")
SIMULATE_FLAGS = ([], ["--full"], ["--formulation", "original"],
                  ["--formulation", "alternative"], ["--wavelet", "haar", "--s", "1", "0.5"])
PARAMS = {"uniform_translate": ("0.5", "1.7"), "uniform_dilate": ("0.7", "1.3"),
          "bump_translate": ("0.5", "1.7"), "bump_dilate": ("0.7", "1.3")}
WAVELETS = ("db2", "db10", "db20")
EXPONENTS = ("1", "0.5", "0.25")


def digest(argv, out):
    """SHA-256 of the file waveot writes at out, or of what it prints when
    out is None."""
    from waveot.cli import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv + ["--out", out] if out else argv)
    if code != 0:
        raise RuntimeError(f"waveot {' '.join(argv)} exited {code}")
    data = Path(out).read_bytes() if out else stdout.getvalue().encode()
    return hashlib.sha256(data).hexdigest()


def main():
    sys.path.insert(0, str(ROOT / "src"))
    # (argv, whether the output is a file)
    commands = [(["simulate", "--family", f, *flags], True)
                for f in FAMILIES for flags in SIMULATE_FLAGS]
    for f in FAMILIES:
        for param in PARAMS[f]:
            flags = ["--family", f, "--s", "0.5", "--param", param]
            commands += [(["distance", *flags], False), (["embed", *flags], True)]
    commands += [(["constants", "--wavelet", w, "--s", s], False)
                 for w in WAVELETS for s in EXPONENTS]
    with tempfile.TemporaryDirectory() as tmp:
        for argv, to_file in commands:
            sha = digest(argv, str(Path(tmp) / "out") if to_file else None)
            print(f"{sha}  {' '.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
