"""The four benchmark workloads, their inputs and their output checks.

Every workload is a closed loop in one thread: an operation starts only
after the previous one has returned.  Inputs come from the seed alone;
seed 0 puts the parameters on evenly spaced grids over the CLI's default
ranges.  A workload runs whole passes over its operation list, at least
two, so that every op is timed more than once; each pass returns
per-operation start/end times and the outputs the checks need.  Checks
run after the timed passes, with tracing switched off.

Tolerances (against stored seed-0 references, never digests, so that an
exact algorithm that merely reorders its arithmetic still passes):

* wavelet and exact distances: relative 1e-8, absolute floor 1e-12;
* calibration constants: relative 1e-7 (golden-section search stops at
  1e-8 in r, where the objective is flat);
* exact value at s = 1 against ``w1_cdf`` on the same measures: 1e-9
  relative, absolute floor 1e-12;
* ``wlot_distance`` against ``distance_new`` and the matrix against the
  pair loop: 1e-10 absolute (the gate of the embedding claim);
* ``.wlot`` round trip: bit-exact; ``simulate`` CSV: byte-identical
  across passes and across runs of the same source tree and command line;
* tracking, as in acceptance criterion c09: normalized wavelet value
  within 10% of the exact value at s = 1 and s = 0.5.
"""

import hashlib
import math
import os
import time
from pathlib import Path

import numpy as np

from waveot.cascade import estimate_constants
from waveot.cli import main as cli_main
from waveot.densities import bump_density, discretize, translate, uniform_density
from waveot.distance import DistanceConfig, distance_new, wavelet_distance
from waveot.embedding import (embed, read_wlot, wlot_distance,
                              wlot_distance_matrix, write_wlot)
from waveot.exact import exact_ws, w1_cdf
from waveot.filters import build_wavelet_system
from waveot.simulate import EXACT_DOMAIN, FAMILIES
import waveot.simulate

REL_TOL = 1e-8
ABS_TOL = 1e-12
CONSTANTS_REL_TOL = 1e-7
W1_REL_TOL = 1e-9
WLOT_ABS_TOL = 1e-10
TRACKING_TOL = 0.10

# simulate CSVs of earlier runs, one per source digest and seed
CSV_CACHE = Path(__file__).resolve().parent / ".work" / "csv"

# the CLI's default lowest level per family (translations need the wider
# dyadic domain)
J0 = {"uniform_translate": -11, "bump_translate": -11,
      "uniform_dilate": -9, "bump_dilate": -9}

# the benchmark's own import sites, wrapped in traced runs
BENCH_SITES = [
    ("cli_main", "cli.main"),
    ("wavelet_distance", "distance.call"),
    ("uniform_density", "densities.construct"),
    ("bump_density", "densities.construct"),
    ("translate", "densities.construct"),
    ("embed", "embedding.embed"),
    ("write_wlot", "embedding.write"),
    ("read_wlot", "embedding.read"),
    ("wlot_distance", "embedding.pair"),
    ("wlot_distance_matrix", "embedding.matrix"),
    ("build_wavelet_system", "filters.build"),
    ("estimate_constants", "cascade.constants"),
]


def source_digest():
    """Digest of the waveot sources that were imported."""
    h = hashlib.sha256()
    for path in sorted(Path(waveot.__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def close(value, ref, rel=REL_TOL, abs_tol=ABS_TOL):
    return (math.isfinite(value)
            and abs(value - ref) <= max(abs_tol, rel * abs(ref)))


def raised(exc):
    return f"{type(exc).__name__}: {exc}"


class Checks:
    """Failed operations and messages collected by a workload's checks."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops = set()
        self.messages = []

    def fail(self, op_key, message):
        self.failed_ops.add(op_key)
        if len(self.messages) < 20:
            self.messages.append(message)


class Workload:
    """Base: name and the layers a trace must see."""

    name = ""
    required_spans = ()

    def __init__(self, seed, workdir, reference, tracer):
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.tracer = tracer


class SweepDilate(Workload):
    """``waveot simulate --family bump_dilate --s 1 0.5 0.25 --count 3``
    through ``cli.main`` (M = 18, 1000-point exact grid); one op is one
    sweep cell: wavelet distance, discretize and ``exact_ws``."""

    name = "sweep_dilate"
    required_spans = ("cli.main", "simulate.run", "simulate.emit_csv",
                      "densities.construct", "densities.discretize",
                      "distance.call", "densities.sample", "dwt.decompose",
                      "filters.build", "exact.solve", "num.abs_power")
    S_VALUES = (1.0, 0.5, 0.25)
    COUNT = 3

    def __init__(self, seed, workdir, reference, tracer):
        super().__init__(seed, workdir, reference, tracer)
        self.csv_path = workdir / "sweep.csv"
        self.argv = ["simulate", "--family", "bump_dilate",
                     "--s", "1", "0.5", "0.25", "--count", str(self.COUNT)]
        if seed:
            shift = float(np.random.default_rng(seed).uniform(-0.01, 0.01))
            self.argv += ["--range", repr(0.5 + shift), repr(1.5 + shift)]
        # one cached CSV per source tree and command line
        key = hashlib.sha256(" ".join(self.argv).encode()).hexdigest()[:16]
        self.csv_cache = CSV_CACHE / f"{source_digest()}-{key}.csv"
        self.argv += ["--out", str(self.csv_path)]
        self._cells = []
        self._install_markers()

    def _install_markers(self):
        # op boundaries: a cell starts with the wavelet distance and ends
        # when exact_ws returns; both names are resolved in simulate
        inner_wavelet = waveot.simulate.wavelet_distance
        inner_exact = waveot.simulate.exact_ws
        cells = self._cells

        def wavelet_marker(p, q, cfg):
            t0 = time.perf_counter()
            value = inner_wavelet(p, q, cfg)
            cells.append({"t0": t0, "wavelet": value})
            return value

        def exact_marker(mu, nu, s):
            result = inner_exact(mu, nu, s)
            cell = cells[-1]
            cell.update(t1=time.perf_counter(), mu=mu, nu=nu, s=s,
                        exact=result[0])
            return result

        waveot.simulate.wavelet_distance = wavelet_marker
        waveot.simulate.exact_ws = exact_marker

    def run_pass(self):
        self._cells.clear()
        self.csv_path.unlink(missing_ok=True)
        t_start = time.perf_counter()
        try:
            code = cli_main(self.argv)
        except Exception as exc:  # an op raised: the whole sweep failed
            code = raised(exc)
        wall = time.perf_counter() - t_start
        csv = self.csv_path.read_bytes() if self.csv_path.exists() else b""
        cells = [c for c in self._cells if "t1" in c]
        ops = [(c["t0"], c["t1"]) for c in cells]
        return wall, ops, {"code": code, "cells": cells, "csv": csv}

    def check(self, passes, checks):
        ref = self.reference["cells"]
        expected = len(self.S_VALUES) * self.COUNT
        for p, (_, _, out) in enumerate(passes):
            cells = out["cells"]
            rows = [line.split(",") for line in out["csv"].decode().splitlines()[1:]]
            checks.attempted += expected
            if out["code"] != 0 or len(cells) != expected or len(rows) != expected:
                for i in range(expected):
                    checks.fail((p, i), f"cli exit {out['code']}, {len(cells)} cells, "
                                f"{len(rows)} CSV rows; expected {expected}")
                continue
            for i, (cell, row) in enumerate(zip(cells, rows)):
                s, param = float(row[3]), float(row[6])
                wval, eval_, norm = float(row[7]), float(row[8]), float(row[10])
                if not (cell["s"] == s and close(wval, cell["wavelet"], 1e-11)
                        and close(eval_, cell["exact"], 1e-11)):
                    checks.fail((p, i), f"CSV row {i} disagrees with the computed cell")
                if not all(math.isfinite(v) and v >= 0.0
                           for v in (cell["wavelet"], cell["exact"])):
                    checks.fail((p, i), f"cell {i}: negative or non-finite value")
                if s == 1.0:
                    w1 = w1_cdf(cell["mu"], cell["nu"])
                    if not close(cell["exact"], w1, W1_REL_TOL):
                        checks.fail((p, i), f"cell {i}: exact {cell['exact']!r} "
                                    f"!= w1_cdf {w1!r}")
                if s in (1.0, 0.5) and eval_ > 0.0 \
                        and abs(norm - eval_) / eval_ >= TRACKING_TOL:
                    checks.fail((p, i), f"cell {i}: s={s} param={param} tracks "
                                f"exact only to {abs(norm - eval_) / eval_:.1%}")
                if self.seed == 0:
                    r = ref[i]
                    if not (r[0] == s and close(param, r[1])
                            and close(cell["wavelet"], r[2])
                            and close(cell["exact"], r[3])):
                        checks.fail((p, i), f"cell {i}: ({cell['wavelet']!r}, "
                                    f"{cell['exact']!r}) != reference {r[2:]}")
            self._check_csv_identity(p, passes, checks)
        if self.seed != 0:
            self._probe(ref, checks)

    def _check_csv_identity(self, p, passes, checks):
        csv = passes[p][2]["csv"]
        previous = passes[0][2]["csv"]
        if self.csv_cache.exists():
            previous = self.csv_cache.read_bytes()
        else:
            self.csv_cache.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.csv_cache.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_bytes(csv)
            os.replace(tmp, self.csv_cache)
        if csv != previous:
            for i in range(len(passes[p][1])):
                checks.fail((p, i), "simulate CSV differs from an earlier run "
                            "of the same sources and command line")

    def _probe(self, ref, checks):
        """Recompute seed-0 cells (all of s = 1, the second parameter at
        s < 1) and compare them with the reference."""
        base_fn, transform, _ = FAMILIES["bump_dilate"]
        base = base_fn()
        mu0 = discretize(base, 1000, domain=EXACT_DOMAIN)
        picks = [i for i, r in enumerate(ref) if r[0] == 1.0]
        picks += [i for i, r in enumerate(ref) if r[0] < 1.0 and i % self.COUNT == 1]
        for i in picks:
            s, param = ref[i][0], ref[i][1]
            checks.attempted += 1
            cfg = DistanceConfig(s=s, j0=J0["bump_dilate"], M=18)
            d = transform(param)
            wval = wavelet_distance(base, d, cfg)
            eval_, _ = exact_ws(mu0, discretize(d, 1000, domain=EXACT_DOMAIN), s)
            if not (close(wval, ref[i][2]) and close(eval_, ref[i][3])):
                checks.fail(("probe", i), f"seed-0 cell {i}: ({wval!r}, {eval_!r}) "
                            f"!= reference {ref[i][2:]}")

    def reference_record(self, passes):
        return {"cells": [[c["s"], float(row.split(",")[6]), c["wavelet"], c["exact"]]
                          for c, row in zip(passes[0][2]["cells"],
                                            passes[0][2]["csv"].decode().splitlines()[1:])]}


class DistanceFull(Workload):
    """``wavelet_distance`` at ``--full`` size (M = 22, s = 0.5) over the
    four families, 5 parameters each; one op builds the transformed
    density and computes one distance, like ``waveot distance --full``."""

    name = "distance_full"
    required_spans = ("densities.construct", "distance.call",
                      "densities.sample", "dwt.decompose", "filters.build")
    COUNT = 5
    S = 0.5
    M = 22

    def __init__(self, seed, workdir, reference, tracer):
        super().__init__(seed, workdir, reference, tracer)
        self.items = self.grid(seed)

    @classmethod
    def grid(cls, seed):
        rng = np.random.default_rng(seed)
        items = []
        for family, (_, _, (lo, hi)) in FAMILIES.items():
            params = np.linspace(lo, hi, cls.COUNT)
            if seed:
                step = (hi - lo) / (cls.COUNT - 1)
                params = np.clip(params + rng.uniform(-0.25, 0.25, cls.COUNT) * step,
                                 lo, hi)
            items += [(family, float(t)) for t in params]
        return items

    def _config(self, family):
        return DistanceConfig(s=self.S, j0=J0[family], M=self.M)

    def run_pass(self):
        ops, values = [], []
        t_start = time.perf_counter()
        base = {}
        for family, param in self.items:
            if family not in base:
                base[family] = FAMILIES[family][0]()
            t0 = time.perf_counter()
            try:
                d = FAMILIES[family][1](param)
                values.append(wavelet_distance(base[family], d, self._config(family)))
            except Exception as exc:
                values.append(raised(exc))
            ops.append((t0, time.perf_counter()))
        return time.perf_counter() - t_start, ops, {"values": values}

    def check(self, passes, checks):
        ref = self.reference["values"]
        for p, (_, ops, out) in enumerate(passes):
            checks.attempted += len(ops)
            for i, v in enumerate(out["values"]):
                if isinstance(v, str):
                    checks.fail((p, i), f"op {i} raised {v}")
                elif not (math.isfinite(v) and v >= 0.0):
                    checks.fail((p, i), f"op {i}: value {v!r}")
                elif self.seed == 0 and not close(v, ref[i]):
                    checks.fail((p, i), f"op {i}: {v!r} != reference {ref[i]!r}")
        if self.seed != 0:
            seed0 = self.grid(0)
            for i in range(2, len(seed0), self.COUNT):
                checks.attempted += 1
                family, param = seed0[i]
                v = wavelet_distance(FAMILIES[family][0](), FAMILIES[family][1](param),
                                     self._config(family))
                if not close(v, ref[i]):
                    checks.fail(("probe", i), f"seed-0 op {i}: {v!r} != {ref[i]!r}")

    def reference_record(self, passes):
        return {"values": passes[0][2]["values"]}


class EmbedMatrix(Workload):
    """30 measures (uniform translates and bumps, M = 22): embed each,
    write and read it back as ``.wlot``, every pair through
    ``wlot_distance``, then one ``wlot_distance_matrix`` call."""

    name = "embed_matrix"
    required_spans = ("densities.construct", "embedding.embed",
                      "densities.sample", "dwt.decompose", "filters.build",
                      "embedding.write", "embedding.read", "embedding.pair",
                      "embedding.matrix")
    N = 30
    SAMPLED_PAIRS = 5
    CFG = DistanceConfig(s=0.5, j0=-11, M=22)

    def __init__(self, seed, workdir, reference, tracer):
        super().__init__(seed, workdir, reference, tracer)
        self.specs = self.measures(seed)
        rng = np.random.default_rng([seed, 1])
        pairs = [(i, j) for i in range(self.N) for j in range(i + 1, self.N)]
        self.sampled = [pairs[k] for k in
                        rng.choice(len(pairs), self.SAMPLED_PAIRS, replace=False)]

    @classmethod
    def measures(cls, seed):
        """Alternating uniform translates (a in [0, 2]) and bumps (center
        in [0.6, 2.4]); bump half-widths are stratified over [0.2, 0.5] so
        that the total support, and with it the work, varies little
        between seeds."""
        rng = np.random.default_rng(seed)
        half = cls.N // 2
        widths = 0.2 + 0.3 * (rng.permutation(half) + rng.uniform(size=half)) / half
        specs = []
        for k in range(half):
            specs.append(("uniform", float(rng.uniform(0.0, 2.0))))
            specs.append(("bump", float(rng.uniform(0.6, 2.4)), float(widths[k])))
        return specs

    @staticmethod
    def construct(spec):
        if spec[0] == "uniform":
            return translate(uniform_density(0.0, 1.0), spec[1])
        return bump_density(spec[1], spec[2])

    def run_pass(self):
        ops, vecs, loaded, dens = [], [], [], []
        counts, errors = {}, {}
        tracer = self.tracer
        t_start = time.perf_counter()
        before = tracer.count("dwt.decompose") if tracer else 0
        for i, spec in enumerate(self.specs):
            path = self.workdir / f"m{i}.wlot"
            t0 = time.perf_counter()
            try:
                d = self.construct(spec)
                vec = embed(d, self.CFG)
                write_wlot(vec, path)
                back = read_wlot(path)
            except Exception as exc:
                d = vec = back = None
                errors["embed", i] = raised(exc)  # keys: op keys of check()
            ops.append((t0, time.perf_counter()))
            dens.append(d)
            vecs.append(vec)
            loaded.append(back)
        if tracer:
            counts["embed_transforms"] = tracer.count("dwt.decompose") - before
        pair_values = {}
        for i in range(self.N):
            for j in range(i + 1, self.N):
                t0 = time.perf_counter()
                try:
                    pair_values[(i, j)] = wlot_distance(loaded[i], loaded[j], self.CFG.s)
                except Exception as exc:
                    pair_values[(i, j)] = None
                    errors[(i, j), ] = raised(exc)
                ops.append((t0, time.perf_counter()))
        before = tracer.count("dwt.decompose") if tracer else 0
        t0 = time.perf_counter()
        try:
            matrix = wlot_distance_matrix(dens, self.CFG)
        except Exception as exc:
            matrix = None
            errors["matrix", ] = raised(exc)
        ops.append((t0, time.perf_counter()))
        if tracer:
            counts["matrix_transforms"] = tracer.count("dwt.decompose") - before
        wall = time.perf_counter() - t_start
        return wall, ops, {"dens": dens, "vecs": vecs, "loaded": loaded,
                           "pairs": pair_values, "matrix": matrix, "counts": counts,
                           "errors": errors}

    def check(self, passes, checks):
        ref = self.reference["pairs"]
        n = self.N
        pair_keys = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for p, (_, ops, out) in enumerate(passes):
            checks.attempted += len(ops)
            for key, message in out["errors"].items():
                checks.fail((p, *key), f"{' '.join(map(str, key))} raised {message}")
            for i, (vec, back) in enumerate(zip(out["vecs"], out["loaded"])):
                if back is not None and ((back.wavelet, back.j0, back.M)
                                         != (vec.wavelet, vec.j0, vec.M)
                                         or back.entries != vec.entries):
                    checks.fail((p, "embed", i), f"measure {i}: .wlot round trip "
                                "is not bit-exact")
            matrix = out["matrix"]
            if matrix is not None and not (np.array_equal(matrix, matrix.T)
                                           and not np.any(np.diag(matrix))):
                checks.fail((p, "matrix"), "matrix is not symmetric with zero diagonal")
            for k, key in enumerate(pair_keys):
                v = out["pairs"][key]
                if v is None:
                    continue
                if not (math.isfinite(v) and v >= 0.0):
                    checks.fail((p, key), f"pair {key}: value {v!r}")
                if matrix is not None and not abs(matrix[key] - v) <= WLOT_ABS_TOL:
                    checks.fail((p, "matrix"), f"matrix{key} {matrix[key]!r} != pair {v!r}")
                if self.seed == 0 and not close(v, ref[k]):
                    checks.fail((p, key), f"pair {key}: {v!r} != reference {ref[k]!r}")
            for key in self.sampled:
                if out["pairs"][key] is None:
                    continue
                direct = distance_new(out["dens"][key[0]], out["dens"][key[1]], self.CFG)
                if not abs(direct - out["pairs"][key]) <= WLOT_ABS_TOL:
                    checks.fail((p, key), f"pair {key}: wlot {out['pairs'][key]!r} "
                                f"!= distance_new {direct!r}")
            for phase, got in out["counts"].items():
                if got != n:
                    checks.fail((p, phase), f"{phase}: {got} transforms for {n} "
                                "measures, expected one per measure")
        if self.seed != 0:
            specs = self.measures(0)[:4]
            vecs = [embed(self.construct(sp), self.CFG) for sp in specs]
            for i in range(len(vecs)):
                for j in range(i + 1, len(vecs)):
                    checks.attempted += 1
                    k = pair_keys.index((i, j))
                    v = wlot_distance(vecs[i], vecs[j], self.CFG.s)
                    if not close(v, ref[k]):
                        checks.fail(("probe", i, j), f"seed-0 pair ({i}, {j}): "
                                    f"{v!r} != {ref[k]!r}")

    def reference_record(self, passes):
        out = passes[0][2]
        return {"pairs": [out["pairs"][(i, j)] for i in range(self.N)
                          for j in range(i + 1, self.N)]}


class Constants(Workload):
    """``estimate_constants`` for db2, db10 and db20 at s = 1, 0.5 and
    0.25 (the two s < 1 values jittered by the seed); one op builds the
    wavelet system and estimates its three constants."""

    name = "constants"
    required_spans = ("filters.build", "cascade.constants", "cascade.evaluate",
                      "num.abs_power")
    WAVELETS = ("db2", "db10", "db20")

    def __init__(self, seed, workdir, reference, tracer):
        super().__init__(seed, workdir, reference, tracer)
        self.items = self.grid(seed)

    @classmethod
    def grid(cls, seed):
        s_values = [1.0, 0.5, 0.25]
        if seed:
            jitter = np.random.default_rng(seed).uniform(-0.02, 0.02, 2)
            s_values[1:] = [float(v + j) for v, j in zip(s_values[1:], jitter)]
        return [(w, s) for w in cls.WAVELETS for s in s_values]

    def run_pass(self):
        ops, values = [], []
        t_start = time.perf_counter()
        for wavelet, s in self.items:
            t0 = time.perf_counter()
            try:
                c = estimate_constants(build_wavelet_system(wavelet), s)
                values.append((c.a11, c.a12, c.a13))
            except Exception as exc:
                values.append(raised(exc))
            ops.append((t0, time.perf_counter()))
        return time.perf_counter() - t_start, ops, {"values": values}

    def check(self, passes, checks):
        ref = {(w, s): v for w, s, v in self.reference["constants"]}
        for p, (_, ops, out) in enumerate(passes):
            checks.attempted += len(ops)
            a13 = {}
            for i, ((wavelet, s), v) in enumerate(zip(self.items, out["values"])):
                if isinstance(v, str):
                    checks.fail((p, i), f"{wavelet} s={s} raised {v}")
                    continue
                if not all(math.isfinite(x) and x > 0.0 for x in v):
                    checks.fail((p, i), f"{wavelet} s={s}: constants {v}")
                if (wavelet, s) in ref and not all(
                        close(x, r, CONSTANTS_REL_TOL) for x, r in zip(v, ref[(wavelet, s)])):
                    checks.fail((p, i), f"{wavelet} s={s}: {v} != reference "
                                f"{ref[(wavelet, s)]}")
                # a13 = 1 / ||phi||_1 does not depend on s
                if not close(v[2], a13.setdefault(wavelet, v[2]), 1e-12):
                    checks.fail((p, i), f"{wavelet} s={s}: a13 depends on s")
        if self.seed != 0:
            for s in (0.5, 0.25):
                checks.attempted += 1
                c = estimate_constants(build_wavelet_system("db2"), s)
                v = (c.a11, c.a12, c.a13)
                if not all(close(x, r, CONSTANTS_REL_TOL) for x, r in zip(v, ref[("db2", s)])):
                    checks.fail(("probe", s), f"seed-0 db2 s={s}: {v} != {ref[('db2', s)]}")

    def reference_record(self, passes):
        return {"constants": [[w, s, list(v)] for (w, s), v
                              in zip(self.items, passes[0][2]["values"])]}


WORKLOADS = {w.name: w for w in (SweepDilate, DistanceFull, EmbedMatrix, Constants)}
