"""The package names the benchmark wraps or imports still exist.

perfbench/tracer.py times layers by replacing package attributes at their
import sites, and perfbench/workloads.py imports its entry points by name;
a name dropped from the package would otherwise only fail a traced
benchmark run.  Likewise the benchmark reads an embedding's entries,
len() and (wavelet, j0, M), recomputes an exact solve's residual m x n
from its inputs, pairs a sweep's calls with its CSV rows, and times the
construction of a family's transform at simulate.translate or
simulate.dilate.  The benchmark files are read, never changed.
"""

from pathlib import Path

import numpy as np

from waveot import exact, simulate
from waveot.densities import DiscreteMeasure
from waveot.distance import DistanceConfig
from waveot.embedding import from_text, to_text

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_import_sites_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads

    for module, attr, _span in tracer.IMPORT_SITES:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    for attr, _span in workloads.BENCH_SITES:
        assert callable(getattr(workloads, attr, None)), attr


def test_embedding_reads_of_the_benchmark(monkeypatch, tmp_path):
    # workloads.EmbedMatrix compares a read-back vector with the embedded
    # one by (wavelet, j0, M) and entries; tracer records len() as nnz
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads

    bench = workloads.EmbedMatrix
    vec = workloads.embed(bench.construct(bench.measures(0)[1]), bench.CFG)
    nonzero = {(j, offset + t): float(values[t])
               for j, (offset, values) in enumerate(vec.levels, start=vec.j0)
               for t in range(len(values)) if values[t] != 0.0}
    assert vec.entries == nonzero
    assert vec.entries is vec.entries  # built once, not on every access
    assert len(vec) == len(nonzero) > 0
    assert tracer.ATTRS["embedding.embed"]((), {}, vec) == {"nnz": len(nonzero)}
    assert (vec.wavelet, vec.j0, vec.M) == (bench.CFG.wavelet, bench.CFG.j0, bench.CFG.M)
    workloads.write_wlot(vec, tmp_path / "m.wlot")
    back = workloads.read_wlot(tmp_path / "m.wlot")
    assert (back.wavelet, back.j0, back.M) == (vec.wavelet, vec.j0, vec.M)
    assert not back.entries != vec.entries
    header, first, rest = to_text(vec).split("\n", 2)
    j, k, value = first.split()
    other = from_text(f"{header}\n{j} {k} {float(value) / 2!r}\n{rest}")
    assert other.entries != vec.entries


def test_exact_residual_cells_of_the_benchmark(monkeypatch):
    # tracer re-derives the residual m x n that exact_ws hands the simplex
    # from the measures; on atoms without mass and shared positions it
    # must agree with the cost matrix the simplex gets, or 0 without one
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    shapes = []
    simplex = exact._transport_simplex

    def recorded(cost, flows):
        shapes.append(cost.shape)
        return simplex(cost, flows)

    monkeypatch.setattr(exact, "_transport_simplex", recorded)
    rng = np.random.default_rng(5)

    def measure(pool):
        pos = np.sort(rng.choice(pool, int(rng.integers(1, len(pool) + 1)), replace=False))
        w = rng.integers(0, 4, len(pos)).astype(float)
        w[rng.integers(len(w))] += 1.0
        return DiscreteMeasure(pos, w / w.sum())

    solved = 0
    for _ in range(300):
        pool = np.arange(float(rng.integers(2, 16)))
        args = (measure(pool), measure(pool), 0.5)
        shapes.clear()
        result = exact.exact_ws(*args)
        cells = tracer.ATTRS["exact.solve"](args, {}, result)["cells"]
        assert cells == (shapes[0][0] * shapes[0][1] if shapes else 0)
        solved += bool(shapes)
    assert 0 < solved < 300


def test_sweep_calls_of_the_benchmark(monkeypatch):
    # workloads.SweepDilate wraps simulate.wavelet_distance and
    # simulate.exact_ws: an op runs from a wavelet call to the exact call
    # after it, and the n-th op is checked against the n-th CSV row.  So a
    # sweep makes one call of each per row, in row order, each exact call
    # directly after its wavelet call
    calls = []
    wavelet_distance, exact_ws = simulate.wavelet_distance, simulate.exact_ws

    def wavelet_counter(p, q, cfg):
        value = wavelet_distance(p, q, cfg)
        calls.append(("wavelet", cfg.s, value))
        return value

    def exact_counter(mu, nu, s):
        result = exact_ws(mu, nu, s)
        calls.append(("exact", s, result[0]))
        return result

    monkeypatch.setattr(simulate, "wavelet_distance", wavelet_counter)
    monkeypatch.setattr(simulate, "exact_ws", exact_counter)
    spec = simulate.SimulationSpec(
        family="bump_dilate", cfg=DistanceConfig(s=1.0, j0=-9, M=12),
        s_values=(1.0, 0.5), count=2, exact_grid_points=200)
    rows = simulate.run_simulation(spec)
    assert [(r.s, r.param) for r in rows] == [(1.0, 0.5), (1.0, 1.5), (0.5, 0.5), (0.5, 1.5)]
    assert calls == [call for r in rows for call in (("wavelet", r.s, r.wavelet_value),
                                                      ("exact", r.s, r.exact_value))]


def test_family_transforms_are_construct_sites(monkeypatch):
    # tracer times densities.construct at simulate.translate and
    # simulate.dilate, and DistanceFull requires that span: each FAMILIES
    # transform calls one of them exactly once, though its base is cached
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads

    assert "densities.construct" in workloads.DistanceFull.required_spans
    calls = []
    for name in ("translate", "dilate"):
        assert (simulate, name, "densities.construct") in tracer.IMPORT_SITES

        def counted(*args, _name=name, _inner=getattr(simulate, name)):
            calls.append(_name)
            return _inner(*args)

        monkeypatch.setattr(simulate, name, counted)
    for family, (_, transform, (lo, hi)) in simulate.FAMILIES.items():
        for t in (lo, hi):
            calls.clear()
            transform(t)
            assert len(calls) == 1, (family, t, calls)
