"""The package names the benchmark wraps or imports still exist.

perfbench/tracer.py times layers by replacing package attributes at their
import sites, and perfbench/workloads.py imports its entry points by name;
a name dropped from the package would otherwise only fail a traced
benchmark run.  The benchmark files are read, never changed.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_import_sites_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads

    for module, attr, _span in tracer.IMPORT_SITES:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    for attr, _span in workloads.BENCH_SITES:
        assert callable(getattr(workloads, attr, None)), attr
