"""Spans around calls into waveot, recorded from outside the package.

Each traced name is replaced at its import site (the module attribute a
caller resolves at call time, e.g. ``waveot.simulate.exact_ws``) by a
wrapper that records a span: name, start, end, parent span and a few
attributes computed from the arguments and the result.  Spans stay in
memory and are reduced to per-layer metrics when the run ends.

Wrappers return the wrapped function's result and propagate its
exceptions unchanged; while the tracer is inactive they only forward
the call.  Nothing under ``src/`` is modified.
"""

import functools
import os
import time

import numpy as np

import waveot.cascade
import waveot.cli
import waveot.distance
import waveot.embedding
import waveot.exact
import waveot.simulate


def _exact_attrs(args, kwargs, result):
    """Residual m x n after common-mass reduction, recomputed from the
    inputs the way ``exact_ws`` reduces them (zero atoms dropped, mass at
    coincident positions matched in place)."""
    mu, nu, s = args
    a_pos = mu.weights > 0.0
    b_pos = nu.weights > 0.0
    x, a = mu.positions[a_pos], mu.weights[a_pos].copy()
    y, b = nu.positions[b_pos], nu.weights[b_pos].copy()
    _, ia, ib = np.intersect1d(x, y, assume_unique=True, return_indices=True)
    t = np.minimum(a[ia], b[ib])
    a[ia] -= t
    b[ib] -= t
    return {"s": float(s), "cells": int(np.count_nonzero(a > 0.0))
            * int(np.count_nonzero(b > 0.0))}


def _sample_attrs(args, kwargs, result):
    return {"bytes": 8 * 2 ** int(args[2])}


def _dwt_attrs(args, kwargs, result):
    coeffs = len(result.approx) + sum(len(d) for d in result.details)
    return {"input": int(np.size(args[0])), "coeffs": coeffs}


def _embed_attrs(args, kwargs, result):
    return {"nnz": len(result)}


def _file_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


# attributes recorded on spans, computed from (args, kwargs, result)
ATTRS = {
    "exact.solve": _exact_attrs,
    "densities.sample": _sample_attrs,
    "dwt.decompose": _dwt_attrs,
    "embedding.embed": _embed_attrs,
    "embedding.write": _file_attrs,
    "simulate.emit_csv": _file_attrs,
}

# (module, attribute, span name) for the import sites inside waveot; the
# benchmark's own sites are listed in workloads.py
IMPORT_SITES = [
    (waveot.cli, "run_simulation", "simulate.run"),
    (waveot.cli, "emit_csv", "simulate.emit_csv"),
    (waveot.simulate, "uniform_density", "densities.construct"),
    (waveot.simulate, "bump_density", "densities.construct"),
    (waveot.simulate, "translate", "densities.construct"),
    (waveot.simulate, "dilate", "densities.construct"),
    (waveot.simulate, "discretize", "densities.discretize"),
    (waveot.simulate, "wavelet_distance", "distance.call"),
    (waveot.simulate, "exact_ws", "exact.solve"),
    (waveot.distance, "sample_for_dwt", "densities.sample"),
    (waveot.distance, "dwt_decompose", "dwt.decompose"),
    (waveot.distance, "build_wavelet_system", "filters.build"),
    (waveot.embedding, "sample_for_dwt", "densities.sample"),
    (waveot.embedding, "dwt_decompose", "dwt.decompose"),
    (waveot.embedding, "build_wavelet_system", "filters.build"),
    (waveot.embedding, "embed", "embedding.embed"),
    (waveot.embedding, "wlot_distance", "embedding.pair"),
    (waveot.exact, "abs_power", "num.abs_power"),
    (waveot.cascade, "abs_power", "num.abs_power"),
    (waveot.cascade, "cascade_evaluate", "cascade.evaluate"),
]


class Tracer:
    """Collects spans [name, start, end, parent index, attrs]."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []

    def wrap(self, module, attr, name):
        """Replace module.attr by a span-recording wrapper."""
        fn = getattr(module, attr)
        attrs_fn = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if attrs_fn is not None:
                span[4] = attrs_fn(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)

    def install(self, sites):
        for site in sites:
            self.wrap(*site)

    def count(self, name):
        return sum(1 for sp in self.spans if sp[0] == name)


def check_passthrough():
    """Raise AssertionError unless a wrapper returns the wrapped result
    object and re-raises the wrapped exception object unchanged."""

    class _Probe:
        class Failure(Exception):
            pass

        failure = Failure("probe")

        @staticmethod
        def ok(x):
            return x

        @staticmethod
        def bad():
            raise _Probe.failure

    tracer = Tracer()
    tracer.wrap(_Probe, "ok", "probe.ok")
    tracer.wrap(_Probe, "bad", "probe.bad")
    tracer.active = True
    payload = object()
    assert _Probe.ok(payload) is payload, "wrapper altered a result"
    try:
        _Probe.bad()
    except _Probe.Failure as exc:
        assert exc is _Probe.failure, "wrapper altered an exception"
    else:
        raise AssertionError("wrapper swallowed an exception")
    assert [sp[0] for sp in tracer.spans] == ["probe.ok", "probe.bad"]


def _self_times(spans):
    """Self time per span: duration minus the durations of direct children
    (single-threaded, so children never overlap each other)."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp[3] >= 0:
            child[sp[3]] += sp[2] - sp[1]
    return [sp[2] - sp[1] - c for sp, c in zip(spans, child)]


# per-layer metric name -> (span name, quantity).  Quantity is "s" (total
# duration), "self_s", "calls", or an attribute name summed over spans.
_SUMS = {
    "exact.solve_s": ("exact.solve", "s"),
    "exact.solve_calls": ("exact.solve", "calls"),
    "exact.residual_cells": ("exact.solve", "cells"),
    "densities.sample_s": ("densities.sample", "s"),
    "densities.sample_calls": ("densities.sample", "calls"),
    "densities.sample_bytes": ("densities.sample", "bytes"),
    "distance.call_s": ("distance.call", "s"),
    "distance.calls": ("distance.call", "calls"),
    "distance.self_s": ("distance.call", "self_s"),
    "dwt.decompose_s": ("dwt.decompose", "s"),
    "dwt.decompose_calls": ("dwt.decompose", "calls"),
    "dwt.input_samples": ("dwt.decompose", "input"),
    "dwt.coeffs_out": ("dwt.decompose", "coeffs"),
    "filters.build_s": ("filters.build", "s"),
    "filters.build_calls": ("filters.build", "calls"),
    "densities.construct_s": ("densities.construct", "s"),
    "densities.construct_calls": ("densities.construct", "calls"),
    "densities.discretize_s": ("densities.discretize", "s"),
    "densities.discretize_calls": ("densities.discretize", "calls"),
    "embedding.embed_s": ("embedding.embed", "s"),
    "embedding.embed_calls": ("embedding.embed", "calls"),
    "embedding.nnz": ("embedding.embed", "nnz"),
    "embedding.pair_s": ("embedding.pair", "s"),
    "embedding.pair_calls": ("embedding.pair", "calls"),
    "embedding.matrix_s": ("embedding.matrix", "s"),
    "embedding.write_s": ("embedding.write", "s"),
    "embedding.read_s": ("embedding.read", "s"),
    "embedding.file_bytes": ("embedding.write", "bytes"),
    "cascade.evaluate_s": ("cascade.evaluate", "s"),
    "cascade.evaluate_calls": ("cascade.evaluate", "calls"),
    "cascade.constants_s": ("cascade.constants", "s"),
    "cascade.constants_self_s": ("cascade.constants", "self_s"),
    "num.abs_power_s": ("num.abs_power", "s"),
    "num.abs_power_calls": ("num.abs_power", "calls"),
    "simulate.run_s": ("simulate.run", "s"),
    "simulate.self_s": ("simulate.run", "self_s"),
    "simulate.emit_csv_s": ("simulate.emit_csv", "s"),
    "simulate.csv_bytes": ("simulate.emit_csv", "bytes"),
    "cli.main_s": ("cli.main", "s"),
    "cli.self_s": ("cli.main", "self_s"),
}

SOLVE_BY_S = {"exact.solve_s.s1": 1.0, "exact.solve_s.s0.5": 0.5,
              "exact.solve_s.s0.25": 0.25}


def layer_metrics(spans, passes):
    """Per-pass layer metrics: every entry of _SUMS and SOLVE_BY_S plus
    the largest residual; layers a workload does not call read 0."""
    self_t = _self_times(spans)
    out = {}
    for metric, (name, qty) in _SUMS.items():
        total = 0.0
        for sp, st in zip(spans, self_t):
            if sp[0] != name:
                continue
            if qty == "s":
                total += sp[2] - sp[1]
            elif qty == "self_s":
                total += st
            elif qty == "calls":
                total += 1
            elif sp[4] is not None:  # None when the call raised
                total += sp[4][qty]
        out[metric] = total / passes
    solves = [sp for sp in spans if sp[0] == "exact.solve" and sp[4] is not None]
    for metric, s in SOLVE_BY_S.items():
        out[metric] = sum(sp[2] - sp[1] for sp in solves if sp[4]["s"] == s) / passes
    out["exact.residual_max_cells"] = max((sp[4]["cells"] for sp in solves), default=0)
    return out
