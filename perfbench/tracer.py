"""Outside-in span tracer for one `sfrbsde` command.

The program itself is not instrumented.  `install` replaces the public
functions of each module with timing wrappers, rebinding every name a caller
actually looks up (`averaging_lab` imports `solve_psi`, `extract_triple`,
`make_ensemble` and `simulate_eta` by name; `cli` imports `write_csv`).
Spans are kept in memory and written once, at the end of the run.

A span is `[name, label, thread, start, end, parent, attrs]`; `parent` is
the index of the enclosing span on the same thread, or -1.  Worker threads
of a `ThreadPoolExecutor` start with an empty stack, so their spans are
roots tagged with their own thread name.  The label is the epsilon the call
works on, where there is one.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        # next() on itertools.count is atomic under the GIL: a cheap
        # thread-safe counter for the million-call generator hook
        self._gen_calls = itertools.count()
        self._fbar_gen_calls = itertools.count()
        self._fbar_calls = itertools.count()
        self._banded_calls = itertools.count()

    # -- per-thread state -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _epsilon(self):
        return getattr(self._local, "epsilon", None)

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name, fn, *, name_of=None, after=None):
        """Time every call of `fn` as a span.

        `name_of(args, kwargs)` picks the span name per call; `after(result,
        attrs)` records sizes taken from the result.  Calls whose signature
        has an `epsilon` argument set the thread's current epsilon, which
        labels them and the calls that follow on that thread.
        """
        sig = inspect.signature(fn)
        takes_epsilon = "epsilon" in sig.parameters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if takes_epsilon:
                bound = sig.bind_partial(*args, **kwargs).arguments
                if "epsilon" in bound:
                    self._local.epsilon = float(bound["epsilon"])
            stack = self._stack()
            eps = self._epsilon()
            rec = [name_of(args, kwargs) if name_of else name,
                   "" if eps is None else format(eps, "g"),
                   threading.current_thread().name, _clock(), None,
                   stack[-1] if stack else -1, {}]
            with self._lock:
                index = len(self.spans)
                self.spans.append(rec)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, rec[6])
                return result
            finally:
                rec[4] = _clock()
                stack.pop()

        return wrapper

    def counted_generator_call(self, call):
        tracer = self

        def __call__(gen, t, x, y, z1, z2):
            next(tracer._gen_calls)
            if getattr(tracer._local, "in_fbar", 0):
                next(tracer._fbar_gen_calls)
            return call(gen, t, x, y, z1, z2)

        return __call__

    def counted_fbar(self, fbar):
        tracer = self

        def counted(x, y, z1, z2):
            next(tracer._fbar_calls)
            local = tracer._local
            local.in_fbar = getattr(local, "in_fbar", 0) + 1
            try:
                return fbar(x, y, z1, z2)
            finally:
                local.in_fbar -= 1

        return counted

    def counted_banded(self, solve):
        tracer = self

        def counted(*args, **kwargs):
            next(tracer._banded_calls)
            return solve(*args, **kwargs)

        return counted

    def counters(self) -> dict:
        # each counter has been advanced once per event; reading it costs one
        return {
            "generator_calls": next(self._gen_calls),
            "fbar_generator_calls": next(self._fbar_gen_calls),
            "fbar_calls": next(self._fbar_calls),
            "banded_calls": next(self._banded_calls),
        }

    def dump(self, path, t_call: float, t_return: float):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"t_call": t_call, "t_return": t_return,
                       "counters": self.counters(), "spans": self.spans}, fh)


def install(tracer: Tracer) -> None:
    """Rebind the layer functions of every `sfrbsde` module to traced wrappers."""
    from sfrbsde import averaging_lab as al
    from sfrbsde import bsde_solver as bs
    from sfrbsde import cli
    from sfrbsde import frac_kernel as fk
    from sfrbsde import path_engine as pe
    from sfrbsde import runio

    wrap = tracer.wrap

    # frac_kernel: the kernel tables and the quadratures behind them
    build = fk.CoefficientSet.__dict__["build"].__func__
    fk.CoefficientSet.build = classmethod(wrap("frac_kernel.coeff_build", build))
    fk.kernel_transform = wrap("frac_kernel.kernel_transform", fk.kernel_transform)

    # path_engine: samplers, ensembles and eta
    def fbm_after(ens, attrs):
        attrs["method"] = ens.fbm_method
        attrs["bytes"] = ens.BH.nbytes

    pe.fbm_cholesky = wrap("path_engine.fbm", pe.fbm_cholesky, after=fbm_after)
    pe.fbm_circulant = wrap("path_engine.fbm", pe.fbm_circulant, after=fbm_after)
    pe.bm_paths = wrap("path_engine.bm", pe.bm_paths,
                       after=lambda ens, attrs: attrs.update(bytes=ens.B.nbytes))
    pe.make_ensemble = al.make_ensemble = wrap("path_engine.make_ensemble",
                                               pe.make_ensemble)
    pe.simulate_eta = al.simulate_eta = wrap(
        "path_engine.eta", pe.simulate_eta,
        after=lambda eta, attrs: attrs.update(bytes=eta.nbytes))

    # bsde_solver: the backward PDE and extraction
    def psi_name(args, kwargs):
        gen = args[0] if args else kwargs["gen"]
        kind = "avg" if gen.name.startswith("avg[") else "orig"
        return f"bsde_solver.solve_psi.{kind}"

    bs.solve_psi = al.solve_psi = wrap(
        "bsde_solver.solve_psi", bs.solve_psi, name_of=psi_name,
        after=lambda field, attrs: attrs.update(n_steps=int(field.t_nodes.size - 1)))
    bs.extract_triple = al.extract_triple = wrap(
        "bsde_solver.extract", bs.extract_triple,
        after=lambda trip, attrs: attrs.update(cells=int(trip.eta.size)))
    bs.solve_banded = tracer.counted_banded(bs.solve_banded)
    bs.Generator.__call__ = tracer.counted_generator_call(bs.Generator.__call__)

    # averaging_lab: fbar, the assumption constants, window statistics, checks
    build_fbar = al.build_fbar

    def traced_build_fbar(*args, **kwargs):
        avg = build_fbar(*args, **kwargs)
        return al.AveragedGenerator(fn=tracer.counted_fbar(avg.fn),
                                    provenance=avg.provenance, name=avg.name)

    al.build_fbar = wrap("averaging_lab.build_fbar", traced_build_fbar)
    al.estimate_phi = wrap("averaging_lab.phi", al.estimate_phi)
    al.estimate_lipschitz = wrap("averaging_lab.lipschitz", al.estimate_lipschitz)
    al.c1_lower_bound = wrap("averaging_lab.c1", al.c1_lower_bound)
    al.compute_constants = wrap("averaging_lab.constants", al.compute_constants)
    al._window_stats = wrap("averaging_lab.window_stats", al._window_stats)
    for check in ("check_lemma1", "check_theorem_rate", "check_chebyshev"):
        setattr(al, check, wrap("averaging_lab.checks", getattr(al, check)))

    # runio: every CSV the sweep writes, with rows and bytes
    def write_after(path, attrs):
        data = path.read_bytes()
        attrs.update(bytes=len(data), rows=data.count(b"\n") - 1)

    runio.write_csv = cli.write_csv = wrap("runio.write_csv", runio.write_csv,
                                           after=write_after)


# -- analysis: the per-layer metrics of one traced run ------------------------

# busy-time metrics and the span names they sum; a span nested in another
# span of the same metric is not counted twice, spans on parallel threads are
_TIMED = {
    "frac_kernel.coeff_build.s": ("frac_kernel.coeff_build",),
    "frac_kernel.kernel_transform.s": ("frac_kernel.kernel_transform",),
    "path_engine.fbm.s": ("path_engine.fbm",),
    "path_engine.bm.s": ("path_engine.bm",),
    "path_engine.eta.s": ("path_engine.eta",),
    "bsde_solver.solve_psi.orig.s": ("bsde_solver.solve_psi.orig",),
    "bsde_solver.solve_psi.avg.s": ("bsde_solver.solve_psi.avg",),
    "bsde_solver.extract.s": ("bsde_solver.extract",),
    "averaging_lab.phi.s": ("averaging_lab.phi",),
    "averaging_lab.lipschitz.s": ("averaging_lab.lipschitz",),
    "averaging_lab.window_stats.s": ("averaging_lab.window_stats",),
    "averaging_lab.constants.s": ("averaging_lab.constants", "averaging_lab.c1"),
    "averaging_lab.checks.s": ("averaging_lab.checks",),
    "runio.write.s": ("runio.write_csv",),
}
_CALLS = {
    "frac_kernel.coeff_build.calls": "frac_kernel.coeff_build",
    "frac_kernel.kernel_transform.calls": "frac_kernel.kernel_transform",
    "path_engine.eta.calls": "path_engine.eta",
}

# name -> (unit, better), in report order
PER_LAYER = {
    "frac_kernel.coeff_build.s": ("s", "lower"),
    "frac_kernel.coeff_build.calls": ("count", "lower"),
    "frac_kernel.kernel_transform.s": ("s", "lower"),
    "frac_kernel.kernel_transform.calls": ("count", "lower"),
    "path_engine.fbm.s": ("s", "lower"),
    "path_engine.bm.s": ("s", "lower"),
    "path_engine.eta.s": ("s", "lower"),
    "path_engine.eta.calls": ("count", "lower"),
    "path_engine.bytes": ("B", "lower"),
    "bsde_solver.solve_psi.orig.s": ("s", "lower"),
    "bsde_solver.solve_psi.avg.s": ("s", "lower"),
    "bsde_solver.gen_evals": ("count", "lower"),
    "bsde_solver.banded.calls": ("count", "lower"),
    "bsde_solver.picard_per_step": ("iter/step", "lower"),
    "bsde_solver.extract.s": ("s", "lower"),
    "bsde_solver.extract.cells": ("count", "lower"),
    "averaging_lab.fbar.gen_evals_per_call": ("evals/call", "lower"),
    "averaging_lab.phi.s": ("s", "lower"),
    "averaging_lab.lipschitz.s": ("s", "lower"),
    "averaging_lab.window_stats.s": ("s", "lower"),
    "averaging_lab.constants.s": ("s", "lower"),
    "averaging_lab.checks.s": ("s", "lower"),
    "runio.write.s": ("s", "lower"),
    "runio.bytes_written": ("B", "lower"),
    "runio.rows_written": ("count", "lower"),
    "proc.cpu_s": ("s", "lower"),
    "proc.cpu_util": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
}


def _outermost(spans, names):
    """Spans named in `names` with no ancestor named in `names`."""
    out = []
    for rec in spans:
        if rec[0] not in names:
            continue
        parent = rec[5]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][5]
        if parent < 0:
            out.append(rec)
    return out


def self_times(spans) -> list:
    """Each span's duration minus the time its child spans cover."""
    own = [rec[4] - rec[3] for rec in spans]
    for rec in spans:
        if rec[5] >= 0:
            own[rec[5]] -= rec[4] - rec[3]
    return own


def coverage(spans, t_call: float, t_return: float) -> float:
    """Share of the command's wall time covered by some root span."""
    covered, reach = 0.0, t_call
    for start, end in sorted((rec[3], rec[4]) for rec in spans if rec[5] < 0):
        start, end = max(start, reach), min(end, t_return)
        if end > start:
            covered += end - start
            reach = end
    return covered / (t_return - t_call)


def layer_metrics(doc: dict, plain_run_s: float, plain_cpu_s: float) -> dict:
    """Every PER_LAYER value from one traced run and its untraced twin."""
    spans, counters = doc["spans"], doc["counters"]
    traced_run_s = doc["t_return"] - doc["t_call"]

    def attr_sum(names, key):
        return sum(rec[6].get(key, 0) for rec in spans if rec[0] in names)

    solves = ("bsde_solver.solve_psi.orig", "bsde_solver.solve_psi.avg")
    steps = attr_sum(solves, "n_steps")
    values = {name: sum(rec[4] - rec[3] for rec in _outermost(spans, set(names)))
              for name, names in _TIMED.items()}
    values.update({name: sum(rec[0] == span for rec in spans)
                   for name, span in _CALLS.items()})
    values.update({
        "path_engine.bytes": attr_sum({"path_engine.fbm", "path_engine.bm",
                                       "path_engine.eta"}, "bytes"),
        "bsde_solver.gen_evals": counters["generator_calls"],
        "bsde_solver.banded.calls": counters["banded_calls"],
        "bsde_solver.picard_per_step": counters["banded_calls"] / steps if steps else 0.0,
        "bsde_solver.extract.cells": attr_sum({"bsde_solver.extract"}, "cells"),
        "averaging_lab.fbar.gen_evals_per_call":
            counters["fbar_generator_calls"] / counters["fbar_calls"]
            if counters["fbar_calls"] else 0.0,
        "runio.bytes_written": attr_sum({"runio.write_csv"}, "bytes"),
        "runio.rows_written": attr_sum({"runio.write_csv"}, "rows"),
        "proc.cpu_s": plain_cpu_s,
        "proc.cpu_util": plain_cpu_s / plain_run_s,
        "trace.overhead_frac": traced_run_s / plain_run_s - 1.0,
        "trace.coverage": coverage(spans, doc["t_call"], doc["t_return"]),
    })
    return {name: values[name] for name in PER_LAYER}


def fbm_methods(doc: dict) -> list:
    return sorted({rec[6].get("method") for rec in doc["spans"] if rec[0] == "path_engine.fbm"})
