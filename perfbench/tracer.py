"""Span tracer for traced benchmark runs.

Wraps the calls into each `ptdilate` layer from outside the package and
records, per span name, every call's total time and self time (total
minus the time spent in traced calls it made).  Spans stay in memory
until the run ends.

The wrapper replaces a function under every name any `ptdilate` module
binds it to, because `from .metric import metric` copies the binding:
the hot path reaches `_erfi_series_mp` and `_whittaker_series_mp` through
the names `solutions` imported from `specfun`.  A target that a later
version of the package no longer defines is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# (span name, module under ptdilate, attribute or Class.method).  Spans that
# feed no reported metric still keep their time out of their caller's self time.
SPANS = (
    ("specfun.erfi_mp", "specfun", "_erfi_series_mp"),
    ("specfun.whittaker_series", "specfun", "_whittaker_series_mp"),
    ("specfun.whittaker_asym", "specfun", "_whittaker_asym_mp"),
    ("solutions.x_pair", "solutions", "SolutionBasis.x_pair"),
    ("solutions.y_pair", "solutions", "SolutionBasis.y_pair"),
    ("solutions.y_pair_mp", "solutions", "SolutionBasis.y_pair_mp"),
    ("metric.metric", "metric", "metric"),
    ("metric.eigenvalues", "metric", "eigenvalues"),
    ("metric.scalars_double", "metric", "_scalars_double"),
    ("metric.scalars_mp", "metric", "_scalars_mp"),
    ("metric.breakdown_time", "metric", "breakdown_time"),
    ("metric.approx_bounds_interval", "metric", "approx_bounds_interval"),
    ("metric.refined_d1_bound", "metric", "refined_d1_bound"),
    ("dilation.assemble", "dilation", "assemble_dilated"),
    ("dilation.tau_from_metric", "dilation", "tau_from_metric"),
    ("evolve.simulate_dilated", "evolve", "simulate_dilated"),
    ("evolve.integrate_linear", "evolve", "integrate_linear"),
    ("evolve.guard", "evolve", "_breakdown_cached"),
    ("evolve.propagate_analytic", "evolve", "propagate_analytic"),
    ("evolve.dilation_efficiency", "evolve", "dilation_efficiency"),
)


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []
        self._top = [0.0]                    # time inside spans opened with an empty stack
        self._spans: dict[str, tuple[list[float], list[float]]] = {}
        self._nfev = [0, 0]                  # solve_ivp right-hand-side evaluations, solves
        self.absent: list[str] = []

    def wrap(self, name, fn):
        totals, selfs = self._spans.setdefault(name, ([], []))
        stack, top, clock = self._stack, self._top, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                else:
                    top[0] += dt
                totals.append(dt)
                selfs.append(dt - frame[0])

        return traced

    def count_nfev(self, fn):
        nfev = self._nfev

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            sol = fn(*args, **kwargs)
            nfev[0] += int(sol.nfev)
            nfev[1] += 1
            return sol

        return counted

    def report(self, run_s: float) -> dict:
        """Aggregates per span plus the counters read after the run."""
        spans = {}
        for name, (totals, selfs) in self._spans.items():
            spans[name] = {
                "calls": len(totals),
                "total_s": sum(totals),
                "self_s": sum(selfs),
                "median_total_s": statistics.median(totals) if totals else 0.0,
                "median_self_s": statistics.median(selfs) if selfs else 0.0,
            }
        return {
            "spans": spans,
            "cli_self_s": run_s - self._top[0],
            "rhs_calls": self._nfev[0],
            "ivp_solves": self._nfev[1],
            "cache": _cache_counts(),
            "absent": self.absent,
        }


def _ptdilate_modules():
    return [m for n, m in list(sys.modules.items()) if n == "ptdilate" or n.startswith("ptdilate.")]


def _rebind(old, new) -> None:
    for module in _ptdilate_modules():
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)


def _cache_counts() -> dict | None:
    """Hits and lookups summed over the lru_caches of ptdilate.solutions."""
    try:
        solutions = importlib.import_module("ptdilate.solutions")
    except ImportError:
        return None
    caches = [v for v in vars(solutions).values() if callable(getattr(v, "cache_info", None))]
    if not caches:
        return None
    infos = [c.cache_info() for c in caches]
    hits = sum(i.hits for i in infos)
    return {"hits": hits, "lookups": hits + sum(i.misses for i in infos)}


def install() -> Tracer:
    """Wrap every span target; call after `ptdilate` is imported."""
    tracer = Tracer()
    for name, module_name, attr in SPANS:
        try:
            module = importlib.import_module(f"ptdilate.{module_name}")
        except ImportError:
            tracer.absent.append(name)
            continue
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        fn = getattr(owner, fn_name, None) if owner is not None else None
        if not callable(fn):
            tracer.absent.append(name)
            continue
        wrapped = tracer.wrap(name, fn)
        if owner_name:
            setattr(owner, fn_name, wrapped)
        else:
            _rebind(fn, wrapped)
    try:
        evolve = importlib.import_module("ptdilate.evolve")
    except ImportError:
        evolve = None
    solve_ivp = getattr(evolve, "solve_ivp", None)
    if solve_ivp is None:
        tracer.absent.append("evolve.rhs_calls")
    else:
        _rebind(solve_ivp, tracer.count_nfev(solve_ivp))
    return tracer
