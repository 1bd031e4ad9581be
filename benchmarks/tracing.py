"""Span recorder and call shims for the benchmark's traced run.

The shims wrap the public functions of four pentaq layers from outside the
library: ``special_functions`` (scalar kernels), ``integrators`` (quadrature
and sum engines), ``kernels`` (B kernels on the product side) and
``identities`` (the LHS/RHS evaluators and the integrand callables they hand
to the engines).  Nothing in ``src/`` changes.

pentaq modules import each other's functions by name (``from
.special_functions import log_gamma``), so replacing the attribute on the
defining module alone would miss most calls.  :func:`traced` therefore
replaces every binding of a wrapped function in every pentaq module, and puts
the originals back when it exits.

Each span records its name, start, end, parent span and point id.  Spans are
kept in memory and written out by :meth:`Tracer.save`.  A span's self time is
its duration minus the time its child spans cover; per-name totals of calls,
self time, values and engine counters are accumulated as spans close.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

# Functions wrapped per layer.  Special functions count the elements of
# their first argument as "values"; engines add counters read off the
# QuadratureResult they return.
SPECIAL_FUNCTIONS = ("log_gamma", "qpoch_inf", "log_qpoch_inf",
                     "log_hyperbolic_gamma")
ENGINES = ("integrate_real_line", "integrate_unit_circle",
           "sum_over_integers")
KERNELS = ("b_gamma_disc", "b_idx", "b_hyp")
SIDES = ("eval_gamma_lhs", "eval_gamma_rhs", "eval_index_lhs",
         "eval_index_rhs", "eval_hyperbolic_lhs", "eval_hyperbolic_rhs")


class NameStats:
    """Totals over every closed span of one name."""

    __slots__ = ("calls", "total_ns", "self_ns", "values", "counters")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.values = 0
        self.counters: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


class Tracer:
    """In-memory span store with a stack of open spans (single thread)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.stats: list[NameStats] = []
        self._ids: dict[str, int] = {}
        self._stack: list[list[int]] = []   # [span id, child ns]
        self._next_span = 0
        self.point = -1
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_point = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats.append(NameStats())
        return self._ids[name]

    def by_name(self, name: str) -> NameStats:
        return self.stats[self.name_id(name)]

    def open(self) -> int:
        self._stack.append([self._next_span, 0])
        self._next_span += 1
        return time.perf_counter_ns()

    def close(self, name_id: int, start: int, values: int = 0) -> NameStats:
        end = time.perf_counter_ns()
        span, child_ns = self._stack.pop()
        duration = end - start
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            parent_id = parent[0]
        else:
            parent_id = -1
        self.span_id.append(span)
        self.span_name.append(name_id)
        self.span_point.append(self.point)
        self.span_parent.append(parent_id)
        self.span_start.append(start)
        self.span_end.append(end)
        st = self.stats[name_id]
        st.calls += 1
        st.total_ns += duration
        st.self_ns += duration - child_ns
        st.values += values
        return st

    @contextmanager
    def span(self, name: str):
        """A span around a block, e.g. one whole verified point."""
        nid = self.name_id(name)
        start = self.open()
        try:
            yield
        finally:
            self.close(nid, start)

    def wrap(self, name: str, fn, values=None, result=None, callable_arg=None):
        """``fn`` with a span named ``name`` around every call.

        ``values(args)`` gives the value count of one call, ``result(stats,
        out)`` adds counters from the return value, and ``callable_arg`` is
        the span name given to the callable passed as first argument.
        """
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            if callable_arg is not None:
                args = (self.wrap(callable_arg, args[0]),) + args[1:]
            start = self.open()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                st = self.close(nid, start,
                                values(args) if values is not None else 0)
                if result is not None and out is not None:
                    result(st, out)

        return wrapper

    def save(self, path) -> None:
        """Write every recorded span to an ``.npz`` file."""
        np.savez(path, names=np.array(self.names), id=self.span_id,
                 name=self.span_name, point=self.span_point,
                 parent=self.span_parent, start_ns=self.span_start,
                 end_ns=self.span_end)


def _first_arg_size(args) -> int:
    return int(np.size(args[0]))


def _engine_counters(st: NameStats, res) -> None:
    st.add("evaluations", res.evaluations)
    st.add("levels", res.refinements_used)
    st.add("unconverged", 0 if res.converged else 1)
    value = abs(complex(res.value))
    st.add("tail_share", res.tail_estimate / value if value > 0 else 0.0)


@contextmanager
def traced(tracer: Tracer):
    """Install the shims on every pentaq module for the ``with`` block."""
    from pentaq import identities, integrators, kernels, special_functions

    modules = (special_functions, integrators, kernels, identities)
    plan = [(special_functions, n, {"values": _first_arg_size})
            for n in SPECIAL_FUNCTIONS]
    plan += [(integrators, n, {"result": _engine_counters,
                               "callable_arg": ("identities.summand"
                                                if n == "sum_over_integers"
                                                else "identities.integrand")})
             for n in ENGINES]
    plan += [(kernels, n, {}) for n in KERNELS]
    plan += [(identities, n, {}) for n in SIDES]

    replaced = []
    for home, name, opts in plan:
        original = getattr(home, name)
        layer = home.__name__.rsplit(".", 1)[-1]
        wrapper = tracer.wrap(f"{layer}.{name}", original, **opts)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    replaced.append((mod, attr, original))
    try:
        yield tracer
    finally:
        for mod, attr, original in replaced:
            setattr(mod, attr, original)
