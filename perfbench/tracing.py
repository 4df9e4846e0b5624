"""Spans and counts around the package's public functions, for the traced run.

The package itself records nothing.  :func:`instrument` replaces each
public function of each ``qosmarket`` module, and the valuation and QoS
methods, with a wrapper that opens a span, wherever the name is bound: in
the class, in the defining module, in every module that imported it and in
the package namespace.  That is what makes calls between modules visible,
e.g. ``scan_then_refine`` reaching ``golden_section_max`` through
``_optim``'s own globals.  The originals come back when the context ends.

Spans are kept in flat arrays (name, start, end, parent) until the pass
ends; :func:`layer_metrics` turns them into per-layer numbers.  A span's
self time is its duration minus the part of it that child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# modules whose public functions are wrapped: those listed in ``__all__``
# (``_optim`` has none, so its names without a leading underscore) that the
# module defines itself
_MODULES = ("_optim", "valuation", "qos", "monopoly", "revenue", "duopoly", "competition",
            "selection", "scenario", "cli")
_METHODS = {
    ("valuation", "ValuationDistribution"): ("cdf", "quantile", "k_constant"),
    ("qos", "QoSModel"): ("evaluate", "derivative"),
}
# methods whose first argument may be an array: its size is counted as points
_POINT_METHODS = {"valuation.cdf", "valuation.quantile", "qos.evaluate"}
_PACKAGE = "qosmarket"


def layer_name(module: str, function: str) -> str:
    """``<module>.<function>``; ``_optim`` loses its underscore so that
    metric names start with a letter."""
    return f"{module.lstrip('_')}.{function}"


class Tracer:
    """In-memory span store plus named counters for one traced pass."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals.

    Spans must be listed in start order, as :class:`Tracer` records them.
    """
    n = len(start)
    covered = [0.0] * n
    reach = [-math.inf] * n
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        if end[i] > lo:
            covered[p] += end[i] - lo
            reach[p] = end[i]
    return np.asarray(end) - np.asarray(start) - np.asarray(covered)


def _counting(fn, tracer: Tracer, key: str):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)

    return counted


def _wrap(fn, tracer: Tracer, name: str):
    nid = tracer.intern(name)
    points = name in _POINT_METHODS
    evals_key = f"{name}.fn_evals" if name.startswith("optim.") else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if points:
            tracer.counts[f"{name}.points"] += np.size(args[1])
        if evals_key is not None:
            args = (_counting(args[0], tracer, evals_key),) + args[1:]
        idx = tracer.enter(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            _record_outcome(tracer, name, None, exc)
            raise
        finally:
            tracer.exit(idx)
        _record_outcome(tracer, name, result, None)
        return result

    return traced


def _record_outcome(tracer: Tracer, name: str, result, exc) -> None:
    c = tracer.counts
    if name == "monopoly.simulate" and exc is None:
        c["monopoly.simulate.steps"] += result.iterations
        c["monopoly.simulate.converged"] += bool(result.converged)
    elif name == "competition.nash_solve":
        path = getattr(exc, "path", None)
        if exc is None:
            c["competition.nash_solve.rounds"] += result.iterations
            c["competition.nash_solve.converged"] += 1
        elif path is not None:
            c["competition.nash_solve.rounds"] += len(path) - 1


def _targets():
    """Yield ``(owner, attribute, original, layer name)`` for every binding."""
    mods = {k: v for k, v in sys.modules.items() if k == _PACKAGE or k.startswith(_PACKAGE + ".")}
    originals = {}
    for short in _MODULES:
        mod = mods[f"{_PACKAGE}.{short}"]
        names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
        for n in names:
            fn = getattr(mod, n)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                originals[id(fn)] = (fn, layer_name(short, n))
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in originals and originals[id(value)][0] is value:
                yield mod, attr, value, originals[id(value)][1]
    for (short, cls_name), names in _METHODS.items():
        cls = getattr(mods[f"{_PACKAGE}.{short}"], cls_name)
        for n in names:
            yield cls, n, vars(cls)[n], layer_name(short, n)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every public call of the package through ``tracer`` while active."""
    replaced = []
    wrappers = {}
    try:
        for owner, attr, original, name in list(_targets()):
            if id(original) not in wrappers:
                wrappers[id(original)] = _wrap(original, tracer, name)
            setattr(owner, attr, wrappers[id(original)])
            replaced.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """``<layer>.calls`` and ``<layer>.self_s`` for every layer seen, plus
    the tracer's counters and the derived ratios."""
    own = self_times(tracer.start, tracer.end, tracer.parent)
    ids = np.frombuffer(tracer.name_id, dtype=np.int32) if len(tracer.name_id) else np.zeros(0, np.int32)
    calls = np.bincount(ids, minlength=len(tracer.names))
    self_s = np.bincount(ids, weights=own, minlength=len(tracer.names))
    out: dict[str, float] = {}
    for i, name in enumerate(tracer.names):
        out[f"{name}.calls"] = int(calls[i])
        out[f"{name}.self_s"] = float(self_s[i])
    out.update(tracer.counts)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    parents = np.frombuffer(tracer.parent, dtype=np.int32) if len(tracer.parent) else np.zeros(0, np.int32)
    if "valuation.cdf" in tracer._ids and "valuation.quantile" in tracer._ids:
        cdf_id = tracer._ids["valuation.cdf"]
        q_id = tracer._ids["valuation.quantile"]
        is_cdf = ids == cdf_id
        inside_quantile = np.zeros(ids.size, dtype=bool)
        has_parent = is_cdf & (parents >= 0)
        inside_quantile[has_parent] = ids[parents[has_parent]] == q_id
        out["valuation.cdf_calls_per_quantile"] = ratio(
            int(inside_quantile.sum()), out.get("valuation.quantile.calls", 0)
        )
    out["monopoly.simulate.converged_frac"] = ratio(
        out.get("monopoly.simulate.converged", 0), out.get("monopoly.simulate.calls", 0)
    )
    out["competition.nash_solve.converged_frac"] = ratio(
        out.get("competition.nash_solve.converged", 0), out.get("competition.nash_solve.calls", 0)
    )
    return out
