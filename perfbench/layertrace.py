"""Layer tracing from outside the program.

``Tracer.install()`` replaces each layer module's public functions with
wrappers, at every place the name is bound: ``from .counting import
m_value`` binds ``m_value`` separately in ``frobenius``, ``modules``,
``poset`` and ``cli``, so every ``genfrob`` module namespace is patched.
The constructors of ``CountTable`` and ``LatticeBasis`` are spanned too.

A span is a row ``[name, start, end, parent, hot]``: ``parent`` is the
index of the enclosing span (-1 at the top) and ``hot`` the time spent
directly inside it in the hot class-arithmetic calls (``label``,
``class_sub``, ``class_add``). Those are called millions of times, so
they are counted and timed in aggregate instead of spanned.

Spans stay in memory; ``dump()`` returns them with the counters at the
end of the pass. The plain vector helpers of ``lattice`` (``dot``,
``vadd``, ``vsub``, ``vneg``, ``xgcd``) are not wrapped: their time
stays in the self time of the layer that calls them.
"""
from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("lattice", "counting", "frobenius", "ideal", "neighbourhood", "modules", "poset", "cli")
HOT_METHODS = ("label", "class_sub", "class_add")
UNWRAPPED = {"lattice": {"dot", "vadd", "vsub", "vneg", "xgcd"}}
# Calls that may rebuild a CountTable with a doubled degree bound.
DOUBLING = {"counting.m_value", "frobenius.frobenius", "frobenius.brute_force_frobenius"}


def layer_self_times(spans, hot_times=None) -> dict:
    """Self time per layer: each span's duration minus its child spans'
    durations and the hot calls made directly inside it; hot calls count
    for their own layer."""
    child = [0.0] * len(spans)
    for name, start, end, parent, hot in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent, hot) in enumerate(spans):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - child[i] - hot
    for layer, t in (hot_times or {}).items():
        out[layer] = out.get(layer, 0.0) + t
    return out


def _basis_key(basis):
    return (tuple(basis.weight.a), tuple(basis.vectors))


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        # Hot calls: all belong to the lattice layer. Lists, so the
        # wrappers update them without attribute lookups.
        self.hot_count, self.hot_total, self.hot_busy = [0], [0.0], [False]
        self.counters = {
            "counting.table_builds": 0, "counting.table_cells": 0, "counting.restarts": 0,
            "frobenius.f1_scans": 0, "ideal.calls": 0, "neighbourhood.ball_points": 0,
            "modules.candidates": 0, "modules.generators": 0, "poset.elements": 0,
            "poset.covers": 0, "poset.cover_tests": 0, "lattice.basis_builds": 0,
        }
        self.f1_bases = set()
        self.ideal_bases = set()
        self.last_build = {}
        self.calls = []

    # -- wrappers ---------------------------------------------------------
    def _spanned(self, name, fn, observe=None):
        spans, stack, pc = self.spans, self.stack, time.perf_counter
        sig = inspect.signature(fn) if observe else None

        def wrapper(*args, **kwargs):
            idx = len(spans)
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(row)
            stack.append(idx)
            if observe:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            row[1] = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = pc()
                stack.pop()
            if observe:
                observe(bound.arguments, result, idx)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hot(self, fn):
        stack, spans, pc = self.stack, self.spans, time.perf_counter
        count, total, busy = self.hot_count, self.hot_total, self.hot_busy

        def wrapper(*args, **kwargs):
            count[0] += 1
            if busy[0]:
                return fn(*args, **kwargs)
            busy[0] = True
            t0 = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = pc() - t0
                busy[0] = False
                total[0] += dt
                if stack:
                    spans[stack[-1]][4] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    # -- observers --------------------------------------------------------
    def _on_table(self, a, result, idx):
        c = self.counters
        basis, max_degree, cap = a["basis"], a["max_degree"], a["cap"]
        size = 1
        for m in basis.torsion_moduli:
            size *= m
        c["counting.table_builds"] += 1
        c["counting.table_cells"] += (max_degree + 1) * size
        # A restart is a rebuild of the same table with a larger degree
        # bound inside one doubling call.
        owner = self.spans[idx][3]
        while owner >= 0 and self.spans[owner][0] not in DOUBLING:
            owner = self.spans[owner][3]
        if owner < 0:
            return
        key = (id(basis), cap)
        prev = self.last_build.get(owner)
        if prev is not None and prev[0] == key and prev[1] < max_degree:
            c["counting.restarts"] += 1
        self.last_build[owner] = (key, max_degree)

    def _on_frobenius(self, a, result, idx):
        self.counters["frobenius.f1_scans"] += 1
        self.f1_bases.add(_basis_key(a["basis"]))
        self._record(idx, a["basis"], a["k"])

    def _on_brute(self, a, result, idx):
        if a["k"] == 1:
            self.counters["frobenius.f1_scans"] += 1
            self.f1_bases.add(_basis_key(a["basis"]))

    def _on_ideal(self, a, result, idx):
        self.counters["ideal.calls"] += 1
        self.ideal_bases.add(_basis_key(a["basis"]))
        self._record(idx, a["basis"], None)

    def _on_ball(self, a, result, idx):
        self.counters["neighbourhood.ball_points"] += len(result)

    def _on_candidates(self, a, result, idx):
        self.counters["modules.candidates"] += len(result)

    def _on_generators(self, a, result, idx):
        self.counters["modules.generators"] += len(result.generators)
        self._record(idx, a["basis"], a["k"])

    def _on_structure(self, a, result, idx):
        self._poset(len(result.elements), len(result.covers))
        self._record(idx, a["basis"], None)

    def _on_module_poset(self, a, result, idx):
        self._poset(len(result.labels), len(result.covers))

    def _poset(self, n, covers):
        c = self.counters
        c["poset.elements"] += n
        c["poset.covers"] += covers
        c["poset.cover_tests"] += n ** 3

    def _on_basis(self, a, result, idx):
        self.counters["lattice.basis_builds"] += 1

    def _record(self, idx, basis, k):
        """Keep the call's arguments, to set its time beside ROADMAP.md's."""
        self.calls.append({"name": self.spans[idx][0], "a": list(basis.weight.a),
                           "index": basis.index, "k": k, "span": idx})

    # -- installation -----------------------------------------------------
    def install(self, package="genfrob"):
        """Wrap every layer's public functions at every import site."""
        import importlib

        mods = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        observers = {
            "counting.CountTable": self._on_table,
            "frobenius.frobenius": self._on_frobenius,
            "frobenius.brute_force_frobenius": self._on_brute,
            "ideal.lattice_ideal": self._on_ideal,
            "neighbourhood.ball": self._on_ball,
            "modules.candidate_lcms": self._on_candidates,
            "modules.minimal_generators": self._on_generators,
            "poset.structure_poset": self._on_structure,
            "poset.module_poset": self._on_module_poset,
            "lattice.LatticeBasis": self._on_basis,
        }
        replace = {}
        for layer, mod in mods.items():
            skip = UNWRAPPED.get(layer, set())
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or attr in skip or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__ or inspect.isgeneratorfunction(obj):
                    continue
                name = f"{layer}.{attr}"
                replace[id(obj)] = self._spanned(name, obj, observers.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and getattr(replace[id(obj)], "__wrapped__", None) is obj:
                    setattr(mod, attr, replace[id(obj)])
        table = mods["counting"].CountTable
        table.__init__ = self._spanned("counting.CountTable", table.__init__,
                                       observers["counting.CountTable"])
        basis = mods["lattice"].LatticeBasis
        basis.__post_init__ = self._spanned("lattice.LatticeBasis", basis.__post_init__,
                                            observers["lattice.LatticeBasis"])
        for meth in HOT_METHODS:
            setattr(basis, meth, self._hot(getattr(basis, meth)))

    def dump(self) -> dict:
        c = dict(self.counters, **{"lattice.class_ops": self.hot_count[0]})
        return {
            "spans": self.spans,
            "hot_time": {"lattice": self.hot_total[0]},
            "counters": c,
            "f1_distinct_bases": len(self.f1_bases),
            "ideal_distinct_bases": len(self.ideal_bases),
            "calls": self.calls,
        }
