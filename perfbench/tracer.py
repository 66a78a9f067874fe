"""Spans around the program's public calls, recorded from outside the program.

A span holds a name, a start, an end and the span that was open when it
began (its parent).  Spans stay in memory, in flat arrays, until the run
ends.  A span's self time is its duration minus the time its children cover;
the workload process is single-threaded, so children never overlap.

``patched`` swaps module attributes of extenso for timed wrappers and puts
them back on exit.  The program looks those names up at call time
(``_kernels.logsinc_integral``, ``coefficient_bounds`` inside
``extensivity``, ...), so the wrappers see every call.  Density evaluators
are wrapped by ``wrap_density`` through ``dataclasses.replace``, which also
splits ``eval_s2`` calls by argument shape: scalar calls come only from the
golden-section refinement, array calls from the grid scan and the probes.
"""
from __future__ import annotations

import contextlib
import dataclasses
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")
        self._stack = [-1]
        self.bounds_calls: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, points=None):
        """Timed wrapper; name may be a function of the call's arguments."""
        fixed = None if callable(name) else self._id(name)

        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name.append(fixed if fixed is not None else self._id(name(*args)))
            self.parent.append(self._stack[-1])
            self.points.append(points(*args) if points else 0)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()

        return wrapper

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, points, total ms and self ms."""
        n = len(self.start)
        dur = np.array(self.end, dtype=np.float64) - np.array(self.start, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        names = np.array(self.name, dtype=np.int64)
        pts = np.array(self.points, dtype=np.int64)
        covered = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        out = {}
        for nid, label in enumerate(self.names):
            sel = names == nid
            out[label] = {
                "calls": int(sel.sum()),
                "points": int(pts[sel].sum()),
                "ms": float(dur[sel].sum() * 1e3),
                "self_ms": float((dur[sel] - covered[sel]).sum() * 1e3),
            }
        return out

    def descendants_points(self, root_name: str, name: str) -> int:
        """Summed points of `name` spans under any `root_name` span."""
        roots = {i for i, nid in enumerate(self.name) if self.names[nid] == root_name}
        total = 0
        for i, nid in enumerate(self.name):
            if self.names[nid] != name:
                continue
            p = self.parent[i]
            while p >= 0 and p not in roots:
                p = self.parent[p]
            if p >= 0:
                total += self.points[i]
        return total


def _size(x, *rest) -> int:
    return int(np.size(x))


def _second_size(_, p, *rest) -> int:
    return int(p.entries.size)


def wrap_density(tracer: Tracer, d):
    """The same density with eval_s and eval_s2 timed and counted."""

    def s2_name(r, *rest):
        return "densities.eval_s2.scalar" if np.ndim(r) == 0 else "densities.eval_s2.vector"

    return dataclasses.replace(
        d,
        eval_s=tracer.wrap("densities.eval_s", d.eval_s, _size),
        eval_s2=tracer.wrap(s2_name, d.eval_s2, _size),
    )


@contextlib.contextmanager
def patched(tracer: Tracer, kernels_only: bool = False):
    """Replace extenso's public callables with timed wrappers for the block."""
    from extenso import _kernels, bounds, extensivity, simplex

    targets = [
        (_kernels, "logsinc_integral", "kernels.logsinc", _size),
        (_kernels, "osc_panel_moments", "kernels.osc_panel", _size),
    ]
    if not kernels_only:
        targets += [
            (simplex, "JointMatrix", "simplex.joint", None),
            (extensivity, "marginal", "simplex.marginal", None),
            (extensivity, "conditional", "simplex.conditional", None),
            (extensivity, "entropy", "densities.entropy", _second_size),
            (bounds, "scan_extrema", "numerics.scan", None),
            (extensivity, "sandwich_check", "extensivity.sandwich_check", None),
            (extensivity, "extensivity_residual", "extensivity.residual", None),
            (extensivity, "axiom_suite", "extensivity.axiom_suite", None),
        ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in targets]
    try:
        for mod, attr, name, points in targets:
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), points))
        if not kernels_only:
            original_cb = extensivity.coefficient_bounds

            def recorded_bounds(d, r, cfg=None):
                out = original_cb(d, r, cfg)
                tracer.bounds_calls.append((d.label, r, cfg, out))
                return out

            saved.append((extensivity, "coefficient_bounds", original_cb))
            extensivity.coefficient_bounds = tracer.wrap("bounds.coefficient_bounds", recorded_bounds)
        yield tracer
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)
