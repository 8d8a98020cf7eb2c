"""Outside-in tracer: wraps traintrack's public functions without editing them.

The package's modules import each other's functions by name
(``from .special import ellint_K``), so every module, and the package
namespace, holds its own reference.  The tracer therefore replaces each
traced function wherever a traintrack namespace, or a dict at module level
such as ``verify._SUITE_FUNCTIONS``, refers to it.  Scalar wrappers reach
their array twins through module globals, so wrapping the twin also counts
the scalar calls.  scipy's ``solve_ivp`` is wrapped as ``pfaffian.solve_ivp``
in the package and in ``scipy.integrate``, and its ``nfev`` and ``status``
are read from the result it returns.

Every call becomes a span (request, span, parent, name, start, end); spans
stay in memory until the run writes them out.  Self time is a span's
duration minus the time of the traced calls made inside it.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from functools import wraps

import numpy as np

MODULES = ("special", "quadrature", "appell", "factorization", "modular", "pfaffian", "verify")


# Array entry points: the arguments whose broadcast size is the number of
# elements a call processes.
POINTS = {
    "appell.f2_series_on_arrays": ("x", "y"),
    "factorization.invert_T_arrays": ("x", "y"),
    "special.ellint_K": ("m",),
}


class Stats:
    __slots__ = ("calls", "points", "self_s", "failed", "nfev")

    def __init__(self):
        self.calls = self.points = self.failed = self.nfev = 0
        self.self_s = 0.0


class Tracer:
    """Spans and per-function totals for the traced calls of one run."""

    def __init__(self):
        self.stats = defaultdict(Stats)
        self.spans = []
        self._stack = []  # [span id, time covered by children] per open span
        self._request = None

    def _enter(self):
        span = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([span, 0.0])
        return span, parent

    def _exit(self, name, span, parent, t0, t1, stats):
        _, children = self._stack.pop()
        duration = t1 - t0
        stats.self_s += duration - children
        if self._stack:
            self._stack[-1][1] += duration
        self.spans[span] = (self._request, span, parent, name, t0, t1)

    def request(self, request_id, fn, *args):
        """Run one workload item as the root span ``item``."""
        self._request = request_id
        return self._timed("item", fn, args, {}, self.stats["item"], None)

    def _timed(self, name, fn, args, kwargs, stats, post):
        span, parent = self._enter()
        stats.calls += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            stats.failed += 1
            self._exit(name, span, parent, t0, time.perf_counter(), stats)
            raise
        t1 = time.perf_counter()
        self._exit(name, span, parent, t0, t1, stats)
        if post is not None:
            post(stats, args, kwargs, out)
        return out

    def wrap(self, name, fn, post=None):
        stats = self.stats[name]

        @wraps(fn)
        def traced(*args, **kwargs):
            return self._timed(name, fn, args, kwargs, stats, post)

        return traced

    def write(self, path):
        """Spans as JSON lines, then one line of per-function totals."""
        with open(path, "w") as fh:
            for request, span, parent, name, t0, t1 in self.spans:
                fh.write(
                    json.dumps(
                        {"request": request, "span": span, "parent": parent,
                         "name": name, "start": t0, "end": t1}
                    )
                    + "\n"
                )
            fh.write(json.dumps({"totals": {k: self.totals(k) for k in sorted(self.stats)}}) + "\n")

    def totals(self, name) -> dict:
        s = self.stats[name]
        return {"calls": s.calls, "points": s.points, "self_s": s.self_s,
                "failed": s.failed, "nfev": s.nfev}


def _count_points(fn, names):
    signature = inspect.signature(fn)

    def post(stats, args, kwargs, out):
        bound = signature.bind(*args, **kwargs).arguments
        stats.points += np.broadcast(*(np.asarray(bound[n]) for n in names)).size

    return post


def _solve_ivp_post(stats, args, kwargs, out):
    stats.nfev += int(out.nfev)
    if out.status != 0:
        stats.failed += 1


def targets(package):
    """{traced name: function}: the public functions each module defines."""
    found = {}
    for short in MODULES:
        module = sys.modules[f"{package.__name__}.{short}"]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == module.__name__:
                found[f"{short}.{attr}"] = obj
    ivp = sys.modules.get("scipy.integrate")
    if ivp is not None:
        found["pfaffian.solve_ivp"] = ivp.solve_ivp
    return found


class Patch:
    """Wrappers for every traintrack namespace that refers to a traced function.

    ``install`` swaps the wrappers in and ``remove`` puts the originals back,
    so traced and untraced calls can alternate in one process.
    """

    def __init__(self, tracer: Tracer, package):
        self.tracer = tracer
        wrappers = {}
        for name, fn in targets(package).items():
            if name == "pfaffian.solve_ivp":
                post = _solve_ivp_post
            elif name in POINTS:
                post = _count_points(fn, POINTS[name])
            else:
                post = None
            wrappers[id(fn)] = (fn, tracer.wrap(name, fn, post))
        self._slots = []
        prefix = package.__name__
        for mod_name, module in list(sys.modules.items()):
            # scipy.integrate too, for a solve_ivp imported inside a function
            ours = mod_name == prefix or mod_name.startswith(prefix + ".")
            if module is None or not (ours or mod_name == "scipy.integrate"):
                continue
            tables = [vars(module)] + [v for v in vars(module).values() if isinstance(v, dict)]
            for table in tables:
                for key, value in table.items():
                    pair = wrappers.get(id(value))
                    if pair is not None and pair[0] is value:
                        self._slots.append((table, key) + pair)

    def install(self):
        for table, key, _, wrapper in self._slots:
            table[key] = wrapper

    def remove(self):
        for table, key, original, _ in self._slots:
            table[key] = original
