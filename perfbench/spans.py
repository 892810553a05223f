"""Wrap the library's public functions, from outside the library.

Each layer is one module of ``graphlds``. A function is wrapped at every
name a ``graphlds`` module binds it to (``experiments.simulate``,
``estimators.solve_spd``, ...), because callers look functions up in
their own module's namespace; ``src/`` itself is never edited.

``Capture`` keeps the last return value of a few functions so the
output check can see what one op computed. ``Tracer`` records a span
(name, start, end, parent, op id) for every call and a few counts read
from arguments and return values; spans stay in memory until
``write``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = {
    "graphs": ("path_graph", "complete_graph", "build_laplacian", "spectrum",
               "quadratic_variation"),
    "ensembles": ("sample_holder_ensemble", "normalize_spectral_radius", "simulate"),
    "solver": ("gram_blocks", "solve_spd", "pinv_solve"),
    "estimators": ("laplacian_smoothing", "subspace_ls", "nodewise_ols", "pooled_ols",
                   "smoothing_objective"),
    "experiments": ("run_trial", "rows_to_csv"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
# counts read at the layer boundary, reported per op beside calls and self time
COUNT_NAMES = ("solver.solve_spd.iters", "solver.solve_spd.unknowns",
               "solver.solve_spd.dense_bytes_computed", "graphs.edges")


def rebind(names, wrap):
    """Replace each named function (``layer.function``) by ``wrap(name, fn)``
    wherever a loaded ``graphlds`` module binds it. Returns an undo callable."""
    current = {}
    for name in names:
        layer, fn = name.split(".")
        current[name] = getattr(importlib.import_module(f"graphlds.{layer}"), fn)
    wrappers = {id(fn): wrap(name, fn) for name, fn in current.items()}
    undo = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "graphlds" or modname.startswith("graphlds.")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
                undo.append((module, attr, value))

    def restore():
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)

    return restore


class Capture:
    """Keeps the return value of each wrapped function in ``sink``, keyed
    by name; the caller swaps in a fresh dict per op."""

    def __init__(self, names):
        self.sink: dict = {}
        self._restore = rebind(names, self._wrap)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.sink[name] = result
            return result
        return captured

    def close(self):
        self._restore()


def _edges(args, kwargs):
    # the graph is the last positional argument of both edge-loop functions
    g = kwargs["g"] if "g" in kwargs else args[-1]
    return len(g.edges)


class Tracer:
    """Span recorder for the functions in ``LAYERS``, active inside
    ``with tracer:`` blocks; spans and counts accumulate across blocks.

    ``op`` is the id stamped on spans as they open; set it to the op
    index around each op and to ``None`` between ops. Spans with op
    ``"setup"`` cover input generation.
    """

    def __init__(self):
        self.spans: list = []      # (name, start, end, parent index, op)
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._restore = None

    def __enter__(self):
        self._restore = rebind(SPAN_NAMES, self._wrap)
        return self

    def __exit__(self, *exc):
        self._restore()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
            if self.op is not None and self.op != "setup":
                self._count(name, args, kwargs, result)
            return result
        return traced

    def _count(self, name, args, kwargs, result):
        if name == "solver.solve_spd":
            solution, info = result
            self.counts["solver.solve_spd.iters"] += info["iterations"]
            self.counts["solver.solve_spd.unknowns"] += solution.size
            if info["solver"] == "dense_cholesky":
                # the m d^2 x m d^2 matrix the dense path builds and factors
                self.counts["solver.solve_spd.dense_bytes_computed"] += 8 * solution.size ** 2
        elif name in ("graphs.build_laplacian", "graphs.quadratic_variation"):
            self.counts["graphs.edges"] += _edges(args, kwargs)

    def self_times(self):
        """Per span: (name, op, self seconds), where self time is the
        duration minus the time its child spans cover."""
        child = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(name, op, end - start - child[i])
                for i, (name, start, end, parent, op) in enumerate(self.spans)]

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
