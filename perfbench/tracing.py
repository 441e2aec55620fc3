"""Span tracer for one in-process CLI run.

Each traced function is found by its public name in the package's modules
and rebound, wrapped, in every module that holds it, so calls through any
module's globals are recorded.  The metric name comes from the table below,
not from the module that defines the function today: a function that
moves keeps its name, and one that no longer exists reports 0 calls.

A span is (name, start, end, parent).  Spans stay in memory and are
written out by save(); a function's self time is the sum over its spans of
their duration minus the part covered by their child spans.  One stack of
open spans serves the whole process, so trace single-threaded runs only
(the benchmark passes --threads 1).
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from array import array

import numpy as np

TRACED = {
    "generate": ("generate_graph", "generate_layer", "write_edge_list", "read_edge_list", "degrees"),
    "layers": ("sample_layer_type", "cross_moment", "edge_biased_distribution"),
    "stats": (
        "degree_distribution", "bidegree_distribution", "size_biased", "pearson_correlation",
        "kendall", "spearman", "pmf1d_to_csv", "pmf2d_to_csv",
    ),
    "limits": (
        "increment_pmf", "compound_poisson_pmf", "limiting_degree_pmf", "fprime2_pmf",
        "limiting_bidegree_pmf", "limiting_rank_correlations", "limiting_assortativity",
        "limiting_moments",
    ),
    "study": ("run_study", "tv_distance_1d"),
    "cli": ("parse_config", "dispatch"),
}

METRIC_NAMES = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


def package_modules(package: str) -> list:
    pkg = importlib.import_module(package)
    return [pkg] + [
        importlib.import_module(f"{package}.{info.name}")
        for info in pkgutil.iter_modules(pkg.__path__)
    ]


class Tracer:
    def __init__(self):
        self._start = array("d")
        self._end = array("d")
        self._name = array("i")
        self._parent = array("q")
        self._stack = []

    def install(self, modules) -> None:
        """Wrap every function of TRACED that the modules hold."""
        for idx, metric in enumerate(METRIC_NAMES):
            attr = metric.split(".", 1)[1]
            wrapped = {}
            for mod in modules:
                fn = getattr(mod, attr, None)
                if callable(fn):
                    if id(fn) not in wrapped:
                        wrapped[id(fn)] = self._wrap(fn, idx)
                    setattr(mod, attr, wrapped[id(fn)])

    def _wrap(self, fn, idx: int):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            span = len(self._start)
            self._name.append(idx)
            self._parent.append(stack[-1] if stack else -1)
            self._end.append(0.0)
            stack.append(span)
            self._start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                self._end[span] = clock()

        return traced

    def arrays(self):
        return (np.frombuffer(self._start, dtype=float), np.frombuffer(self._end, dtype=float),
                np.frombuffer(self._name, dtype=np.int32), np.frombuffer(self._parent, dtype=np.int64))

    def summary(self) -> dict:
        """{metric: (self seconds, calls)} for every name in METRIC_NAMES."""
        start, end, name, parent = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(METRIC_NAMES)
        self_s = np.bincount(name, weights=dur - child, minlength=k)
        calls = np.bincount(name, minlength=k)
        return {m: (float(self_s[i]), int(calls[i])) for i, m in enumerate(METRIC_NAMES)}

    def save(self, path) -> None:
        start, end, name, parent = self.arrays()
        np.savez(path, start=start, end=end, name=name, parent=parent, names=np.array(METRIC_NAMES))
