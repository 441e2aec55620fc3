"""Empirical degree laws and per-layer subgraph counts of a sampled graph.

Everything here is derived from a GraphSample, whose degrees both laws
read from its one cached pass; the laws are returned in the dense format
of the pmf module.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyGraph, MissingRecords, check_memory
from .generate import GraphSample
from .pmf import Pmf


def degree_distribution(g: GraphSample) -> Pmf:
    """Fraction of nodes at each degree."""
    if g.n < 1:
        raise EmptyGraph("degree distribution needs at least one node")
    counts = np.bincount(g.degrees)
    return Pmf(counts / g.n)


def bidegree_counts(g: GraphSample) -> np.ndarray:
    """Directed adjacent pairs at each (degree, degree): a symmetric
    integer table that sums to twice the edge count."""
    if g.edge_count == 0:
        raise EmptyGraph("bidegree distribution needs at least one edge")
    deg = g.degrees
    s = deg[g.edges[:, 0] - 1]
    t = deg[g.edges[:, 1] - 1]
    top = int(deg.max())
    width = top + 1
    check_memory(16 * width * width, "empirical bidegree law")
    flat = np.bincount(s * width + t, minlength=width * width)
    flat += np.bincount(t * width + s, minlength=width * width)
    return flat.reshape(width, width)


def bidegree_distribution(g: GraphSample) -> Pmf:
    """Joint degree law of a uniform directed adjacent pair; symmetric."""
    return Pmf(bidegree_counts(g) / (2.0 * g.edge_count))


# -- per-layer subgraph counts --------------------------------------------

def layer_subgraph_counts(records) -> dict:
    """Mean links, 2-stars, and 3-stars per layer graph of a LayerTable, from the degrees
    within each layer: every endpoint keyed by (layer, node), in one pass."""
    if records is None:
        raise MissingRecords("no layer records available")
    m, edges = len(records.links), records.edges
    width = int(edges.max(initial=0)) + 1
    d = np.unique(edges + (np.repeat(np.arange(m), records.links) * width)[:, None], return_counts=True)[1]
    d = d.astype(float)  # integer sums below 2**53, so exact
    return {"links": len(edges) / m, "two_stars": float(np.sum(d * (d - 1) / 2)) / m,
            "three_stars": float(np.sum(d * (d - 1) * (d - 2) / 6)) / m}
