"""Random layer-type distributions, pmf moments, the reference increment
law and exact small-graph laws shared by the property, oracle and
acceptance tests."""

from itertools import combinations

import numpy as np
from scipy.stats import binom

from superpose_net import LayerTypeDistribution, Pmf, cross_moment
from superpose_net.pmf import pmf_to_csv


def random_tabular(rng, max_size=8, max_atoms=5, min_strength=0.0, require_edges=True):
    """Random tabular layer distribution for property and acceptance tests."""
    while True:
        k = rng.integers(1, max_atoms + 1)
        sizes = rng.integers(0, max_size + 1, size=k)
        strengths = min_strength + (1.0 - min_strength) * rng.random(k)
        weights = rng.random(k) + 1e-3
        probs = weights / weights.sum()
        dist = LayerTypeDistribution.tabular(zip(sizes.tolist(), strengths.tolist(), probs.tolist()))
        if not require_edges:
            return dist
        if np.any((dist.sizes >= 2) & (dist.strengths > 0)):
            return dist


def power_pmf_csv(path, length=60):
    """Write p(s) proportional to (s + 1)^-2 on 0..length-1 as a pmf file; return its path."""
    weights = (np.arange(length) + 1.0) ** -2
    pmf_to_csv(Pmf(weights / weights.sum()), path)
    return path


def atoms(dist):
    """The (size, strength, probability) triples of a layer law."""
    return list(zip(dist.sizes.tolist(), dist.strengths.tolist(), dist.probs.tolist()))


def reference_increment(dist):
    """The law of one layer's contribution to the degree of a node it
    holds: Bin(x-1, y) weighted by x * P(x, y) / P_10, one binom.pmf call
    per atom over its full support."""
    p10 = cross_moment(dist, 1, 0)
    out = np.zeros(max(int(dist.sizes.max(initial=0)) - 1, 0) + 1)
    for x, y, p in atoms(dist):
        if x == 0 or p == 0:
            continue
        out[:x] += x * p / p10 * binom.pmf(np.arange(x), x - 1, y)
    return out


def moment(f, k):
    """E[D^k] for D ~ the 1-D pmf f."""
    return float(np.arange(len(f.probs), dtype=float) ** k @ f.probs)


def marginal(f2, axis):
    """The law of coordinate `axis` of a draw from the 2-D pmf f2."""
    return Pmf(f2.probs.sum(axis=1 - axis), f2.mass_defect)


# two laws whose graphs on 4 nodes are enumerated exactly: every size from 0
# to past 4, strengths in (0, 1) and of 1
SMALL_GRAPH_LAWS = {
    "five_atoms": LayerTypeDistribution.tabular([(2, 0.7, 0.3), (3, 0.5, 0.3), (4, 0.3, 0.2), (6, 0.9, 0.1),
                                                 (1, 1.0, 0.1)]),
    "size_0_and_strength_1": LayerTypeDistribution.tabular([(0, 0.5, 0.3), (2, 1.0, 0.3), (3, 0.4, 0.2),
                                                            (5, 0.2, 0.2)]),
}


def edge_set_law(dist, n, layers):
    """Chance of each edge set of a graph on n nodes that is the union of
    `layers` iid layers of dist, layer sizes clamped to n.  Edge sets are
    bit masks, bit k standing for the k-th pair of combinations(range(n), 2);
    the graph's law is the OR-convolution of the exact one-layer law."""
    pairs = list(combinations(range(n), 2))
    one = np.zeros(1 << len(pairs))
    for x, y, p in atoms(dist):
        subsets = list(combinations(range(n), min(x, n)))
        for nodes in subsets:
            inside = [k for k, (i, j) in enumerate(pairs) if i in nodes and j in nodes]
            for r in range(len(inside) + 1):
                for chosen in combinations(inside, r):
                    one[sum(1 << k for k in chosen)] += p / len(subsets) * y**r * (1 - y) ** (len(inside) - r)
    masks = np.arange(len(one))
    law = one
    for _ in range(layers - 1):
        law = np.bincount((masks[:, None] | masks).ravel(), weights=np.outer(law, one).ravel(), minlength=len(one))
    return law
