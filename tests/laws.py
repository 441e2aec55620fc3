"""Random layer-type distributions and pmf moments shared by the property
and acceptance tests."""

import numpy as np

from superpose_net import LayerTypeDistribution, Pmf1D


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


def moment(f, k):
    """E[D^k] for D ~ the 1-D pmf f."""
    return float(np.arange(len(f.probs), dtype=float) ** k @ f.probs)


def marginal(f2, axis):
    """The law of coordinate `axis` of a draw from the 2-D pmf f2."""
    return Pmf1D(f2.probs.sum(axis=1 - axis), f2.mass_defect)
