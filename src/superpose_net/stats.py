"""Empirical degree statistics and exact correlation functionals of pmfs.

Pmf1D/Pmf2D are dense arrays over an integer support starting at 0, with a
recorded mass defect for laws truncated from infinite support (always 0
for empirical laws).  The correlation functionals (Pearson, Kendall,
mid-rank Spearman) are evaluated exactly over the support by summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMarginal, EmptyGraph, MissingRecords, ZeroMean
from .generate import GraphSample, degrees

_MASS_TOL = 1e-9


@dataclass(frozen=True)
class Pmf1D:
    probs: np.ndarray
    mass_defect: float = 0.0

    def __post_init__(self):
        total = math.fsum(self.probs.tolist()) + self.mass_defect
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"pmf mass {total} differs from 1 beyond tolerance")
        if np.any(self.probs < 0) or self.mass_defect < 0:
            raise ValueError("negative probability mass")

    @property
    def support_max(self) -> int:
        return len(self.probs) - 1

    def mean(self) -> float:
        return float(np.arange(len(self.probs)) @ self.probs)

    def moment(self, k: int) -> float:
        return float(np.arange(len(self.probs), dtype=float) ** k @ self.probs)

    def variance(self) -> float:
        m = self.mean()
        return self.moment(2) - m * m


@dataclass(frozen=True)
class Pmf2D:
    probs: np.ndarray  # shape (S1+1, S2+1)
    mass_defect: float = 0.0

    def __post_init__(self):
        total = math.fsum(self.probs.ravel().tolist()) + self.mass_defect
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"pmf mass {total} differs from 1 beyond tolerance")
        if np.any(self.probs < 0) or self.mass_defect < 0:
            raise ValueError("negative probability mass")

    def marginal(self, axis: int) -> Pmf1D:
        return Pmf1D(self.probs.sum(axis=1 - axis), self.mass_defect)


def product_pmf(f: Pmf1D, g: Pmf1D) -> Pmf2D:
    joint = np.outer(f.probs, g.probs)
    defect = 1.0 - (1.0 - f.mass_defect) * (1.0 - g.mass_defect)
    return Pmf2D(joint, defect)


# -- empirical laws -------------------------------------------------------

def degree_distribution(g: GraphSample) -> Pmf1D:
    """Fraction of nodes at each degree."""
    if g.n < 1:
        raise ValueError("graph must have at least one node")
    counts = np.bincount(degrees(g))
    return Pmf1D(counts / g.n)


def bidegree_distribution(g: GraphSample) -> Pmf2D:
    """Joint degree law of a uniform directed adjacent pair; symmetric."""
    if g.edge_count == 0:
        raise EmptyGraph("bidegree distribution needs at least one edge")
    deg = degrees(g)
    s = deg[g.edges[:, 0] - 1]
    t = deg[g.edges[:, 1] - 1]
    top = int(deg.max())
    width = top + 1
    flat = np.bincount(s * width + t, minlength=width * width)
    flat += np.bincount(t * width + s, minlength=width * width)
    joint = flat.reshape(width, width) / (2.0 * g.edge_count)
    return Pmf2D(joint)


def size_biased(f: Pmf1D) -> Pmf1D:
    """Reweight by the argument; the common marginal of any bidegree law."""
    weights = np.arange(len(f.probs)) * f.probs
    total = math.fsum(weights.tolist())
    if total <= 0.0:
        raise ZeroMean("size-biasing needs a positive-mean distribution")
    return Pmf1D(weights / total, mass_defect=0.0)


# -- correlation functionals ----------------------------------------------

def _normalized(f: Pmf2D) -> np.ndarray:
    total = f.probs.sum()
    if total <= 0.0:
        raise ValueError("pmf carries no mass on its support")
    return f.probs / total


def pearson_correlation(f: Pmf2D) -> float:
    """Pearson correlation of the joint law; the assortativity of a
    bidegree pmf."""
    joint = _normalized(f)
    m1 = joint.sum(axis=1)
    m2 = joint.sum(axis=0)
    s = np.arange(len(m1), dtype=float)
    t = np.arange(len(m2), dtype=float)
    e1, e2 = m1 @ s, m2 @ t
    v1 = m1 @ s**2 - e1 * e1
    v2 = m2 @ t**2 - e2 * e2
    if v1 <= 1e-30 or v2 <= 1e-30:
        raise DegenerateMarginal("marginal variance is zero")
    cov = s @ joint @ t - e1 * e2
    return float(cov / math.sqrt(v1 * v2))


def kendall(f: Pmf2D) -> float:
    """Tie-aware sign correlation of two independent draws from f.

    Exact in O(support size) via 2-D cumulative prefix sums.
    """
    joint = _normalized(f)
    m1 = joint.sum(axis=1)
    m2 = joint.sum(axis=0)
    d1 = 1.0 - m1 @ m1
    d2 = 1.0 - m2 @ m2
    if d1 <= 1e-30 or d2 <= 1e-30:
        raise DegenerateMarginal("a marginal is a point mass")
    # Cp[i, j] = P(Z1 <= i-1, Z2 <= j-1), zero-padded
    cp = np.zeros((joint.shape[0] + 1, joint.shape[1] + 1))
    cp[1:, 1:] = np.cumsum(np.cumsum(joint, axis=0), axis=1)
    both_lt = cp[:-1, :-1]
    both_le = cp[1:, 1:]
    c1_le = cp[1:, -1][:, None]
    c1_lt = cp[:-1, -1][:, None]
    c2_le = cp[-1, 1:][None, :]
    c2_lt = cp[-1, :-1][None, :]
    both_gt = 1.0 - c1_le - c2_le + both_le
    lt_gt = c1_lt - cp[:-1, 1:]
    gt_lt = c2_lt - cp[1:, :-1]
    e_sign = float(np.sum(joint * (both_lt + both_gt - lt_gt - gt_lt)))
    return e_sign / math.sqrt(d1 * d2)


def _midranks(m: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(m)
    return cdf - 0.5 * m


def spearman(f: Pmf2D) -> float:
    """Pearson correlation of the mid-rank transforms of the two margins."""
    joint = _normalized(f)
    m1 = joint.sum(axis=1)
    m2 = joint.sum(axis=0)
    r1 = _midranks(m1)
    r2 = _midranks(m2)
    e1, e2 = m1 @ r1, m2 @ r2
    v1 = m1 @ r1**2 - e1 * e1
    v2 = m2 @ r2**2 - e2 * e2
    if v1 <= 1e-30 or v2 <= 1e-30:
        raise DegenerateMarginal("a marginal is a point mass")
    cov = r1 @ joint @ r2 - e1 * e2
    return float(cov / math.sqrt(v1 * v2))


# -- per-layer subgraph counts --------------------------------------------

@dataclass(frozen=True)
class SubgraphCountMeans:
    links: float
    two_stars: float
    three_stars: float


def layer_subgraph_counts(records) -> SubgraphCountMeans:
    """Mean links, 2-stars, and 3-stars per layer graph."""
    if not records:
        raise MissingRecords("no layer records available")
    links = []
    two = []
    three = []
    for rec in records:
        e = rec.edges
        links.append(len(e))
        if len(e) == 0:
            two.append(0.0)
            three.append(0.0)
            continue
        deg = np.bincount(np.concatenate([e[:, 0], e[:, 1]]))
        d = deg[deg > 1].astype(float)
        two.append(float(np.sum(d * (d - 1) / 2)))
        three.append(float(np.sum(d * (d - 1) * (d - 2) / 6)))
    return SubgraphCountMeans(
        links=float(np.mean(links)),
        two_stars=float(np.mean(two)),
        three_stars=float(np.mean(three)),
    )


# -- CSV serialization ----------------------------------------------------

def pmf1d_to_csv(f: Pmf1D, path) -> None:
    (s,) = np.nonzero(f.probs > 0)
    probs = f.probs[s].astype(float).tolist()
    rows = "".join([f"{i},{p!r}\n" for i, p in zip(s.tolist(), probs)])
    with open(path, "w") as fh:
        fh.write(f"s,prob\n{rows}# mass_defect={float(f.mass_defect)!r}\n")


def pmf2d_to_csv(f: Pmf2D, path) -> None:
    s, t = np.nonzero(f.probs > 0)
    probs = f.probs[s, t].astype(float).tolist()
    rows = "".join([f"{i},{j},{p!r}\n" for i, j, p in zip(s.tolist(), t.tolist(), probs)])
    with open(path, "w") as fh:
        fh.write(f"s,t,prob\n{rows}# mass_defect={float(f.mass_defect)!r}\n")


def pmf1d_from_csv(path) -> Pmf1D:
    entries = {}
    defect = 0.0
    with open(path) as fh:
        next(fh)
        for line in fh:
            line = line.strip()
            if line.startswith("# mass_defect="):
                defect = float(line.split("=", 1)[1])
            elif line:
                s, p = line.split(",")
                entries[int(s)] = float(p)
    probs = np.zeros(max(entries) + 1 if entries else 1)
    for s, p in entries.items():
        probs[s] = p
    return Pmf1D(probs, defect)


def pmf2d_from_csv(path) -> Pmf2D:
    entries = {}
    defect = 0.0
    with open(path) as fh:
        next(fh)
        for line in fh:
            line = line.strip()
            if line.startswith("# mass_defect="):
                defect = float(line.split("=", 1)[1])
            elif line:
                s, t, p = line.split(",")
                entries[(int(s), int(t))] = float(p)
    s_max = max(k[0] for k in entries) if entries else 0
    t_max = max(k[1] for k in entries) if entries else 0
    probs = np.zeros((s_max + 1, t_max + 1))
    for (s, t), p in entries.items():
        probs[s, t] = p
    return Pmf2D(probs, defect)
