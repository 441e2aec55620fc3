"""The benchmark's own model of the outputs it checks.

Nothing here imports the program.  The two-atom sampler, the cross
moments, the closed-form assortativity and the correlation functionals of
a joint pmf are written out from their definitions in the paper, so a
check that compares the program with these values does not compare the
program with itself.
"""

from __future__ import annotations

import math

import numpy as np

# {(size 2, strength 1, prob 1/2), (size 4, strength 1, prob 1/2)}
TWO_ATOM = ((2, 1.0, 0.5), (4, 1.0, 0.5))


def two_atom_edges(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted unique (E, 2) edges, 1-based, of m layers of the two-atom law.

    Every layer is complete (strength 1), so a layer of size x adds all
    x(x-1)/2 pairs of a uniform x-subset of the n nodes.
    """
    big = rng.random(m) < 0.5
    codes = []
    for size, count in ((2, int(m - big.sum())), (4, int(big.sum()))):
        nodes = rng.integers(0, n, size=(count, size))
        while True:
            srt = np.sort(nodes, axis=1)
            dup = np.any(srt[:, 1:] == srt[:, :-1], axis=1)
            if not dup.any():
                break
            nodes[dup] = rng.integers(0, n, size=(int(dup.sum()), size))
        for a in range(size):
            for b in range(a + 1, size):
                lo, hi = srt[:, a], srt[:, b]
                codes.append(lo * n + hi)
    uniq = np.unique(np.concatenate(codes))
    return np.stack([uniq // n + 1, uniq % n + 1], axis=1)


def write_edge_list(edges: np.ndarray, n: int, m: int, seed: int, path) -> None:
    """Edge-list file in the format the program reads: a header, then "i j"."""
    body = "\n".join(f"{i} {j}" for i, j in edges.tolist())
    with open(path, "w") as fh:
        fh.write(f"# superpose-net n={n} m={m} seed={seed}\n{body}\n")


def edge_count_law(atoms, n: int, m: int) -> tuple[float, float]:
    """Mean and variance of the number of distinct edges of m layers.

    A pair is an edge unless all m layers miss it, which gives the mean
    exactly.  The variance is that of the raw layer edge total (a sum of m
    iid binomial mixtures) plus the expected number of repeated pairs, an
    upper bound on what merging repeats can add.
    """
    pairs = n * (n - 1) / 2
    p21 = math.fsum(x * (x - 1) * y * p for x, y, p in atoms)
    hit = p21 / (n * (n - 1))
    mean = pairs * -math.expm1(m * math.log1p(-hit))
    layer_mean = math.fsum(p * y * x * (x - 1) / 2 for x, y, p in atoms)
    layer_sq = math.fsum(
        p * (x * (x - 1) / 2 * y * (1 - y) + (x * (x - 1) / 2 * y) ** 2)
        for x, y, p in atoms
    )
    raw_mean = m * layer_mean
    var = m * (layer_sq - layer_mean**2) + raw_mean**2 / pairs
    return mean, var


def power_law_atoms(alpha, beta, b, x_min, x_max):
    """(size, strength, prob) atoms of the truncated power-law layer law."""
    sizes = range(x_min, x_max + 1)
    weights = [x ** (-alpha) for x in sizes]
    total = math.fsum(weights)
    return [(x, min(1.0, b * x ** (-beta)), w / total) for x, w in zip(sizes, weights)]


def cross_moment(atoms, r: int, s: int) -> float:
    """P_rs = E[(X)_r Y^s] by math.fsum over the atoms."""
    terms = []
    for x, y, p in atoms:
        ff = 1
        for i in range(r):
            ff *= x - i
        terms.append(ff * y**s * p)
    return math.fsum(terms)


def closed_form_assortativity(atoms, mu: float) -> float:
    """(P21(P43+P33) - P32^2) / (P21(P43+P32) - P32^2 + mu P21^2 (P21+P32))."""
    p21, p32, p33, p43 = (cross_moment(atoms, r, s) for r, s in ((2, 1), (3, 2), (3, 3), (4, 3)))
    num = p21 * (p43 + p33) - p32**2
    den = p21 * (p43 + p32) - p32**2 + mu * p21**2 * (p21 + p32)
    return num / den


# -- endpoint-degree pairs of a graph -------------------------------------

def endpoint_degree_pairs(edges: np.ndarray, n: int):
    """Node degrees and the (x, y) endpoint-degree pairs over both directions."""
    deg = np.bincount(edges[:, 0] - 1, minlength=n) + np.bincount(edges[:, 1] - 1, minlength=n)
    s, t = deg[edges[:, 0] - 1], deg[edges[:, 1] - 1]
    return deg, np.concatenate([s, t]), np.concatenate([t, s])


# -- functionals of a sparse joint pmf -------------------------------------

def _margins(s, t, p):
    m1 = np.bincount(s, weights=p)
    m2 = np.bincount(t, weights=p)
    return m1, m2


def pmf_pearson(s, t, p) -> float:
    p = p / p.sum()
    es, et = p @ s, p @ t
    cov = p @ ((s - es) * (t - et))
    return float(cov / math.sqrt((p @ (s - es) ** 2) * (p @ (t - et) ** 2)))


def pmf_spearman(s, t, p) -> float:
    """Pearson correlation of the mid-ranks F(k-1) + p(k)/2 of each margin."""
    p = p / p.sum()
    m1, m2 = _margins(s, t, p)
    r1 = np.cumsum(m1) - m1 / 2
    r2 = np.cumsum(m2) - m2 / 2
    return pmf_pearson(r1[s], r2[t], p)


def pmf_kendall(s, t, p) -> float:
    """Tau-b of the joint law: (P(concordant) - P(discordant)) over the
    square root of the two no-tie probabilities of independent draws.

    P(concordant) = 2 P(S1 < S2, T1 < T2) and P(discordant) =
    2 P(S1 < S2, T1 > T2), each a sum over the first draw's atoms of the
    mass strictly below-left or strictly below-right of it.
    """
    p = p / p.sum()
    m1, m2 = _margins(s, t, p)
    rows, cols = len(m1), len(m2)
    dense = np.zeros((rows, cols))
    np.add.at(dense, (s, t), p)
    # below[i, j] = P(S < i, T < j)
    below = np.zeros((rows + 1, cols + 1))
    below[1:, 1:] = dense.cumsum(axis=0).cumsum(axis=1)
    s_lt = below[s, cols]
    lower_left = below[s, t]
    lower_le = below[s, t + 1]
    concordant = 2 * (p @ lower_left)
    discordant = 2 * (p @ (s_lt - lower_le))
    return float((concordant - discordant) / math.sqrt((1 - m1 @ m1) * (1 - m2 @ m2)))
