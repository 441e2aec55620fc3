"""The dense-law format: pmfs over an integer support starting at 0, their
correlation functionals and their CSV files.

Pmf1D/Pmf2D are dense arrays with a recorded mass defect for laws
truncated from infinite support (always 0 for empirical laws).  The
correlation functionals (Pearson, Kendall, mid-rank Spearman) are
evaluated exactly by summation over the occupied support, the rows and
columns with mass; they apply alike to empirical and limiting laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMarginal, ZeroMean

_MASS_TOL = 1e-9
_MAX_SUPPORT = 1 << 20  # largest support point of a 1-D law the engine computes or reads


@dataclass(frozen=True)
class _Pmf:
    probs: np.ndarray
    mass_defect: float = 0.0

    def __post_init__(self):
        total = float(self.probs.sum()) + self.mass_defect
        if not abs(total - 1.0) <= _MASS_TOL:
            raise ValueError(f"pmf mass {total} differs from 1 beyond tolerance")
        if np.any(self.probs < 0) or self.mass_defect < 0:
            raise ValueError("negative probability mass")


class Pmf1D(_Pmf):
    """probs has shape (S+1,)."""


class Pmf2D(_Pmf):
    """probs has shape (S1+1, S2+1)."""


def size_biased(f: Pmf1D) -> Pmf1D:
    """Reweight by the argument; the common marginal of any bidegree law."""
    weights = np.arange(len(f.probs)) * f.probs
    total = math.fsum(weights.tolist())
    if total <= 0.0:
        raise ZeroMean("size-biasing needs a positive-mean distribution")
    return Pmf1D(weights / total, mass_defect=0.0)


# -- correlation functionals ----------------------------------------------

def _occupied(f: Pmf2D):
    """The normalised law restricted to its rows and columns of positive
    mass, and the support points those rows and columns stand for."""
    rows = np.flatnonzero(f.probs.sum(axis=1) > 0)
    cols = np.flatnonzero(f.probs.sum(axis=0) > 0)
    if len(rows) == 0:
        raise ValueError("pmf carries no mass on its support")
    joint = f.probs[np.ix_(rows, cols)]
    return joint / joint.sum(), rows, cols


def _scored_correlation(f: Pmf2D, score, message: str) -> float:
    """Pearson correlation of score(m1, x1)[Z1] and score(m2, x2)[Z2] for
    (Z1, Z2) ~ f with occupied support points x1, x2 and marginals m1, m2
    on them; DegenerateMarginal(message) if a score has zero variance."""
    joint, x1, x2 = _occupied(f)
    m1 = joint.sum(axis=1)
    m2 = joint.sum(axis=0)
    r1 = score(m1, x1)
    r2 = score(m2, x2)
    e1, e2 = m1 @ r1, m2 @ r2
    v1 = m1 @ r1**2 - e1 * e1
    v2 = m2 @ r2**2 - e2 * e2
    if v1 <= 1e-30 or v2 <= 1e-30:
        raise DegenerateMarginal(message)
    cov = r1 @ joint @ r2 - e1 * e2
    return float(cov / math.sqrt(v1 * v2))


def pearson_correlation(f: Pmf2D) -> float:
    """Pearson correlation of the joint law; the assortativity of a
    bidegree pmf."""
    return _scored_correlation(f, lambda m, x: x.astype(float), "marginal variance is zero")


def kendall(f: Pmf2D) -> float:
    """Tie-aware sign correlation of two independent draws from f.

    Exact in O(occupied support size) via 2-D cumulative prefix sums.
    """
    joint, _, _ = _occupied(f)
    m1 = joint.sum(axis=1)
    m2 = joint.sum(axis=0)
    d1 = 1.0 - m1 @ m1
    d2 = 1.0 - m2 @ m2
    if d1 <= 1e-30 or d2 <= 1e-30:
        raise DegenerateMarginal("a marginal is a point mass")
    # cp[i, j] = P(Z1 <= i-1, Z2 <= j-1), zero-padded
    cp = np.zeros((joint.shape[0] + 1, joint.shape[1] + 1))
    cp[1:, 1:] = np.cumsum(np.cumsum(joint, axis=0), axis=1)
    # the draws are exchangeable, so E[sign] is twice the sum of
    # p_ij (P(Z1 < i, Z2 < j) - P(Z1 < i, Z2 > j))
    below = cp[:-1, :-1] + cp[:-1, 1:] - cp[:-1, -1:]
    e_sign = 2.0 * float(np.sum(joint * below))
    return e_sign / math.sqrt(d1 * d2)


def spearman(f: Pmf2D) -> float:
    """Pearson correlation of the mid-rank transforms of the two margins."""
    return _scored_correlation(f, lambda m, x: np.cumsum(m) - 0.5 * m, "a marginal is a point mass")


# the functionals reported for a bidegree law, by metric name, in report order
FUNCTIONALS = {"assortativity": pearson_correlation, "kendall": kendall, "spearman": spearman}


def functionals(f: Pmf2D, names) -> dict:
    """The named FUNCTIONALS of f; one whose marginal is degenerate is
    None, with the reason under <name>_degenerate."""
    out = {}
    for name in names:
        try:
            out[name] = FUNCTIONALS[name](f)
        except DegenerateMarginal as exc:
            out[name] = None
            out[f"{name}_degenerate"] = str(exc)
    return out


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
    """Read a pmf1d_to_csv file.  ValueError if a line after the header is
    not `s,prob` with 0 <= s <= _MAX_SUPPORT, if a support point appears
    twice, or if the mass is not 1."""
    entries = {}
    defect = 0.0
    with open(path) as fh:
        fh.readline()
        for line in fh:
            line = line.strip()
            if line.startswith("# mass_defect="):
                defect = float(line.split("=", 1)[1])
            elif line:
                s, p = line.split(",")
                if int(s) in entries:
                    raise ValueError(f"support point {int(s)} appears twice")
                entries[int(s)] = float(p)
    if min(entries, default=0) < 0:
        raise ValueError(f"negative support point {min(entries)}")
    if max(entries, default=0) > _MAX_SUPPORT:
        raise ValueError(f"support point {max(entries)} is beyond the longest law, {_MAX_SUPPORT}")
    probs = np.zeros(max(entries, default=0) + 1)
    for s, p in entries.items():
        probs[s] = p
    return Pmf1D(probs, defect)
