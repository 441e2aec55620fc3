"""The dense-law format: pmfs over an integer support starting at 0, their
correlation functionals and their CSV files.

Pmf1D/Pmf2D are dense arrays with a recorded mass defect for laws
truncated from infinite support (always 0 for empirical laws).  The
correlation functionals (Pearson, Kendall, mid-rank Spearman) are
evaluated exactly over the support by summation; they apply alike to the
empirical bidegree law of a sampled graph and to the limiting law.
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


class Pmf2D(_Pmf):
    """probs has shape (S1+1, S2+1)."""

    def marginal(self, axis: int) -> Pmf1D:
        return Pmf1D(self.probs.sum(axis=1 - axis), self.mass_defect)


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
