"""The dense-law format: pmfs over an integer support starting at 0, their
correlation functionals and tail-slope fit, and their CSV files.

A Pmf is a dense array of rank 1 or 2 with a recorded mass defect for
laws truncated from infinite support (always 0 for empirical laws).  The
correlation functionals (Pearson, Kendall, mid-rank Spearman) are
evaluated exactly by summation over the occupied support, the rows and
columns with mass; they apply alike to empirical and limiting laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, check_memory

_MASS_TOL = 1e-9
_MAX_SUPPORT = 1 << 20  # largest support point of a 1-D law the engine computes or reads
_DEFAULT_T_LO = 10  # where a tail fit starts when no fit_range is given
_BLOCK_CELLS = 1 << 16  # cells of a law per block of rows that pmf_to_csv writes or kendall sums


@dataclass(frozen=True)
class Pmf:
    """A law on 0..S or on (0..S1) x (0..S2): probs of shape (S+1,) or (S1+1, S2+1)."""
    probs: np.ndarray
    mass_defect: float = 0.0

    def __post_init__(self):
        total = float(self.probs.sum()) + self.mass_defect
        if not abs(total - 1.0) <= _MASS_TOL:
            raise ValueError(f"pmf mass {total} differs from 1 beyond tolerance")
        if np.any(self.probs < 0) or self.mass_defect < 0:
            raise ValueError("negative probability mass")


def size_biased(f: Pmf) -> Pmf:
    """Reweight by the argument; the common marginal of any bidegree law."""
    weights = np.arange(len(f.probs)) * f.probs
    total = math.fsum(weights.tolist())
    if total <= 0.0:
        raise Degenerate("size-biasing needs a positive-mean distribution")
    return Pmf(weights / total, mass_defect=0.0)


def checked_fit_range(fit_range) -> tuple:
    """fit_range as a (lo, hi) tuple.  ValueError unless it is two numbers
    with lo < hi."""
    pair = isinstance(fit_range, (list, tuple)) and len(fit_range) == 2
    if not (pair and all(isinstance(v, (int, float)) for v in fit_range) and fit_range[0] < fit_range[1]):
        raise ValueError(f"fit_range must be two numbers [lo, hi] with lo < hi, got {fit_range!r}")
    return tuple(fit_range)


def tail_slope_fit(f: Pmf, fit_range) -> tuple[float, float]:
    """Least-squares slope magnitude of log pmf against log support.

    Needs at least 5 positive-mass points inside the range; s = 0, whose
    log is -inf, never counts.
    """
    t_lo, t_hi = fit_range
    support = np.arange(len(f.probs))
    mask = (support >= max(t_lo, 1)) & (support <= t_hi) & (f.probs > 0)
    if mask.sum() < 5:
        raise Degenerate(f"only {int(mask.sum())} positive-mass points in [{t_lo}, {t_hi}]")
    x = np.log(support[mask].astype(float))
    y = np.log(f.probs[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = len(x) - 2
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(float(resid @ resid) / dof / sxx)
    return abs(float(slope)), stderr


# -- correlation functionals ----------------------------------------------

def _occupied(f: Pmf):
    """The normalised law restricted to its rows and columns of positive
    mass, and the support points those rows and columns stand for;
    Degenerate if it has no mass, MemoryBudgetExceeded if it would not fit."""
    rows = np.flatnonzero(f.probs.sum(axis=1) > 0)
    cols = np.flatnonzero(f.probs.sum(axis=0) > 0)
    if len(rows) == 0:
        raise Degenerate("pmf carries no mass on its support")
    check_memory(8 * len(rows) * len(cols), "correlation arrays of the occupied bidegree law")
    joint = f.probs[np.ix_(rows, cols)]
    joint /= joint.sum()
    return joint, rows, cols


def _scored_correlation(f: Pmf, score, message: str) -> float:
    """Pearson correlation of score(m1, x1)[Z1] and score(m2, x2)[Z2] for
    (Z1, Z2) ~ f with occupied support points x1, x2 and marginals m1, m2
    on them; Degenerate(message) if a score has zero variance."""
    joint, x1, x2 = _occupied(f)
    m1 = joint.sum(axis=1)
    m2 = joint.sum(axis=0)
    r1 = score(m1, x1)
    r2 = score(m2, x2)
    e1, e2 = m1 @ r1, m2 @ r2
    v1 = m1 @ r1**2 - e1 * e1
    v2 = m2 @ r2**2 - e2 * e2
    if v1 <= 1e-30 or v2 <= 1e-30:
        raise Degenerate(message)
    cov = r1 @ joint @ r2 - e1 * e2
    return float(cov / math.sqrt(v1 * v2))


def pearson_correlation(f: Pmf) -> float:
    """Pearson correlation of the joint law; the assortativity of a
    bidegree pmf."""
    return _scored_correlation(f, lambda m, x: x.astype(float), "marginal variance is zero")


def kendall(f: Pmf) -> float:
    """Tie-aware sign correlation of two independent draws from f, exact.
    Summed a block of rows of about _BLOCK_CELLS occupied cells at a time,
    it holds one copy of the occupied support."""
    joint, _, _ = _occupied(f)
    d1, d2 = (1.0 - m @ m for m in (joint.sum(axis=1), joint.sum(axis=0)))
    if d1 <= 1e-30 or d2 <= 1e-30:
        raise Degenerate("a marginal is a point mass")
    # the draws are exchangeable, so E[sign] is twice the sum over rows i of
    # p_i @ (P(Z1 < i, Z2 < j) - P(Z1 < i, Z2 > j)) = p_i @ (2 below - seen - below[-1]),
    # with seen[j] = P(Z1 < i, Z2 = j), from column sums carried past each block, and below its cumsum
    step = max(1, _BLOCK_CELLS // joint.shape[1])
    carry, half = np.zeros((1, joint.shape[1])), 0.0
    for first in range(0, len(joint), step):
        block = joint[first : first + step]
        seen = np.cumsum(np.concatenate((carry, block[:-1])), axis=0)
        below = np.cumsum(seen, axis=1)
        half += float(np.einsum("ij,ij->", block, 2.0 * below - seen - below[:, -1:]))
        carry = seen[-1:] + block[-1:]
    return 2.0 * half / math.sqrt(d1 * d2)


def spearman(f: Pmf) -> float:
    """Pearson correlation of the mid-rank transforms of the two margins."""
    return _scored_correlation(f, lambda m, x: np.cumsum(m) - 0.5 * m, "a marginal is a point mass")


# the functionals reported for a bidegree law, by metric name, in report order
FUNCTIONALS = {"assortativity": pearson_correlation, "kendall": kendall, "spearman": spearman}


def functionals(f: Pmf, names) -> dict:
    """The named FUNCTIONALS of f; one that is Degenerate on f is None,
    with the reason under <name>_degenerate."""
    out = {}
    for name in names:
        try:
            out[name] = FUNCTIONALS[name](f)
        except Degenerate as exc:
            out[name] = None
            out[f"{name}_degenerate"] = str(exc)
    return out


# -- CSV serialization ----------------------------------------------------

def pmf_to_csv(f: Pmf, path) -> None:
    """Write a law of rank 1 or 2: an `s,prob` or `s,t,prob` header, a line
    per positive entry, then a `# mass_defect=` line.  The lines go out a
    block of rows of about _BLOCK_CELLS cells at a time, each distinct value
    of a block and each support index formatted once."""
    probs = f.probs.reshape(-1, f.probs.shape[-1])  # a 1-D law as one row
    ints = np.array([f"{i}," for i in range(max(probs.shape))], dtype=object)
    with open(path, "w") as fh:
        fh.write(("s,prob\n", "s,t,prob\n")[f.probs.ndim - 1])
        step = max(1, _BLOCK_CELLS // probs.shape[1])
        for first in range(0, len(probs), step):
            i, j = np.nonzero(probs[first : first + step] > 0)
            values, inverse = np.unique(probs[first + i, j].astype(float), return_inverse=True)
            texts = np.array([repr(v) + "\n" for v in values.tolist()], dtype=object)
            fields = (ints[first + i], ints[j])[2 - f.probs.ndim :] + (texts[inverse],)
            fh.write("".join(np.stack(fields, axis=1).ravel().tolist()))
        fh.write(f"# mass_defect={float(f.mass_defect)!r}\n")


def pmf1d_from_csv(path) -> Pmf:
    """Read a pmf_to_csv file of a 1-D law.  ValueError if the first line is
    not the header `s,prob`, if a line after it is not `s,prob` with
    0 <= s <= _MAX_SUPPORT and 0 <= prob <= 1, if a support point appears
    twice, or if the mass is not 1."""
    entries = {}
    defect = 0.0
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "s,prob":
            raise ValueError(f"first line {header!r} is not the header s,prob")
        for line in fh:
            line = line.strip()
            if line.startswith("# mass_defect="):
                defect = float(line.split("=", 1)[1])
            elif line:
                s, p = line.split(",")
                if int(s) in entries:
                    raise ValueError(f"support point {int(s)} appears twice")
                entries[int(s)] = float(p)
                if not 0.0 <= entries[int(s)] <= 1.0:  # refuses inf and nan too
                    raise ValueError(f"probability {p} at support point {s} is not in [0, 1]")
    if min(entries, default=0) < 0:
        raise ValueError(f"negative support point {min(entries)}")
    if max(entries, default=0) > _MAX_SUPPORT:
        raise ValueError(f"support point {max(entries)} is beyond the longest law, {_MAX_SUPPORT}")
    probs = np.zeros(max(entries, default=0) + 1)
    probs[list(entries)] = list(entries.values())
    return Pmf(probs, defect)
