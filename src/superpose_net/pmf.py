"""The dense-law format: pmfs over an integer support starting at 0, their
correlation functionals and tail-slope fit, and their CSV files.

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

from .errors import DegenerateMarginal, InsufficientSupport, ZeroMean, check_memory

_MASS_TOL = 1e-9
_MAX_SUPPORT = 1 << 20  # largest support point of a 1-D law the engine computes or reads
_DEFAULT_T_LO = 10  # where a tail fit starts when no fit_range is given
_WRITE_CELLS = 1 << 16  # cells of a law formatted per write; bounds the text held at once


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


def checked_fit_range(fit_range) -> tuple:
    """fit_range as a (lo, hi) tuple.  ValueError unless it is two numbers
    with lo < hi."""
    pair = isinstance(fit_range, (list, tuple)) and len(fit_range) == 2
    if not (pair and all(isinstance(v, (int, float)) for v in fit_range) and fit_range[0] < fit_range[1]):
        raise ValueError(f"fit_range must be two numbers [lo, hi] with lo < hi, got {fit_range!r}")
    return tuple(fit_range)


def tail_slope_fit(f: Pmf1D, fit_range) -> tuple[float, float]:
    """Least-squares slope magnitude of log pmf against log support.

    Needs at least 5 positive-mass points inside the range; s = 0, whose
    log is -inf, never counts.
    """
    t_lo, t_hi = fit_range
    support = np.arange(len(f.probs))
    mask = (support >= max(t_lo, 1)) & (support <= t_hi) & (f.probs > 0)
    if mask.sum() < 5:
        raise InsufficientSupport(f"only {int(mask.sum())} positive-mass points in [{t_lo}, {t_hi}]")
    x = np.log(support[mask].astype(float))
    y = np.log(f.probs[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = len(x) - 2
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(float(resid @ resid) / dof / sxx) if dof > 0 else float("inf")
    return abs(float(slope)), stderr


# -- correlation functionals ----------------------------------------------

def _occupied(f: Pmf2D, copies: int = 1):
    """The normalised law restricted to its rows and columns of positive
    mass, and the support points those rows and columns stand for;
    MemoryBudgetExceeded first if `copies` arrays of its size would not fit."""
    rows = np.flatnonzero(f.probs.sum(axis=1) > 0)
    cols = np.flatnonzero(f.probs.sum(axis=0) > 0)
    if len(rows) == 0:
        raise ValueError("pmf carries no mass on its support")
    check_memory(8 * copies * len(rows) * len(cols), "correlation arrays of the occupied bidegree law")
    joint = f.probs[np.ix_(rows, cols)]
    joint /= joint.sum()
    return joint, rows, cols


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

    Exact via 2-D cumulative prefix sums, in three arrays of the occupied support's size.
    """
    joint, _, _ = _occupied(f, copies=3)
    m1 = joint.sum(axis=1)
    m2 = joint.sum(axis=0)
    d1 = 1.0 - m1 @ m1
    d2 = 1.0 - m2 @ m2
    if d1 <= 1e-30 or d2 <= 1e-30:
        raise DegenerateMarginal("a marginal is a point mass")
    # c[i, j] = P(Z1 <= i, Z2 <= j)
    c = np.cumsum(joint, axis=0)
    np.cumsum(c, axis=1, out=c)
    # the draws are exchangeable, so E[sign] is twice the sum of
    # p_ij (P(Z1 < i, Z2 < j) - P(Z1 < i, Z2 > j))
    below = np.zeros_like(joint)
    below[1:, 1:] = c[:-1, :-1]
    below[1:] += c[:-1]
    below[1:] -= c[:-1, -1:]
    below *= joint
    e_sign = 2.0 * float(np.sum(below))
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

def pmf_to_csv(f: _Pmf, path) -> None:
    """Write a law of rank 1 or 2: an `s,prob` or `s,t,prob` header, a line
    per positive entry, then a `# mass_defect=` line.  The lines go out a
    block of rows of about _WRITE_CELLS cells at a time, each distinct value
    of a block and each support index formatted once."""
    probs = f.probs.reshape(-1, f.probs.shape[-1])  # a 1-D law as one row
    ints = np.array([f"{i}," for i in range(max(probs.shape))], dtype=object)
    with open(path, "w") as fh:
        fh.write(("s,prob\n", "s,t,prob\n")[f.probs.ndim - 1])
        step = max(1, _WRITE_CELLS // probs.shape[1])
        for first in range(0, len(probs), step):
            i, j = np.nonzero(probs[first : first + step] > 0)
            values, inverse = np.unique(probs[first + i, j].astype(float), return_inverse=True)
            texts = np.array([repr(v) + "\n" for v in values.tolist()], dtype=object)
            fields = (ints[first + i], ints[j])[2 - f.probs.ndim :] + (texts[inverse],)
            fh.write("".join(np.stack(fields, axis=1).ravel().tolist()))
        fh.write(f"# mass_defect={float(f.mass_defect)!r}\n")


def pmf1d_from_csv(path) -> Pmf1D:
    """Read a pmf_to_csv file of a 1-D law.  ValueError if a line after the
    header is not `s,prob` with 0 <= s <= _MAX_SUPPORT and 0 <= prob <= 1,
    if a support point appears twice, or if the mass is not 1."""
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
                if not 0.0 <= entries[int(s)] <= 1.0:  # refuses inf and nan too
                    raise ValueError(f"probability {p} at support point {s} is not in [0, 1]")
    if min(entries, default=0) < 0:
        raise ValueError(f"negative support point {min(entries)}")
    if max(entries, default=0) > _MAX_SUPPORT:
        raise ValueError(f"support point {max(entries)} is beyond the longest law, {_MAX_SUPPORT}")
    probs = np.zeros(max(entries, default=0) + 1)
    probs[list(entries)] = list(entries.values())
    return Pmf1D(probs, defect)
