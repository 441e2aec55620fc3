"""Closed-form limiting laws of the superposition model.

Everything here is a deterministic function of the limiting layer-type
distribution and the layers-per-node ratio mu: the compound Poisson degree
law, the limiting bidegree law and its correlation functionals, moment
identities, and power-law tail predictions.  Infinite-support laws are
truncated at a stated tail tolerance and carry their mass defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolation, RateUnderflow, check_memory
from .layers import LayerTypeDistribution, cross_moment, edge_biased_distribution, edge_mass
from .pmf import _MAX_SUPPORT, Pmf, functionals

_BLOCK_ENTRIES = 1 << 14  # binomial pmf values evaluated at once; bounds temporaries
DEFAULT_TAIL_EPSILON = 1e-10  # tail mass a truncated degree law may leave out


@dataclass(frozen=True)
class LimitParams:
    mu: float
    dist: LayerTypeDistribution
    tail_epsilon: float = DEFAULT_TAIL_EPSILON

    def __post_init__(self):
        if not 0.0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if not 0.0 < self.tail_epsilon < 1.0:
            raise ValueError(f"tail_epsilon must be in (0,1), got {self.tail_epsilon}")


def _windows(trials, strengths):
    """First index and length of each Bin(trials, strengths) row's window,
    10 sd plus 8 either side of the mean.  For trials <= 1e7 and strengths
    in [1e-9, 1 - 1e-9] it leaves out at most 3.2e-18 of the row's mass."""
    sd = np.sqrt(trials * strengths * (1.0 - strengths))
    lo = np.maximum(0, (trials * strengths - 10 * sd - 8).astype(np.int64))
    length = np.minimum(trials, (trials * strengths + 10 * sd + 8).astype(np.int64)) - lo + 1
    return lo, length


def _binomial_windows(trials, strengths):
    """Yield (row, k, P(Bin(trials[row], strengths[row]) = k)) arrays over
    each atom's window, in row-major blocks of about _BLOCK_ENTRIES values.

    A block is padded to its longest window.  Along each row the pmf is the
    running product of P(k)/P(k-1) = (n-k+1)p / (kq) from 1 at the
    window's first index, divided by its sum, which is exact because the
    window holds all the row's mass.  A row with p = 1 is a point mass at k = n."""
    lo, length = _windows(trials, strengths)
    step = max(1, _BLOCK_ENTRIES // int(length.max(initial=1)))
    for first in range(0, len(length), step):
        part = slice(first, first + step)
        n, p = trials[part, None], strengths[part, None]
        j = np.arange(int(length[part].max()))
        k = lo[part, None] + j
        inside = j < length[part, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(inside, (n + 1.0 - k) * (p / (1.0 - p)) / k, 0.0)  # P(k) / P(k-1)
            ratio[:, 0] = 1.0
            pmf = np.where(p == 1.0, k == n, np.cumprod(ratio, axis=1))
        pmf /= pmf.sum(axis=1, keepdims=True)
        row = np.repeat(np.arange(first, first + len(n)), length[part])
        yield row, k[inside], pmf[inside]


def _check_budget(k: int, width: int) -> None:
    # bytes of F'_2, T, T^T F'_2, the width x width joint law and the sum that symmetrises it
    check_memory(8 * ((k + width) ** 2 + width**2), "bidegree law")


def _own_layer(dist: LayerTypeDistribution, joint: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """The law m' of the extra degree D' that an edge's own layer gives one
    endpoint and, if joint, the joint law F'_2 of the two endpoints' D'.

    Given the edge-biased layer type (X, Y) they are independent Bin(X-2, Y)
    draws, so m' = sum_a p_a r_a and F'_2 = sum_a p_a r_a (x) r_a over the
    windowed rows r_a, both from one pass over the rows; F'_2 is summed a
    block of rows at a time over the block's own index range, and is exact
    and symmetric.  m' is summed the same way whether or not F'_2 is built.
    Both are on the support 0..K-1, K one past the largest window end.
    With joint, raises MemoryBudgetExceeded first if the bidegree law would
    not fit even with a one-point degree law.
    """
    biased = edge_biased_distribution(dist)
    trials = biased.sizes - 2
    lo, length = _windows(trials, biased.strengths)
    k = int((lo + length).max())
    if joint:
        _check_budget(k, k + 1)
    check_memory(8 * k, "own-layer law")
    root = np.sqrt(biased.probs)
    marginal = np.zeros(k)
    fp2 = np.zeros((k, k)) if joint else None
    for row, kk, pmf in _binomial_windows(trials, biased.strengths):
        lo, hi = kk.min(), kk.max() + 1
        marginal[lo:hi] += np.bincount(kk - lo, weights=biased.probs[row] * pmf)
        if joint:
            slab = np.zeros((row[-1] - row[0] + 1, hi - lo))
            slab[row - row[0], kk - lo] = root[row] * pmf
            fp2[lo:hi, lo:hi] += slab.T @ slab
    return marginal, fp2


def _degree_law(nu: float, marginal: np.ndarray, tail_epsilon: float) -> Pmf:
    """The limiting degree law f1 from the mean degree nu = mu * P_21 and
    the own-layer law m', by the recursion
        f(0) = exp(-nu sum_j m'(j) / (j + 1)),
        f(s) = (nu / s) * sum_{j=0}^{s-1} m'(j) f(s - 1 - j),
    truncated at the smallest support s where the remaining tail mass
    1 - sum f drops below tail_epsilon, or where the tail T past s is
    provably at most tail_epsilon: s >= 2 nu and the last len(m') values
    each at most tail_epsilon / len(m'), so that, as sum m' = 1,
    T <= (T + tail_epsilon) / 2 (derived, not quoted).  Rounding keeps
    1 - sum f above a tail_epsilon below about 1e-14, so only this stop
    ends such a law.  The recorded mass defect is 1 - sum f, which
    exceeds tail_epsilon honestly there and if the support cap is hit
    first (heavy-tailed layers).  RateUnderflow if f(0) is 0, as it is
    at nu = inf.

    f1 is compound Poisson with rate mu * P_10 and increments from the
    Bin(x-1, y) laws weighted by x * P(x, y).  Its standard recursion
    f(s) = (lam / s) * sum_k k g(k) f(s - k) becomes the one above by
    k Bin(x-1, y)(k) = (x-1) y Bin(x-2, y)(k-1) (derived, not quoted).
    """
    acc = math.exp(-nu * float(marginal @ (1.0 / np.arange(1, len(marginal) + 1))))
    if acc == 0.0:
        raise RateUnderflow(f"f(0) = exp(-nu sum_j m'(j) / (j + 1)) underflows to 0 at nu = {nu:g}")
    f = np.zeros(1024)  # doubled when full
    f[0] = acc
    s = last_big = 0  # last_big: the last s with f(s) > tail_epsilon / len(m')
    while 1.0 - acc >= tail_epsilon and s < _MAX_SUPPORT and (s < 2 * nu or s - last_big < len(marginal)):
        s += 1
        if s == len(f):
            f = np.concatenate([f, np.zeros(len(f))])
        lo = max(0, s - len(marginal))
        # a contiguous reversed copy: a strided view changes the dot's last bits
        val = (nu / s) * float(marginal[: s - lo] @ f[lo:s][::-1].copy())
        f[s] = val
        acc += val
        if val > tail_epsilon / len(marginal):
            last_big = s
    probs = f[: s + 1]
    return Pmf(probs, mass_defect=max(0.0, 1.0 - math.fsum(probs.tolist())))


def limiting_degree_pmf(params: LimitParams) -> Pmf:
    """The limiting degree law f1, from the own-layer law m' alone; the
    point mass at 0 if no layer can make an edge (P_21 = 0)."""
    p21 = cross_moment(params.dist, 2, 1)
    if p21 <= 0.0:
        return Pmf(np.array([1.0]))
    return _degree_law(params.mu * p21, _own_layer(params.dist, joint=False)[0], params.tail_epsilon)


def limiting_laws(params: LimitParams) -> tuple[Pmf, Pmf]:
    """The limiting degree law f1 and the joint degree law f2 of the
    endpoints of a random edge, from one pass over the binomial rows.

    f2 is (1,1) plus independent D1, D2 ~ f1 plus the own-layer pair F'_2,
    i.e. T^T F'_2 T with T the K x (len(f1) + K) Toeplitz matrix
    T[u, 1 + u + j] = f1(j); its zero first column is the (1,1) shift.  f2
    is exactly symmetric, as the two endpoints are exchangeable.  f1 comes
    from the same m' as in limiting_degree_pmf, so it is the same law bit
    for bit.  F'_2's budget check comes first: it is cheap, and the degree
    law can take seconds.
    """
    marginal, fp2 = _own_layer(params.dist, joint=True)
    f1 = _degree_law(params.mu * edge_mass(params.dist), marginal, params.tail_epsilon)
    k = len(fp2)
    width = len(f1.probs) + k
    _check_budget(k, width)
    t = np.lib.stride_tricks.sliding_window_view(np.pad(f1.probs, (k, k - 1)), width)[::-1].copy()
    joint = t.T @ fp2 @ t
    joint = (joint + joint.T) / 2  # the matrix products leave f2 asymmetric in the last bits
    return f1, Pmf(joint, mass_defect=max(0.0, 1.0 - float(joint.sum())))


@dataclass(frozen=True)
class MomentReport:
    """Moment identities of the limiting laws, all from cross moments."""

    e_h: float          # mean increment
    e_h2: float
    e_h3: float
    e_d: float          # mean limiting degree
    var_d: float
    e_dstar3: float     # third moment of the size-biased degree
    e_dprime: float     # own-layer extra degree
    e_dprime2: float
    var_dprime: float
    cov_dprime: float   # between the two endpoints

    @property
    def assortativity(self) -> float:
        """Pearson correlation of the limiting bidegree law.  Each endpoint degree is 1 + D + D',
        with D independent and D' from the edge's own layer, so only the D' pair covaries."""
        return self.cov_dprime / (self.var_d + self.var_dprime)


def limiting_moments(params: LimitParams) -> MomentReport:
    p21 = edge_mass(params.dist)  # P_21 > 0 needs a layer of two nodes, so P_10 > 0
    p10, p32, p33, p43 = (cross_moment(params.dist, r, s) for r, s in ((1, 0), (3, 2), (3, 3), (4, 3)))
    mu = params.mu
    nu = mu * p21  # the mean degree, so that e_dstar3 forms no mu**2
    e_h = p21 / p10
    e_h2 = (p21 + p32) / p10
    e_h3 = (p21 + 3 * p32 + p43) / p10
    lam = mu * p10
    e_dprime = p32 / p21
    e_dprime2 = (p43 + p32) / p21
    return MomentReport(
        e_h=e_h,
        e_h2=e_h2,
        e_h3=e_h3,
        e_d=lam * e_h,
        var_d=lam * e_h2,
        e_dstar3=mu * (p21 + 3 * p32 + p43) + 3 * nu * (mu * (p21 + p32)) + nu**3,
        e_dprime=e_dprime,
        e_dprime2=e_dprime2,
        var_dprime=e_dprime2 - e_dprime**2,
        cov_dprime=(p43 + p33) / p21 - e_dprime**2,
    )


def limit_values(params: LimitParams, metrics) -> tuple[dict, Pmf | None, Pmf | None]:
    """The limit values of the named metrics: the closed-form assortativity,
    then kendall and spearman of f2, each if named, then the moment report
    the assortativity is read from; and the laws f1 and f2 that the
    metrics read (tv2, kendall and spearman both, tv1 f1; None if unread)."""
    metrics = set(metrics)
    f1 = f2 = None
    if {"tv2", "kendall", "spearman"} & metrics:
        f1, f2 = limiting_laws(params)
    elif "tv1" in metrics:
        f1 = limiting_degree_pmf(params)
    moments = limiting_moments(params) if "assortativity" in metrics else None
    values = {"assortativity": moments.assortativity} if moments else {}
    values.update(functionals(f2, [name for name in ("kendall", "spearman") if name in metrics]))
    if moments:
        values["moments"] = vars(moments)
    return values, f1, f2


def tail_prediction(mu: float, dist: LayerTypeDistribution) -> dict:
    """{"marginal_exponent", "c_prime", "c_double_prime"}: the power-law tail exponent and constants
    of the limiting bidegree law of the power_law layer law dist, read from its alpha, beta and b.

    The amplitude pmf(x_max) * x_max**alpha of the size pmf is taken from the exact normalization
    of the concrete truncated distribution.  power_law itself holds alpha > 2 and 0 <= beta < 1;
    the other violated hypotheses are reported together.
    """
    if dist.family != "power_law":
        raise ValueError(f"tail predictions need a power_law layer law, got {dist.family}")
    LimitParams(mu, dist)  # raises for a mu that is not positive and finite
    alpha, beta, b = dist.params["alpha"], dist.params["beta"], dist.params["b"]
    violations = []
    if not alpha + beta > 3:
        violations.append(f"alpha + beta > 3 fails (alpha + beta = {alpha + beta})")
    if beta == 0.0 and not b < 1.0:
        violations.append(f"b < 1 required when beta = 0 (b = {b})")
    if violations:
        raise HypothesisViolation("; ".join(violations))
    p21 = edge_mass(dist)
    exponent = (alpha - 2) / (1 - beta)
    try:
        a = float(dist.probs[-1]) * float(dist.params["x_max"]) ** alpha
        pred = {"marginal_exponent": exponent, "c_prime": a * b**exponent / ((1 - beta) * p21),
                "c_double_prime": mu * a**2 * b ** (2 * exponent) / ((1 - beta) ** 2 * p21)}
        if not all(map(math.isfinite, pred.values())):
            raise OverflowError  # a float product that overflows is inf, not an error
        return pred
    except OverflowError:
        raise ValueError(f"tail constants overflow a double at mu = {mu:g}, alpha = {alpha}, b = {b}") from None
