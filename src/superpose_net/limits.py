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

from .errors import (
    HypothesisViolation,
    InvalidLambda,
    MemoryBudgetExceeded,
    RateUnderflow,
    ZeroDenominator,
    ZeroEdgeMass,
    ZeroP10,
)
from .layers import (
    CrossMoments,
    LayerTypeDistribution,
    cross_moment,
    edge_biased_distribution,
)
from .pmf import _MAX_SUPPORT, Pmf1D, Pmf2D

_BLOCK_ENTRIES = 1 << 14  # binomial pmf values evaluated at once; bounds temporaries
_MAX_BIDEGREE_BYTES = 1 << 30


@dataclass(frozen=True)
class LimitParams:
    mu: float
    dist: LayerTypeDistribution
    tail_epsilon: float = 1e-10

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not 0.0 < self.tail_epsilon < 1.0:
            raise ValueError(f"tail_epsilon must be in (0,1), got {self.tail_epsilon}")


# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n/e)^n) for n = 1..15; 0 at n = 0
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


def _stirlerr(n):
    """Error of Stirling's formula for log(n!): the table up to 15, the
    series 1/12n - 1/360n^3 + 1/1260n^5 - 1/1680n^7 + 1/1188n^9 above."""
    r = 1.0 / n
    rr = r * r
    out = r * (1 / 12 - rr * (1 / 360 - rr * (1 / 1260 - rr * (1 / 1680 - rr / 1188))))
    small = n <= 15
    out[small] = _STIRLERR[n[small]]
    return out


def _bd0(x, m):
    """x log(x/m) + m - x.  Where |v| < 0.1, v = (x-m)/(x+m), it is summed
    as (x-m) v + 2x (v^3/3 + v^5/5 + ... + v^17/17), which is free of the
    closed form's cancellation near x = m; the omitted terms are below
    2e-18 of the sum."""
    d = x - m
    v = d / (x + m)
    w = v * v
    tail = 1 / 17
    for j in range(7, 0, -1):
        tail = 1 / (2 * j + 1) + w * tail
    series = d * v + 2 * x * v * w * tail
    return np.where(np.abs(v) < 0.1, series, x * np.log(x / m) + m - x)


def _binom_pmf(k, trials, p):
    """P(Bin(trials, p) = k) elementwise for 0 <= k <= trials, in Loader's
    saddle-point form ("Fast and accurate computation of binomial
    probabilities", 2000), the one R's dbinom uses: for 0 < k < n and
    0 < p < 1, exp(stirlerr(n) - stirlerr(k) - stirlerr(n-k) - bd0(k, np)
    - bd0(n-k, nq)) / sqrt(2 pi k (n-k) / n); q^n at k = 0, p^n at k = n."""
    out = np.zeros(len(k))
    with np.errstate(divide="ignore", invalid="ignore"):
        low = k == 0
        out[low] = np.exp(trials[low] * np.log1p(-p[low]))
        high = (k == trials) & ~low
        out[high] = np.exp(trials[high] * np.log(p[high]))
    out[trials == 0] = 1.0
    mid = (0 < k) & (k < trials) & (0 < p) & (p < 1)
    k, n, p = k[mid], trials[mid], p[mid]
    x, nf = k.astype(float), n.astype(float)
    lc = _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(x, nf * p) - _bd0(nf - x, nf * (1 - p))
    out[mid] = np.exp(lc) / np.sqrt(2 * np.pi * x * (1 - x / nf))
    return out


def _windows(trials, strengths):
    """First index and length of each Bin(trials, strengths) row's 10-sigma
    window, whose omitted mass is below double precision."""
    sd = np.sqrt(trials * strengths * (1.0 - strengths))
    lo = np.maximum(0, (trials * strengths - 10 * sd - 5).astype(np.int64))
    length = np.minimum(trials, (trials * strengths + 10 * sd + 5).astype(np.int64)) - lo + 1
    return lo, length


def _binomial_windows(trials, strengths, weights):
    """Yield (row, k, weights[row] * P(Bin(trials[row], strengths[row]) = k))
    arrays over each atom's window, in row-major blocks of about _BLOCK_ENTRIES values."""
    lo, length = _windows(trials, strengths)
    shift = lo + length - np.cumsum(length)  # k minus the flat position of its value
    step = max(1, _BLOCK_ENTRIES // int(length.max(initial=1)))
    for first in range(0, len(length), step):
        row = np.repeat(np.arange(first, min(first + step, len(length))), length[first : first + step])
        k = shift[row] - shift[first] + lo[first] + np.arange(len(row))
        yield row, k, weights[row] * _binom_pmf(k, trials[row], strengths[row])


def increment_pmf(params: LimitParams) -> Pmf1D:
    """Size of one layer's degree contribution at a node it contains.

    A finite mixture of Bin(x-1, y) laws weighted by x * P(x, y); exact.
    """
    dist = params.dist
    p10 = cross_moment(dist, 1, 0)
    if p10 <= 0.0:
        raise ZeroP10("increment law undefined: mean layer size is zero")
    keep = (dist.sizes > 0) & (dist.probs > 0)
    x = dist.sizes[keep]
    out = np.zeros(max(dist.max_size - 1, 0) + 1)
    for _, k, value in _binomial_windows(x - 1, dist.strengths[keep], x * dist.probs[keep] / p10):
        out += np.bincount(k, weights=value, minlength=len(out))
    return Pmf1D(out)


def compound_poisson_pmf(lam: float, g: Pmf1D, tail_epsilon: float = 1e-10) -> Pmf1D:
    """Law of a Poisson(lam)-indexed sum of iid g-distributed increments.

    Evaluated by the standard recursion
        f(0) = exp(-lam (1 - g(0))),
        f(s) = (lam / s) * sum_{k=1}^{s} k g(k) f(s - k),
    truncated at the smallest support where the remaining tail mass drops
    below tail_epsilon.  If the support cap is hit first (heavy-tailed
    increments), the recorded mass defect exceeds tail_epsilon honestly.
    """
    if lam <= 0.0 or not math.isfinite(lam):
        raise InvalidLambda(f"rate must be positive and finite, got {lam}")
    gk = np.trim_zeros(g.probs, "b")
    if len(gk) == 0:
        raise ValueError("increment pmf carries no mass")
    if len(gk) == 1:
        return Pmf1D(np.array([1.0]))  # all increments are zero
    kk = np.arange(len(gk)) * gk
    f = [math.exp(-lam * (1.0 - gk[0]))]
    if f[0] == 0.0:
        raise RateUnderflow(f"f(0) = exp(-lam (1 - g(0))) underflows to 0 at rate {lam:g}")
    acc = f[0]
    s = 0
    while 1.0 - acc >= tail_epsilon and s < _MAX_SUPPORT:
        s += 1
        lo = max(0, s - len(gk) + 1)
        window = np.asarray(f[lo:s][::-1])
        val = (lam / s) * float(kk[1 : s - lo + 1] @ window)
        f.append(val)
        acc += val
    probs = np.array(f)
    return Pmf1D(probs, mass_defect=max(0.0, 1.0 - math.fsum(f)))


def limiting_degree_pmf(params: LimitParams) -> Pmf1D:
    """Compound Poisson degree law with rate mu * P_10."""
    p10 = cross_moment(params.dist, 1, 0)
    if p10 <= 0.0:
        raise ZeroP10("degree limit undefined: mean layer size is zero")
    g = increment_pmf(params)
    return compound_poisson_pmf(params.mu * p10, g, params.tail_epsilon)


def _check_budget(k: int, width: int) -> None:
    need = 8 * (k + width) ** 2  # bytes of F'_2, T, T^T F'_2 and the width x width joint law
    if need > _MAX_BIDEGREE_BYTES:
        raise MemoryBudgetExceeded(
            f"bidegree law needs {need / 2**30:.1f} GiB, over the {_MAX_BIDEGREE_BYTES / 2**30:g} GiB budget"
        )


def check_bidegree_budget(params: LimitParams) -> tuple[LayerTypeDistribution, int]:
    """Raise MemoryBudgetExceeded if the bidegree law would not fit even
    with a one-point degree law: the cheap check to run before
    limiting_degree_pmf.  Return the edge-biased layer law and K, one past
    the largest index of its windowed Bin(x-2, y) rows."""
    biased = edge_biased_distribution(params.dist)
    lo, length = _windows(biased.sizes - 2, biased.strengths)
    k = int((lo + length).max())
    _check_budget(k, k + 1)
    return biased, k


def fprime2_pmf(params: LimitParams) -> Pmf2D:
    """Joint law of the two extra degrees produced by an edge's own layer.

    Mixture of Bin(x-2, y) x Bin(x-2, y) products over the edge-biased layer
    law on the K x K windowed support, a block of rows at a time; exact and symmetric.
    """
    biased, k = check_bidegree_budget(params)
    out = np.zeros((k, k))
    for row, kk, value in _binomial_windows(biased.sizes - 2, biased.strengths, np.sqrt(biased.probs)):
        lo, hi = kk.min(), kk.max() + 1
        slab = np.zeros((row[-1] - row[0] + 1, hi - lo))
        slab[row - row[0], kk - lo] = value
        out[lo:hi, lo:hi] += slab.T @ slab
    return Pmf2D(out)


def limiting_bidegree_pmf(params: LimitParams, f1: Pmf1D | None = None) -> Pmf2D:
    """Joint degree law of the endpoints of a random edge, in the limit.

    (1,1) plus independent D1, D2 ~ f1 plus the own-layer pair F'_2 =
    fprime2_pmf(params), i.e. T^T F'_2 T with T the K x (len(f1) + K)
    Toeplitz matrix T[u, 1 + u + j] = f1(j); its zero first column is the
    (1,1) shift.  Pass f1 = limiting_degree_pmf(params) when it is at hand.
    """
    fp2 = fprime2_pmf(params).probs  # checks the budget before the degree law
    if f1 is None:
        f1 = limiting_degree_pmf(params)
    k = len(fp2)
    width = len(f1.probs) + k
    _check_budget(k, width)
    t = np.lib.stride_tricks.sliding_window_view(np.pad(f1.probs, (k, k - 1)), width)[::-1].copy()
    joint = t.T @ fp2 @ t
    return Pmf2D(joint, mass_defect=max(0.0, 1.0 - float(joint.sum())))


def limiting_assortativity(params: LimitParams) -> float:
    """Pearson correlation of the limiting bidegree law, in closed form."""
    cm = CrossMoments.of(params.dist)
    num = cm.p21 * (cm.p43 + cm.p33) - cm.p32**2
    den = (
        cm.p21 * (cm.p43 + cm.p32)
        - cm.p32**2
        + params.mu * cm.p21**2 * (cm.p21 + cm.p32)
    )
    if den <= 0.0:
        raise ZeroDenominator("assortativity denominator vanishes")
    return num / den


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


def limiting_moments(params: LimitParams) -> MomentReport:
    cm = CrossMoments.of(params.dist)
    if cm.p10 <= 0.0:
        raise ZeroP10("moments undefined: mean layer size is zero")
    if cm.p21 <= 0.0:
        raise ZeroEdgeMass("moments undefined: P_21 = 0")
    mu = params.mu
    e_h = cm.p21 / cm.p10
    e_h2 = (cm.p21 + cm.p32) / cm.p10
    e_h3 = (cm.p21 + 3 * cm.p32 + cm.p43) / cm.p10
    lam = mu * cm.p10
    e_dprime = cm.p32 / cm.p21
    e_dprime2 = (cm.p43 + cm.p32) / cm.p21
    return MomentReport(
        e_h=e_h,
        e_h2=e_h2,
        e_h3=e_h3,
        e_d=lam * e_h,
        var_d=lam * e_h2,
        e_dstar3=(
            mu * (cm.p21 + 3 * cm.p32 + cm.p43)
            + 3 * mu**2 * (cm.p21 + cm.p32) * cm.p21
            + mu**3 * cm.p21**3
        ),
        e_dprime=e_dprime,
        e_dprime2=e_dprime2,
        var_dprime=e_dprime2 - e_dprime**2,
        cov_dprime=(cm.p43 + cm.p33) / cm.p21 - e_dprime**2,
    )


@dataclass(frozen=True)
class TailPrediction:
    marginal_exponent: float
    c_prime: float
    c_double_prime: float


def tail_prediction(
    alpha: float,
    beta: float,
    b: float,
    mu: float,
    dist: LayerTypeDistribution,
) -> TailPrediction:
    """Power-law tail exponent and constants of the limiting bidegree law.

    The amplitude of the size pmf is taken from the exact normalization of
    the concrete truncated distribution.  All violated hypotheses are
    reported together.
    """
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    violations = []
    if not alpha > 2:
        violations.append(f"alpha > 2 fails (alpha = {alpha})")
    if not 0.0 <= beta < 1.0:
        violations.append(f"beta in [0, 1) fails (beta = {beta})")
    if not alpha + beta > 3:
        violations.append(f"alpha + beta > 3 fails (alpha + beta = {alpha + beta})")
    if beta == 0.0 and not b < 1.0:
        violations.append(f"b < 1 required when beta = 0 (b = {b})")
    if violations:
        raise HypothesisViolation(violations)
    a = dist.normalization_amplitude()
    p21 = cross_moment(dist, 2, 1)
    exponent = (alpha - 2) / (1 - beta)
    return TailPrediction(
        marginal_exponent=exponent,
        c_prime=a * b**exponent / ((1 - beta) * p21),
        c_double_prime=mu * a**2 * b ** (2 * exponent) / ((1 - beta) ** 2 * p21),
    )
