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
    RateUnderflow,
    ZeroDenominator,
    ZeroEdgeMass,
    ZeroP10,
    check_memory,
)
from .layers import (
    CrossMoments,
    LayerTypeDistribution,
    cross_moment,
    edge_biased_distribution,
)
from .pmf import _MAX_SUPPORT, Pmf1D, Pmf2D

_BLOCK_ENTRIES = 1 << 14  # binomial pmf values evaluated at once; bounds temporaries
DEFAULT_TAIL_EPSILON = 1e-10  # tail mass a truncated degree law may leave out


@dataclass(frozen=True)
class LimitParams:
    mu: float
    dist: LayerTypeDistribution
    tail_epsilon: float = DEFAULT_TAIL_EPSILON

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
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


def _binomial_windows(trials, strengths, weights):
    """Yield (row, k, weights[row] * P(Bin(trials[row], strengths[row]) = k))
    arrays over each atom's window, in row-major blocks of about _BLOCK_ENTRIES values.

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
        yield row, k[inside], weights[row] * pmf[inside]


def increment_pmf(params: LimitParams) -> Pmf1D:
    """Size of one layer's degree contribution at a node it contains.

    A finite mixture of Bin(x-1, y) laws weighted by x * P(x, y); exact,
    on the support up to the largest window end.
    """
    dist = params.dist
    p10 = cross_moment(dist, 1, 0)
    if p10 <= 0.0:
        raise ZeroP10("increment law undefined: mean layer size is zero")
    keep = (dist.sizes > 0) & (dist.probs > 0)
    x, y = dist.sizes[keep], dist.strengths[keep]
    lo, length = _windows(x - 1, y)
    size = int((lo + length).max())
    check_memory(8 * size, "increment law")
    out = np.zeros(size)
    for _, k, value in _binomial_windows(x - 1, y, x * dist.probs[keep] / p10):
        out += np.bincount(k, weights=value, minlength=size)
    return Pmf1D(out)


def compound_poisson_pmf(lam: float, g: Pmf1D, tail_epsilon: float = DEFAULT_TAIL_EPSILON) -> Pmf1D:
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
    acc = math.exp(-lam * (1.0 - gk[0]))
    if acc == 0.0:
        raise RateUnderflow(f"f(0) = exp(-lam (1 - g(0))) underflows to 0 at rate {lam:g}")
    f = np.zeros(1024)  # doubled when full
    f[0] = acc
    s = 0
    while 1.0 - acc >= tail_epsilon and s < _MAX_SUPPORT:
        s += 1
        if s == len(f):
            f = np.concatenate([f, np.zeros(len(f))])
        lo = max(0, s - len(gk) + 1)
        # a contiguous reversed copy: a strided view changes the dot's last bits
        val = (lam / s) * float(kk[1 : s - lo + 1] @ f[lo:s][::-1].copy())
        f[s] = val
        acc += val
    probs = f[: s + 1]
    return Pmf1D(probs, mass_defect=max(0.0, 1.0 - math.fsum(probs.tolist())))


def limiting_degree_pmf(params: LimitParams) -> Pmf1D:
    """Compound Poisson degree law with rate mu * P_10."""
    p10 = cross_moment(params.dist, 1, 0)
    if p10 <= 0.0:
        raise ZeroP10("degree limit undefined: mean layer size is zero")
    g = increment_pmf(params)
    return compound_poisson_pmf(params.mu * p10, g, params.tail_epsilon)


def _check_budget(k: int, width: int) -> None:
    # bytes of F'_2, T, T^T F'_2 and the width x width joint law
    check_memory(8 * (k + width) ** 2, "bidegree law")


def fprime2_pmf(params: LimitParams) -> Pmf2D:
    """Joint law of the two extra degrees produced by an edge's own layer.

    Mixture of Bin(x-2, y) x Bin(x-2, y) products over the edge-biased layer
    law on the K x K windowed support, a block of rows at a time; exact and
    symmetric.  K is one past the largest window end.  Raises
    MemoryBudgetExceeded first if the bidegree law would not fit even with
    a one-point degree law.
    """
    biased = edge_biased_distribution(params.dist)
    lo, length = _windows(biased.sizes - 2, biased.strengths)
    k = int((lo + length).max())
    _check_budget(k, k + 1)
    out = np.zeros((k, k))
    for row, kk, value in _binomial_windows(biased.sizes - 2, biased.strengths, np.sqrt(biased.probs)):
        lo, hi = kk.min(), kk.max() + 1
        slab = np.zeros((row[-1] - row[0] + 1, hi - lo))
        slab[row - row[0], kk - lo] = value
        out[lo:hi, lo:hi] += slab.T @ slab
    return Pmf2D(out)


def limiting_laws(params: LimitParams) -> tuple[Pmf1D, Pmf2D]:
    """The limiting degree law f1 and the joint degree law f2 of the
    endpoints of a random edge.

    f2 is (1,1) plus independent D1, D2 ~ f1 plus the own-layer pair F'_2 =
    fprime2_pmf(params), i.e. T^T F'_2 T with T the K x (len(f1) + K)
    Toeplitz matrix T[u, 1 + u + j] = f1(j); its zero first column is the
    (1,1) shift.  F'_2 comes first: its budget check is cheap, and the
    degree law can take seconds.
    """
    fp2 = fprime2_pmf(params).probs
    f1 = limiting_degree_pmf(params)
    k = len(fp2)
    width = len(f1.probs) + k
    _check_budget(k, width)
    t = np.lib.stride_tricks.sliding_window_view(np.pad(f1.probs, (k, k - 1)), width)[::-1].copy()
    joint = t.T @ fp2 @ t
    return f1, Pmf2D(joint, mass_defect=max(0.0, 1.0 - float(joint.sum())))


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
    p21 = cross_moment(dist, 2, 1)
    if p21 <= 0.0:
        raise ZeroEdgeMass("tail constants undefined: P_21 = 0")
    exponent = (alpha - 2) / (1 - beta)
    try:
        a = dist.normalization_amplitude()
        return TailPrediction(
            marginal_exponent=exponent,
            c_prime=a * b**exponent / ((1 - beta) * p21),
            c_double_prime=mu * a**2 * b ** (2 * exponent) / ((1 - beta) ** 2 * p21),
        )
    except OverflowError:
        raise ValueError(f"tail constants overflow a double at alpha = {alpha}, b = {b}") from None
