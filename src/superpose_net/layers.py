"""Layer-type distributions: joint laws of layer size and link strength.

A layer type is a pair (size, strength): the number of nodes a layer touches
and the probability with which it links each of its node pairs.  All
distributions here are finitely supported, so every moment and reweighting
is computed exactly by summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroEdgeMass

_PROB_TOL = 1e-12


def falling_factorial(x: int, r: int) -> int:
    """(x)_r = x (x-1) ... (x-r+1), zero when x < r."""
    out = 1
    for i in range(r):
        out *= x - i
    return out


@dataclass(frozen=True)
class LayerType:
    size: int
    strength: float

    def __post_init__(self):
        if not float(self.size).is_integer() or self.size < 0:
            raise ValueError(f"layer size must be an integer >= 0, got {self.size}")
        if not 0.0 <= self.strength <= 1.0:
            raise ValueError(f"layer strength must be in [0,1], got {self.strength}")


@dataclass(frozen=True)
class LayerTypeDistribution:
    """Finitely supported joint law of (size, strength).

    Families:
      constant   -- a single atom
      tabular    -- explicit list of (size, strength, probability) atoms
      power_law  -- sizes on [x_min, x_max] with pmf proportional to
                    x**(-alpha), strength q(x) = min(1, b * x**(-beta))

    Atoms with identical (size, strength) are merged at construction.
    """

    family: str
    sizes: np.ndarray = field(repr=False)
    strengths: np.ndarray = field(repr=False)
    probs: np.ndarray = field(repr=False)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        total = math.fsum(self.probs.tolist())
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"atom probabilities sum to {total}, not 1")
        if np.any(self.probs < 0):
            raise ValueError("negative atom probability")
        if np.any(self.sizes < 0):
            raise ValueError("negative layer size")
        if np.any((self.strengths < 0) | (self.strengths > 1)):
            raise ValueError("layer strength outside [0,1]")
        # precompute the sampling cdf once; object is immutable afterwards
        object.__setattr__(self, "_cdf", np.cumsum(self.probs))

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(size: int, strength: float) -> "LayerTypeDistribution":
        LayerType(size, strength)
        return LayerTypeDistribution(
            family="constant",
            sizes=np.array([size], dtype=np.int64),
            strengths=np.array([strength], dtype=float),
            probs=np.array([1.0]),
            params={"size": size, "strength": strength},
        )

    @staticmethod
    def tabular(atoms) -> "LayerTypeDistribution":
        """atoms: iterable of (size, strength, probability)."""
        merged: dict[tuple[int, float], float] = {}
        for size, strength, p in atoms:
            LayerType(size, strength)
            key = (int(size), float(strength))
            merged[key] = merged.get(key, 0.0) + float(p)
        keys = sorted(merged)
        return LayerTypeDistribution(
            family="tabular",
            sizes=np.array([k[0] for k in keys], dtype=np.int64),
            strengths=np.array([k[1] for k in keys], dtype=float),
            probs=np.array([merged[k] for k in keys], dtype=float),
        )

    @staticmethod
    def power_law(alpha: float, beta: float, b: float, x_min: int, x_max: int) -> "LayerTypeDistribution":
        """Truncated discrete power law, exactly normalized on [x_min, x_max]."""
        if alpha <= 2:
            raise ValueError(f"alpha must exceed 2, got {alpha}")
        if not 0.0 <= beta < 1.0:
            raise ValueError(f"beta must be in [0,1), got {beta}")
        if b <= 0:
            raise ValueError(f"b must be positive, got {b}")
        if not (float(x_min).is_integer() and float(x_max).is_integer() and 1 <= x_min <= x_max):
            raise ValueError(f"need integers 1 <= x_min <= x_max, got [{x_min}, {x_max}]")
        sizes = np.arange(x_min, x_max + 1, dtype=np.int64)
        weights = sizes.astype(float) ** (-alpha)
        probs = weights / math.fsum(weights.tolist())
        strengths = np.minimum(1.0, b * sizes.astype(float) ** (-beta))
        return LayerTypeDistribution(
            family="power_law",
            sizes=sizes,
            strengths=strengths,
            probs=probs,
            params={"alpha": alpha, "beta": beta, "b": b, "x_min": x_min, "x_max": x_max},
        )

    # -- queries ----------------------------------------------------------

    @property
    def max_size(self) -> int:
        return int(self.sizes.max(initial=0))

    def atoms(self):
        """Iterate (size, strength, probability) triples."""
        for x, y, p in zip(self.sizes.tolist(), self.strengths.tolist(), self.probs.tolist()):
            yield x, y, p

    def normalization_amplitude(self) -> float:
        """pmf(x_max) * x_max**alpha for the power_law family.

        Reports the amplitude implied by exact normalization of the
        truncated law; only defined for power_law distributions.
        """
        if self.family != "power_law":
            raise ValueError("amplitude is defined for the power_law family only")
        alpha = self.params["alpha"]
        x_max = self.params["x_max"]
        i = int(np.searchsorted(self.sizes, x_max))
        return float(self.probs[i]) * float(x_max) ** alpha


def cross_moment(dist: LayerTypeDistribution, r: int, s: int) -> float:
    """E[(X)_r Y^s], summed exactly over the finite support.

    Uses fsum so terms spanning many orders of magnitude (power laws)
    accumulate without cancellation loss.
    """
    if r < 1 or s < 0:
        raise ValueError(f"need r >= 1, s >= 0, got r={r}, s={s}")
    terms = [
        falling_factorial(x, r) * y**s * p
        for x, y, p in dist.atoms()
        if x >= r and p > 0
    ]
    return math.fsum(terms)


@dataclass(frozen=True)
class CrossMoments:
    """The moment quintuple driving every closed-form limit."""

    p10: float
    p21: float
    p32: float
    p33: float
    p43: float

    @staticmethod
    def of(dist: LayerTypeDistribution) -> "CrossMoments":
        return CrossMoments(
            p10=cross_moment(dist, 1, 0),
            p21=cross_moment(dist, 2, 1),
            p32=cross_moment(dist, 3, 2),
            p33=cross_moment(dist, 3, 3),
            p43=cross_moment(dist, 4, 3),
        )


def sample_atoms(dist: LayerTypeDistribution, count: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of count iid atoms of dist, drawn by one cdf search."""
    i = np.searchsorted(dist._cdf, rng.random(count), side="right")
    return np.minimum(i, len(dist.probs) - 1)


def edge_biased_distribution(dist: LayerTypeDistribution) -> LayerTypeDistribution:
    """Reweight atoms by (x)_2 * y: the law of the layer that produced an edge.

    Atoms with size < 2 or strength 0 drop out.  Raises ZeroEdgeMass when no
    atom can produce an edge.
    """
    p21 = cross_moment(dist, 2, 1)
    if p21 <= 0.0:
        raise ZeroEdgeMass("P_21 = 0: the model produces no edges in the limit")
    atoms = [
        (x, y, falling_factorial(x, 2) * y * p / p21)
        for x, y, p in dist.atoms()
        if x >= 2 and y > 0 and p > 0
    ]
    return LayerTypeDistribution.tabular(atoms)
