"""Layer-type distributions: joint laws of layer size and link strength.

A layer type is a pair (size, strength): the number of nodes a layer touches
and the probability with which it links each of its node pairs.  All
distributions here are finitely supported, so every moment and reweighting
is computed exactly by summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import Degenerate, check_memory

_PROB_TOL = 1e-12
# bytes per power-law atom while it is built: sizes, weights and their
# powers, probs and strengths, plus a Python float for fsum
_ATOM_BYTES = 80


def _falling_factorial(x: np.ndarray, r: int) -> np.ndarray:
    """(x)_r = x (x-1) ... (x-r+1) as floats; zero when x < r.

    Multiplies the factor pairs (x-i)(x-i-1), each exact in a double
    below x = 9.4e7, so for r <= 4 the one product left is correctly
    rounded, like float() of the exact integer.
    """
    x = x.astype(float)
    out = np.ones(len(x))
    for i in range(0, r - 1, 2):
        out = out * ((x - i) * (x - i - 1))
    if r % 2:
        out = out * (x - (r - 1))
    return out


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
        if not np.all((self.probs >= 0) & (self.probs <= 1)):
            raise ValueError("atom probability outside [0,1]")
        total = math.fsum(self.probs.tolist())
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"atom probabilities sum to {total}, not 1")
        if np.any(self.sizes < 0):
            raise ValueError("negative layer size")
        if np.any((self.strengths < 0) | (self.strengths > 1)):
            raise ValueError("layer strength outside [0,1]")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(size: int, strength: float) -> "LayerTypeDistribution":
        return replace(LayerTypeDistribution.tabular([(size, strength, 1.0)]), family="constant")

    @staticmethod
    def tabular(atoms) -> "LayerTypeDistribution":
        """atoms: iterable of (size, strength, probability)."""
        merged: dict[tuple[int, float], float] = {}
        for size, strength, p in atoms:
            if not float(size).is_integer() or size < 0:
                raise ValueError(f"layer size must be an integer >= 0, got {size}")
            if not 0.0 <= strength <= 1.0:
                raise ValueError(f"layer strength must be in [0,1], got {strength}")
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
        check_memory(_ATOM_BYTES * (x_max - x_min + 1), "power-law atoms")
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


def cross_moment(dist: LayerTypeDistribution, r: int, s: int) -> float:
    """E[(X)_r Y^s], summed exactly over the finite support.

    Uses fsum so terms spanning many orders of magnitude (power laws)
    accumulate without cancellation loss.
    """
    if r < 1 or s < 0:
        raise ValueError(f"need r >= 1, s >= 0, got r={r}, s={s}")
    keep = (dist.sizes >= r) & (dist.probs > 0)
    # Python's float pow: numpy's power differs in the last bit for some cubes
    ys = np.array([y**s for y in dist.strengths[keep].tolist()])
    return math.fsum((_falling_factorial(dist.sizes[keep], r) * ys * dist.probs[keep]).tolist())


def edge_mass(dist: LayerTypeDistribution) -> float:
    """P_21 = E[(X)_2 Y], twice a layer's mean edge count.  Every limit law
    needs P_21 > 0, so each limit entry point reads it here, and gets
    Degenerate when it is zero."""
    p21 = cross_moment(dist, 2, 1)
    if p21 <= 0.0:
        raise Degenerate("P_21 = 0: the model produces no edges in the limit")
    return p21


def edge_biased_distribution(dist: LayerTypeDistribution) -> LayerTypeDistribution:
    """Reweight atoms by (x)_2 * y: the law of the layer that produced an edge.

    Atoms with size < 2 or strength 0 drop out.  Raises Degenerate when no
    atom can produce an edge.
    """
    p21 = edge_mass(dist)
    keep = (dist.sizes >= 2) & (dist.strengths > 0) & (dist.probs > 0)
    x, y = dist.sizes[keep], dist.strengths[keep]
    return LayerTypeDistribution(
        family="tabular",
        sizes=x,
        strengths=y,
        probs=_falling_factorial(x, 2) * y * dist.probs[keep] / p21,
    )
