"""The four workloads: their configs, inputs, CLI arguments and checks.

Why each workload exists, and which layer it stresses, is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import refmodel

TWO_ATOM_CONFIG = {"family": "tabular", "atoms": [list(a) for a in refmodel.TWO_ATOM]}
GENERATE_N = 200_000
EMPIRICAL_N = 285_714  # about 1e6 edges at 3.5 edges per layer and m = n
POWER_LAW = {"alpha": 3, "beta": 0.5, "b": 1, "x_min": 1}
CONVERGE = {"mu": 1.0, "n_grid": [100_000], "replications": 4, "metrics": ["tv1", "assortativity"]}
CONVERGE_X_MAX = 2000
THEORY_X_MAX = 1000


def power_law(x_max: int) -> dict:
    return {"family": "power_law", **POWER_LAW, "x_max": x_max}


def power_law_atoms(x_max: int):
    p = POWER_LAW
    return refmodel.power_law_atoms(p["alpha"], p["beta"], p["b"], p["x_min"], x_max)


@dataclass
class Prepared:
    """A workload instance for one seed: its config and the check of its output."""

    config: dict
    check: Callable[[Path], None]  # (output dir)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    prepare: Callable[[Path, int], Prepared]  # (work dir, seed)


def _generate(work: Path, seed: int) -> Prepared:
    config = {
        "layer_distribution": TWO_ATOM_CONFIG,
        "model": {"n": GENERATE_N, "mu": 1.0, "seed": seed},
    }
    return Prepared(config, lambda out: checks.check_generate(
        out, GENERATE_N, GENERATE_N, seed, refmodel.TWO_ATOM))


def _empirical(work: Path, seed: int) -> Prepared:
    n = EMPIRICAL_N
    edges = refmodel.two_atom_edges(n, n, np.random.default_rng(seed))
    path = work / "input.edgelist"
    refmodel.write_edge_list(edges, n, n, seed, path)
    return Prepared({"input": {"edge_list": str(path)}}, lambda out: checks.check_empirical(out, edges, n))


def _converge(work: Path, seed: int) -> Prepared:
    config = {"layer_distribution": power_law(CONVERGE_X_MAX), "study": {**CONVERGE, "seed": seed}}
    rows = len(CONVERGE["n_grid"]) * CONVERGE["replications"] * len(CONVERGE["metrics"])
    atoms = power_law_atoms(CONVERGE_X_MAX)
    return Prepared(config, lambda out: checks.check_converge(out, atoms, CONVERGE["mu"], rows))


def _theory(work: Path, seed: int) -> Prepared:
    # The limit laws are deterministic: the seed does not enter this input.
    config = {"layer_distribution": power_law(THEORY_X_MAX), "theory": {"mu": 1.0}}
    atoms = power_law_atoms(THEORY_X_MAX)
    return Prepared(config, lambda out: checks.check_theory(out, atoms, 1.0))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("generate-two-atom", "generate", _generate),
        Workload("empirical-1m-edges", "empirical", _empirical),
        Workload("converge-power-law", "converge", _converge),
        Workload("theory-power-law", "theory", _theory),
    )
}
