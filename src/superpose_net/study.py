"""Monte Carlo convergence studies against the closed-form limits.

For each node count on a grid, sample replicated graphs, measure the
empirical statistics, and compare them with the limiting values.  Every
cell draws its seed from (master seed, grid index, replication index), so
a study is a pure function of its spec.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InsufficientSupport
from .generate import GenConfig, check_sampler_budget, degrees, generate_graph
from .layers import LayerTypeDistribution, cross_moment
from .limits import (
    DEFAULT_TAIL_EPSILON,
    LimitParams,
    limiting_assortativity,
    limiting_degree_pmf,
    limiting_laws,
    tail_prediction,
)
from .pmf import FUNCTIONALS, Pmf1D, Pmf2D, functionals, size_biased
from .stats import bidegree_distribution, layer_subgraph_counts

ALL_METRICS = (
    "tv1", "tv2", "assortativity", "kendall", "spearman",
    "tail_slope", "subgraph_counts",
)
DEFAULT_METRICS = ALL_METRICS[:5]

_MIN_TAIL_OBS = 50
_DEFAULT_T_LO = 10


def _padded(*arrays) -> np.ndarray:
    """The arrays, zero-padded at the end of each axis to one common shape,
    stacked along a new first axis."""
    out = np.zeros((len(arrays), *np.max([a.shape for a in arrays], axis=0)))
    for dst, a in zip(out, arrays):
        dst[tuple(slice(k) for k in a.shape)] = a
    return out


def tv_distance_1d(f: Pmf1D, g: Pmf1D) -> float:
    """Half L1 distance; each law's mass defect counts as mass the other
    lacks.  Takes two 2-D laws alike, as tv_distance_2d."""
    a, b = _padded(f.probs, g.probs)
    return 0.5 * (float(np.abs(a - b).sum()) + f.mass_defect + g.mass_defect)


tv_distance_2d = tv_distance_1d


def checked_fit_range(fit_range) -> tuple:
    """fit_range as a (lo, hi) tuple.  ValueError unless it is two numbers
    with lo < hi."""
    pair = isinstance(fit_range, (list, tuple)) and len(fit_range) == 2
    if not (pair and all(isinstance(v, (int, float)) for v in fit_range) and fit_range[0] < fit_range[1]):
        raise ValueError(f"fit_range must be two numbers [lo, hi] with lo < hi, got {fit_range!r}")
    return tuple(fit_range)


def tail_slope_fit(f: Pmf1D, fit_range) -> tuple[float, float]:
    """Least-squares slope magnitude of log pmf against log support.

    Needs at least 5 positive-mass points inside the range.
    """
    t_lo, t_hi = fit_range
    support = np.arange(len(f.probs))
    mask = (support >= t_lo) & (support <= t_hi) & (f.probs > 0)
    if mask.sum() < 5:
        raise InsufficientSupport(
            f"only {int(mask.sum())} positive-mass points in [{t_lo}, {t_hi}]"
        )
    x = np.log(support[mask].astype(float))
    y = np.log(f.probs[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = len(x) - 2
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(float(resid @ resid) / dof / sxx) if dof > 0 else float("inf")
    return abs(float(slope)), stderr


@dataclass(frozen=True)
class StudySpec:
    dist: LayerTypeDistribution
    mu: float
    n_grid: tuple
    replications: int
    seed: int
    metrics: tuple = DEFAULT_METRICS
    tail_epsilon: float = DEFAULT_TAIL_EPSILON
    fit_range: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "n_grid", tuple(self.n_grid))
        if any(a >= b for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError(f"n_grid must be strictly ascending, got {list(self.n_grid)}")
        LimitParams(self.mu, self.dist, self.tail_epsilon)  # raises for tail_epsilon outside (0, 1)
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (isinstance(self.metrics, (list, tuple)) and all(isinstance(m, str) for m in self.metrics)):
            raise ValueError(f"metrics must be a list of metric names, got {self.metrics!r}")
        unknown = set(self.metrics) - set(ALL_METRICS)
        if unknown:
            raise ValueError(f"unknown metrics: {sorted(unknown)}")
        object.__setattr__(self, "metrics", tuple(self.metrics))
        for n in self.n_grid:
            # raises for n < 2 or round(mu * n) < 1, and before the theory
            # values for a grid that would not fit
            cfg = GenConfig(n=n, mu=self.mu, keep_layer_records="subgraph_counts" in self.metrics)
            check_sampler_budget(cfg, self.dist)
        if self.fit_range is not None:
            object.__setattr__(self, "fit_range", checked_fit_range(self.fit_range))

    def content_hash(self) -> str:
        payload = {
            "dist": {
                "family": self.dist.family,
                "sizes": self.dist.sizes.tolist(),
                "strengths": self.dist.strengths.tolist(),
                "probs": self.dist.probs.tolist(),
            },
            "mu": self.mu,
            "n_grid": list(self.n_grid),
            "replications": self.replications,
            "seed": self.seed,
            "metrics": list(self.metrics),
            "tail_epsilon": self.tail_epsilon,
            "fit_range": list(self.fit_range) if self.fit_range else None,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class ConvergenceReport:
    """Per-cell metric values, per-n aggregates, and the theory row.

    The empirical bidegree pmf is pooled over all edges and replications
    before correlation metrics are applied; by node exchangeability this
    targets the same limit as conditioning on a fixed adjacent pair.
    """

    spec_hash: str
    rows: list = field(default_factory=list)           # dicts: n, replication, metric, value, note
    summary: dict = field(default_factory=dict)        # per-n aggregates
    theory: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["n", "replication", "metric", "value", "note"])
            for row in self.rows:
                val = "" if row["value"] is None else repr(row["value"])
                out.writerow([row["n"], row["replication"], row["metric"], val, row.get("note", "")])

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"spec_hash": self.spec_hash, "summary": self.summary, "theory": self.theory},
                fh, indent=2, default=float,
            )


def _cell_seed(master: int, n_index: int, rep: int) -> int:
    ss = np.random.SeedSequence(entropy=master, spawn_key=(n_index, rep))
    return int(ss.generate_state(1, np.uint64)[0])


def _theory_values(spec: StudySpec):
    """The theory row, and the limiting laws f1 and f2 the metrics need
    (None where they need none)."""
    params = LimitParams(spec.mu, spec.dist, spec.tail_epsilon)
    theory = {}
    f1 = f2 = None
    if {"tv2", "kendall", "spearman"} & set(spec.metrics):
        f1, f2 = limiting_laws(params)
        theory["bidegree_mass_defect"] = f2.mass_defect
    elif "tv1" in spec.metrics:
        f1 = limiting_degree_pmf(params)
    if {"kendall", "spearman"} & set(spec.metrics):
        # the limit's assortativity has a closed form, below
        theory.update(functionals(f2, ("kendall", "spearman")))
    if "assortativity" in spec.metrics:
        theory["assortativity"] = limiting_assortativity(params)
    if "tail_slope" in spec.metrics and spec.dist.family == "power_law":
        tp = tail_prediction(spec.mu, spec.dist)
        theory["tail_slope"] = tp.marginal_exponent
        theory["c_prime"] = tp.c_prime
        theory["c_double_prime"] = tp.c_double_prime
    if "subgraph_counts" in spec.metrics:
        theory["links"] = cross_moment(spec.dist, 2, 1) / 2
        theory["two_stars"] = cross_moment(spec.dist, 3, 2) / 2
        theory["three_stars"] = cross_moment(spec.dist, 4, 3) / 6
    return theory, f1, f2


def _default_fit_range(degree_counts: np.ndarray):
    """(_DEFAULT_T_LO, the largest degree that at least _MIN_TAIL_OBS nodes have)."""
    heavy = np.nonzero(degree_counts >= _MIN_TAIL_OBS)[0]
    t_hi = int(heavy.max()) if len(heavy) else 0
    return (_DEFAULT_T_LO, t_hi)


def run_study(spec: StudySpec) -> ConvergenceReport:
    theory, f1, f2 = _theory_values(spec)
    report = ConvergenceReport(spec_hash=spec.content_hash(), theory=theory)

    keep_records = "subgraph_counts" in spec.metrics
    need_bideg = {"tv2", "assortativity", "kendall", "spearman"} & set(spec.metrics)
    correlations = [metric for metric in FUNCTIONALS if metric in spec.metrics]

    for ni, n in enumerate(spec.n_grid):
        per_metric: dict[str, list] = {}  # metric: [(value, note)]
        bideg_counts = np.zeros((1, 1))
        bideg_edges = 0
        degree_counts = np.zeros(1)

        def note(metric, rep, value, msg=""):
            report.rows.append(
                {"n": n, "replication": rep, "metric": metric, "value": value, "note": msg}
            )
            per_metric.setdefault(metric, []).append((value, msg))

        for rep in range(spec.replications):
            cfg = GenConfig(
                n=n, mu=spec.mu, seed=_cell_seed(spec.seed, ni, rep),
                keep_layer_records=keep_records,
            )
            g = generate_graph(cfg, spec.dist)
            counts = np.bincount(degrees(g))
            f_deg = Pmf1D(counts / n)
            degree_counts = _padded(degree_counts, counts).sum(axis=0)

            if "tv1" in spec.metrics:
                note("tv1", rep, tv_distance_1d(f_deg, f1))

            if need_bideg:
                if g.edge_count == 0:
                    for metric in need_bideg:
                        note(metric, rep, None, "degenerate: no edges")
                else:
                    f_bideg = bidegree_distribution(g)
                    bideg_counts = _padded(bideg_counts, f_bideg.probs * (2.0 * g.edge_count)).sum(axis=0)
                    bideg_edges += g.edge_count
                    if "tv2" in spec.metrics:
                        note("tv2", rep, tv_distance_2d(f_bideg, f2))
                    values = functionals(f_bideg, correlations)
                    for metric in correlations:
                        reason = values.get(f"{metric}_degenerate")
                        note(metric, rep, values[metric], f"degenerate: {reason}" if reason else "")

            if "tail_slope" in spec.metrics:
                fit_range = spec.fit_range or _default_fit_range(counts)
                try:
                    slope, _ = tail_slope_fit(size_biased(f_deg), fit_range)
                    note("tail_slope", rep, slope)
                except InsufficientSupport as exc:
                    note("tail_slope", rep, None, f"degenerate: {exc}")

            if "subgraph_counts" in spec.metrics:
                sc = layer_subgraph_counts(g.layer_records)
                note("links", rep, sc.links)
                note("two_stars", rep, sc.two_stars)
                note("three_stars", rep, sc.three_stars)

        agg = {}
        for metric, notes in per_metric.items():
            arr = np.array([value for value, _ in notes if value is not None], dtype=float)
            reasons = [msg.removeprefix("degenerate: ") for value, msg in notes if value is None]
            entry = {"mean": float(arr.mean()) if len(arr) else None, "count": len(arr), "se": None,
                     "degenerate": len(reasons), "degenerate_reason": reasons[0] if reasons else None}
            if len(arr) >= 2:
                entry["se"] = float(arr.std(ddof=1) / math.sqrt(len(arr)))
            elif len(arr) == 1:
                entry["single_shot"] = True
            agg[metric] = entry

        # pooled-bidegree statistics across replications
        if bideg_edges:
            pooled2 = Pmf2D(bideg_counts / (2.0 * bideg_edges))
            if "tv2" in spec.metrics:
                agg["tv2_pooled"] = tv_distance_2d(pooled2, f2)
            agg.update({f"{k}_pooled": v for k, v in functionals(pooled2, correlations).items()})
        if "tail_slope" in spec.metrics:
            fit_range = spec.fit_range or _default_fit_range(degree_counts)
            try:
                pooled1 = Pmf1D(degree_counts / degree_counts.sum())
                slope, stderr = tail_slope_fit(size_biased(pooled1), fit_range)
                agg["tail_slope_pooled"] = slope
                agg["tail_slope_pooled_stderr"] = stderr
                agg["fit_range"] = list(fit_range)
            except InsufficientSupport:
                agg["tail_slope_pooled"] = None

        report.summary[str(n)] = agg

    return report
