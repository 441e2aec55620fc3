"""Monte Carlo convergence studies against the closed-form limits.

For each node count on a grid, sample replicated graphs, measure the
empirical statistics, and compare them with the limiting values.  Every
cell draws its seed from (master seed, grid index, replication index), so
a study is a pure function of its spec.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InsufficientSupport, check_memory
from .generate import GenConfig, check_sampler_budget, generate_graph
from .layers import LayerTypeDistribution, cross_moment
from .limits import DEFAULT_TAIL_EPSILON, LimitParams, limit_values, tail_prediction
from .pmf import (_DEFAULT_T_LO, FUNCTIONALS, Pmf1D, Pmf2D, checked_fit_range, functionals, size_biased,
                  tail_slope_fit)
from .stats import bidegree_counts, layer_subgraph_counts

ALL_METRICS = (
    "tv1", "tv2", "assortativity", "kendall", "spearman",
    "tail_slope", "subgraph_counts",
)
DEFAULT_METRICS = ALL_METRICS[:5]

_MIN_TAIL_OBS = 50


def _pooled(total: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """total + counts, each zero-padded at the end of each axis to their common shape."""
    out = np.zeros(np.maximum(total.shape, counts.shape))
    out[tuple(map(slice, total.shape))] = total
    out[tuple(map(slice, counts.shape))] += counts
    return out


def tv_distance_1d(f, g) -> float:
    """Half L1 distance between two laws of one rank, 1-D or 2-D; each
    law's mass defect counts as mass the other lacks."""
    return 0.5 * (float(np.abs(_pooled(f.probs, -g.probs)).sum()) + f.mass_defect + g.mass_defect)


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
        if not self.n_grid:
            raise ValueError("n_grid must not be empty")
        if any(a >= b for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError(f"n_grid must be strictly ascending, got {list(self.n_grid)}")
        LimitParams(self.mu, self.dist, self.tail_epsilon)  # raises for tail_epsilon outside (0, 1)
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (isinstance(self.metrics, (list, tuple)) and all(isinstance(m, str) for m in self.metrics)):
            raise ValueError(f"metrics must be a list of metric names, got {self.metrics!r}")
        if not self.metrics:
            raise ValueError("metrics must name at least one metric")
        unknown = set(self.metrics) - set(ALL_METRICS)
        if unknown:
            raise ValueError(f"unknown metrics: {sorted(unknown)}")
        if len(set(self.metrics)) < len(self.metrics):
            raise ValueError(f"metrics must not repeat, got {list(self.metrics)}")
        object.__setattr__(self, "metrics", tuple(self.metrics))
        for n in self.n_grid:
            # raises for n < 2 or round(mu * n) < 1, and before the theory
            # values for a grid that would not fit
            cfg = GenConfig(n=n, mu=self.mu, keep_layer_records="subgraph_counts" in self.metrics)
            check_sampler_budget(cfg, self.dist)
            check_memory(16 * n, "degree arrays")  # as GraphSample.degrees allocates
        if self.fit_range is not None:
            object.__setattr__(self, "fit_range", checked_fit_range(self.fit_range))


@dataclass
class ConvergenceReport:
    """Per-cell metric values, per-n aggregates, and the theory row.

    Each replication's rows apply the metrics to its own empirical
    bidegree pmf; the summary's `_pooled` values apply them to the pmf
    pooled over all edges and replications at that n.  By node
    exchangeability both target the same limit as conditioning on a fixed
    adjacent pair.
    """

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


def _cell_seed(master: int, n_index: int, rep: int) -> int:
    ss = np.random.SeedSequence(entropy=master, spawn_key=(n_index, rep))
    return int(ss.generate_state(1, np.uint64)[0])


def _theory_values(spec: StudySpec):
    """The theory row, and the limiting laws f1 and f2 the metrics need
    (None where they need none)."""
    theory, f1, f2 = limit_values(LimitParams(spec.mu, spec.dist, spec.tail_epsilon), spec.metrics)
    if f2 is not None:
        theory["bidegree_mass_defect"] = f2.mass_defect
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


def _tail_fit(degree_counts: np.ndarray, fit_range):
    """(slope, stderr, fit_range) of tail_slope_fit on the size-biased law
    of the node counts per degree.  fit_range defaults to (_DEFAULT_T_LO,
    the largest degree that at least _MIN_TAIL_OBS nodes have).  Raises
    InsufficientSupport when no node has an edge."""
    if not degree_counts[1:].any():
        raise InsufficientSupport("no edges")
    if fit_range is None:
        heavy = np.nonzero(degree_counts >= _MIN_TAIL_OBS)[0]
        fit_range = (_DEFAULT_T_LO, int(heavy.max()) if len(heavy) else 0)
    f = size_biased(Pmf1D(degree_counts / degree_counts.sum()))
    return (*tail_slope_fit(f, fit_range), fit_range)


def _summary(notes) -> dict:
    """Mean, standard error and degenerate count of one metric's
    (value, reason) notes at one n."""
    values = np.array([value for value, _ in notes if value is not None], dtype=float)
    reasons = [reason for value, reason in notes if value is None]
    entry = {"mean": float(values.mean()) if len(values) else None, "count": len(values),
             "se": float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) >= 2 else None,
             "degenerate": len(reasons), "degenerate_reason": reasons[0] if reasons else None}
    if len(values) == 1:
        entry["single_shot"] = True
    return entry


def run_study(spec: StudySpec) -> ConvergenceReport:
    theory, f1, f2 = _theory_values(spec)
    report = ConvergenceReport(theory=theory)
    bideg_metrics = [m for m in ALL_METRICS if m in spec.metrics and (m == "tv2" or m in FUNCTIONALS)]
    correlations = [m for m in bideg_metrics if m in FUNCTIONALS]

    def bideg_values(f: Pmf2D) -> dict:
        """The bidegree metrics of f, each degenerate one as functionals gives it."""
        values = {"tv2": tv_distance_1d(f, f2)} if "tv2" in spec.metrics else {}
        return {**values, **functionals(f, correlations)}

    for ni, n in enumerate(spec.n_grid):
        per_metric: dict[str, list] = {}  # metric: [(value, reason it is None)]
        bideg_counts = np.zeros((1, 1))  # directed adjacent pairs per bidegree, summed over replications
        degree_counts = np.zeros(1)

        def note(metric, rep, value, reason=None):
            msg = "" if reason is None else f"degenerate: {reason}"
            report.rows.append({"n": n, "replication": rep, "metric": metric, "value": value, "note": msg})
            per_metric.setdefault(metric, []).append((value, reason))

        for rep in range(spec.replications):
            cfg = GenConfig(
                n=n, mu=spec.mu, seed=_cell_seed(spec.seed, ni, rep),
                keep_layer_records="subgraph_counts" in spec.metrics,
            )
            g = generate_graph(cfg, spec.dist)
            counts = np.bincount(g.degrees)
            degree_counts = _pooled(degree_counts, counts)

            if "tv1" in spec.metrics:
                note("tv1", rep, tv_distance_1d(Pmf1D(counts / n), f1))

            if bideg_metrics:
                if g.edge_count == 0:
                    for metric in bideg_metrics:
                        note(metric, rep, None, "no edges")
                else:
                    table = bidegree_counts(g)
                    bideg_counts = _pooled(bideg_counts, table)
                    values = bideg_values(Pmf2D(table / table.sum()))
                    for metric in bideg_metrics:
                        note(metric, rep, values[metric], values.get(f"{metric}_degenerate"))

            if "tail_slope" in spec.metrics:
                try:
                    note("tail_slope", rep, _tail_fit(counts, spec.fit_range)[0])
                except InsufficientSupport as exc:
                    note("tail_slope", rep, None, str(exc))

            if "subgraph_counts" in spec.metrics:
                for name, value in vars(layer_subgraph_counts(g.layer_records)).items():
                    note(name, rep, value)

        agg = {metric: _summary(notes) for metric, notes in per_metric.items()}

        if bideg_counts.any():  # the bidegree law pooled over all edges and replications
            pooled = bideg_values(Pmf2D(bideg_counts / bideg_counts.sum()))
            agg.update({f"{k}_pooled": v for k, v in pooled.items()})
        if "tail_slope" in spec.metrics:
            try:
                slope, stderr, fit_range = _tail_fit(degree_counts, spec.fit_range)
                agg.update(tail_slope_pooled=slope, tail_slope_pooled_stderr=stderr, fit_range=list(fit_range))
            except InsufficientSupport:
                agg["tail_slope_pooled"] = None

        report.summary[str(n)] = agg

    return report
