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

from .errors import Degenerate, check_memory
from .generate import GenConfig, check_sampler_budget, generate_graph
from .layers import LayerTypeDistribution, cross_moment
from .limits import DEFAULT_TAIL_EPSILON, LimitParams, limit_values, tail_prediction
from .pmf import _DEFAULT_T_LO, FUNCTIONALS, Pmf, checked_fit_range, functionals, size_biased, tail_slope_fit
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
            check_memory(8 * (n + 1), "degree arrays")  # as GraphSample.degrees allocates
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
        theory.update(tail_slope=tp.pop("marginal_exponent"), **tp)
    if "subgraph_counts" in spec.metrics:
        theory.update(links=cross_moment(spec.dist, 2, 1) / 2, two_stars=cross_moment(spec.dist, 3, 2) / 2,
                      three_stars=cross_moment(spec.dist, 4, 3) / 6)
    return theory, f1, f2


def _tail_fit(degree_counts: np.ndarray, fit_range):
    """(slope, stderr, fit_range) of tail_slope_fit on the size-biased law
    of the node counts per degree.  fit_range defaults to (_DEFAULT_T_LO,
    the largest degree that at least _MIN_TAIL_OBS nodes have).
    Degenerate if no node has an edge or that window is empty."""
    if not degree_counts[1:].any():
        raise Degenerate("no edges")
    if fit_range is None:
        top = int(np.flatnonzero(degree_counts >= _MIN_TAIL_OBS).max(initial=0))
        if top < _DEFAULT_T_LO:
            rule = f"no degree of at least {_DEFAULT_T_LO} is held by {_MIN_TAIL_OBS} nodes"
            raise Degenerate(f"{rule}, so the default fit window is empty")
        fit_range = (_DEFAULT_T_LO, top)
    f = size_biased(Pmf(degree_counts / degree_counts.sum()))
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
    """Each replication fills one dict of values, as functionals does: a
    value under its metric, or None with the reason under
    <metric>_degenerate ("no edges" for each bidegree metric of a graph
    without edges).  The CSV rows and the per-n summary both read it, and
    each pooled metric follows the same convention under <metric>_pooled."""
    theory, f1, f2 = _theory_values(spec)
    report = ConvergenceReport(theory=theory)
    bideg_metrics = [m for m in ALL_METRICS if m in spec.metrics and (m == "tv2" or m in FUNCTIONALS)]
    correlations = [m for m in bideg_metrics if m in FUNCTIONALS]

    def bideg_values(table: np.ndarray) -> dict:
        """The bidegree metrics of the law of a table of directed-pair counts."""
        if not table.any():
            return {k: v for m in bideg_metrics for k, v in ((m, None), (f"{m}_degenerate", "no edges"))}
        f = Pmf(table / table.sum())
        values = {"tv2": tv_distance_1d(f, f2)} if "tv2" in spec.metrics else {}
        return {**values, **functionals(f, correlations)}

    for ni, n in enumerate(spec.n_grid):
        cells = []  # per replication, {metric: (value, reason it is None)}
        bideg_counts = np.zeros((1, 1))  # directed adjacent pairs per bidegree, summed over replications
        degree_counts = np.zeros(1)
        for rep in range(spec.replications):
            cfg = GenConfig(
                n=n, mu=spec.mu, seed=_cell_seed(spec.seed, ni, rep),
                keep_layer_records="subgraph_counts" in spec.metrics,
            )
            g = generate_graph(cfg, spec.dist)
            counts = np.bincount(g.degrees)
            values = {"tv1": tv_distance_1d(Pmf(counts / n), f1)} if "tv1" in spec.metrics else {}
            if bideg_metrics:
                table = bidegree_counts(g) if g.edge_count else np.zeros((1, 1))
                bideg_counts = _pooled(bideg_counts, table)
                values.update(bideg_values(table))
            if "tail_slope" in spec.metrics:
                degree_counts = _pooled(degree_counts, counts)
                try:
                    values["tail_slope"] = _tail_fit(counts, spec.fit_range)[0]
                except Degenerate as exc:
                    values.update(tail_slope=None, tail_slope_degenerate=str(exc))
            if "subgraph_counts" in spec.metrics:
                values.update(layer_subgraph_counts(g.layer_records))

            cell = {m: (v, values.get(f"{m}_degenerate")) for m, v in values.items() if not m.endswith("_degenerate")}
            report.rows += [{"n": n, "replication": rep, "metric": m, "value": v,
                             "note": "" if why is None else f"degenerate: {why}"} for m, (v, why) in cell.items()]
            cells.append(cell)

        agg = {metric: _summary([cell[metric] for cell in cells]) for metric in cells[0]}
        if bideg_metrics:  # the bidegree law pooled over all edges and replications
            agg.update({f"{k}_pooled": v for k, v in bideg_values(bideg_counts).items()})
        if "tail_slope" in spec.metrics:
            try:
                slope, stderr, fit_range = _tail_fit(degree_counts, spec.fit_range)
                agg.update(tail_slope_pooled=slope, tail_slope_pooled_stderr=stderr, fit_range=list(fit_range))
            except Degenerate as exc:
                agg.update(tail_slope_pooled=None, tail_slope_degenerate_pooled=str(exc))

        report.summary[str(n)] = agg

    return report
