"""Simulator and exact-limit analytics for multilayer Bernoulli graph
superpositions.

Each public name is imported from its module on first access, so a run
loads only the modules it uses: `theory` never loads the sampler."""

import importlib

__version__ = "0.4.0"

_EXPORTS = {
    "errors": ("ConfigError", "Degenerate", "EmptyGraph", "HypothesisViolation", "InvalidEdgeList",
               "MemoryBudgetExceeded", "MissingRecords", "RateUnderflow", "SuperposeError", "ZeroEdgeMass", "ZeroMean"),
    "generate": ("GenConfig", "GraphSample", "generate_graph", "read_edge_list", "write_edge_list"),
    "layers": ("LayerTypeDistribution", "cross_moment", "edge_biased_distribution", "edge_mass"),
    "limits": ("LimitParams", "MomentReport", "limit_values", "limiting_degree_pmf", "limiting_laws",
               "limiting_moments", "tail_prediction"),
    "pmf": ("Pmf", "kendall", "pearson_correlation", "size_biased", "spearman", "tail_slope_fit"),
    "stats": ("bidegree_counts", "bidegree_distribution", "degree_distribution", "layer_subgraph_counts"),
    "study": ("ConvergenceReport", "StudySpec", "run_study", "tv_distance_1d"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
