"""Simulator and exact-limit analytics for multilayer Bernoulli graph
superpositions."""

__version__ = "0.2.0"

from .errors import (
    ConfigError,
    DegenerateMarginal,
    EmptyGraph,
    HypothesisViolation,
    InsufficientSupport,
    InvalidEdgeList,
    InvalidLambda,
    MemoryBudgetExceeded,
    MissingRecords,
    RateUnderflow,
    SuperposeError,
    ZeroDenominator,
    ZeroEdgeMass,
    ZeroMean,
    ZeroP10,
)
from .generate import (
    GenConfig,
    GraphSample,
    degrees,
    generate_graph,
    generate_layer,
    read_edge_list,
    write_edge_list,
)
from .layers import (
    CrossMoments,
    LayerType,
    LayerTypeDistribution,
    cross_moment,
    edge_biased_distribution,
    sample_atoms,
)
from .limits import (
    LimitParams,
    MomentReport,
    TailPrediction,
    compound_poisson_pmf,
    fprime2_pmf,
    increment_pmf,
    limiting_assortativity,
    limiting_degree_pmf,
    limiting_laws,
    limiting_moments,
    tail_prediction,
)
from .pmf import (
    Pmf1D,
    Pmf2D,
    kendall,
    pearson_correlation,
    size_biased,
    spearman,
)
from .stats import (
    bidegree_distribution,
    degree_distribution,
    layer_subgraph_counts,
)
from .study import (
    ConvergenceReport,
    StudySpec,
    run_study,
    tail_slope_fit,
    tv_distance_1d,
    tv_distance_2d,
)
