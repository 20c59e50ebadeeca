"""Expected lengths of MST, perfect matching, and cycle cover on stochastic
graphs with uncertain node locations: exact enumeration at small scale,
randomized (1 +- eps)-approximation beyond it."""

from .cc import (
    PairTerm,
    SplitSpace,
    estimate_ecc,
    estimate_pair_term,
    prob_mutual_nearest,
    prob_nearest,
    split_points,
)
from .errors import (
    DomainError,
    EnumerationCapError,
    InternalAssertionError,
    StochgraphError,
    ValidationError,
)
from .mc import (
    EstimateReport,
    TermReport,
    chernoff_budget,
    estimate_conditional,
    tree_sum,
)
from .model import (
    EventSpec,
    MetricSpace,
    Realization,
    StochasticGraph,
    diam,
    event_probability,
    expected_mass,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    node_mass,
    realization_probability,
)
from .mpm import HomeClustering, estimate_empm, find_home_clusters
from .mst_dp import estimate_emst_dp
from .mst_home import HomeSet, estimate_emst, find_home
from .oracle import Functional, exact_expectation, exact_term
from .rng import SampleStream
from .sampling import ConditionalSampler, sample
from .solvers import (
    EdgeKey,
    NNGraph,
    cc_length,
    edge_key,
    mpm_length,
    mst_length,
    nn_graph,
)

__all__ = [
    "ConditionalSampler",
    "DomainError",
    "EdgeKey",
    "EnumerationCapError",
    "EstimateReport",
    "EventSpec",
    "Functional",
    "HomeClustering",
    "HomeSet",
    "InternalAssertionError",
    "MetricSpace",
    "NNGraph",
    "PairTerm",
    "Realization",
    "SampleStream",
    "SplitSpace",
    "StochasticGraph",
    "StochgraphError",
    "TermReport",
    "ValidationError",
    "cc_length",
    "chernoff_budget",
    "diam",
    "edge_key",
    "estimate_conditional",
    "estimate_ecc",
    "estimate_empm",
    "estimate_emst",
    "estimate_emst_dp",
    "estimate_pair_term",
    "event_probability",
    "exact_expectation",
    "exact_term",
    "expected_mass",
    "find_home",
    "find_home_clusters",
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "mpm_length",
    "mst_length",
    "nn_graph",
    "node_mass",
    "prob_mutual_nearest",
    "prob_nearest",
    "realization_probability",
    "sample",
    "split_points",
    "tree_sum",
]
