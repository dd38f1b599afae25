"""Optimal correlation-tree structure for multimarginal Schrödinger bridges.

Given s discrete measures and a pairwise ground cost, the optimal connected
correlation structure for the entropy-regularized multimarginal coupling is
a spanning tree, and it is found by solving one bimarginal bridge per vertex
pair (edge weight = bridge value + endpoint entropies) followed by a
classical minimum spanning tree.  A dense multimarginal solver is included
as an exponential-cost reference for verification on small instances.
"""

from .config import SolverConfig
from .dense import (
    GraphStructure,
    MultimarginalResult,
    cost_tensor,
    graph_from_edges,
    mm_sinkhorn,
    msb_objective,
)
from .errors import SolverError, ValidationError
from .measures import (
    DiscreteMeasure,
    MeasureCollection,
    entropy,
    load_measure,
    normalize_weights,
    sample_gmm,
    save_measure,
    total_variation,
)
from .mst import (
    EdgeSolve,
    EdgeWeightMatrix,
    OptimalMsbResult,
    RankedTree,
    build_weight_matrix,
    edge_weight,
    mst_boruvka,
    mst_prim_dense,
    optimal_msb,
    rank_trees,
)
from .sinkhorn import (
    BimarginalCoupling,
    PairwiseCost,
    build_cost,
    gibbs_kernel,
    sb_value,
    sinkhorn_solve,
)
from .trees import (
    SpanningTree,
    compose_tree_coupling,
    enumerate_trees,
    format_prufer,
    parse_prufer,
    prufer_decode,
    prufer_encode,
    tree_cost_additive,
)

__version__ = "0.1.0"

__all__ = [
    "BimarginalCoupling",
    "DiscreteMeasure",
    "EdgeSolve",
    "EdgeWeightMatrix",
    "GraphStructure",
    "MeasureCollection",
    "MultimarginalResult",
    "OptimalMsbResult",
    "PairwiseCost",
    "RankedTree",
    "SolverConfig",
    "SolverError",
    "SpanningTree",
    "ValidationError",
    "build_cost",
    "build_weight_matrix",
    "compose_tree_coupling",
    "cost_tensor",
    "edge_weight",
    "entropy",
    "enumerate_trees",
    "format_prufer",
    "gibbs_kernel",
    "graph_from_edges",
    "load_measure",
    "mm_sinkhorn",
    "msb_objective",
    "mst_boruvka",
    "mst_prim_dense",
    "normalize_weights",
    "optimal_msb",
    "parse_prufer",
    "prufer_decode",
    "prufer_encode",
    "rank_trees",
    "sample_gmm",
    "save_measure",
    "sb_value",
    "sinkhorn_solve",
    "total_variation",
    "tree_cost_additive",
]
