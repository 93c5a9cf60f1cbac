"""Graph topology identification from node state trajectories.

The package couples a strongly convex edge-weight solver with a trainable
self-attention encoder that supplies the solver's feature distances and
regularization weights.
"""

from .graphcore import (
    build_sum_operator,
    devectorize,
    distance_matrix,
    edge_density,
    edge_recovery,
    half_vectorize,
    laplacian,
    mae,
    num_edges,
    total_variation,
)
from .solver import (
    DualState,
    SolveResult,
    SolverConfig,
    identify_graph,
    objective,
    reference_solve,
)
from .datagen import FlockingSpec, FormationSpec, SampleRecord
from .encoder import EncoderParams, encode, flocking_params, formation_params
from .evaluate import identify_fixed, identify_with_encoder
from .training import TrainConfig, TrainState, train

__all__ = [
    "build_sum_operator",
    "devectorize",
    "distance_matrix",
    "edge_density",
    "edge_recovery",
    "half_vectorize",
    "laplacian",
    "mae",
    "num_edges",
    "total_variation",
    "DualState",
    "SolveResult",
    "SolverConfig",
    "identify_graph",
    "objective",
    "reference_solve",
    "FlockingSpec",
    "FormationSpec",
    "SampleRecord",
    "EncoderParams",
    "encode",
    "flocking_params",
    "formation_params",
    "identify_fixed",
    "identify_with_encoder",
    "TrainConfig",
    "TrainState",
    "train",
]

__version__ = "0.1.0"
