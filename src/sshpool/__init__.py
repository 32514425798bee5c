"""Graph classification with separated-subgraph hierarchical pooling."""

from .data import Dataset, Edges, FoldPlan, Graph, graph_stats, load_tu_dataset, make_folds
from .model import ModelConfig, ModelParams, forward, loss, predict
from .pooling import (
    AssignmentPair,
    CoarseningTrace,
    PoolLayerParams,
    coarsen,
    diffpool_stack,
    extract_subgraphs,
    harden,
    local_conv,
    soft_assign,
    sshpool_layer,
    sshpool_stack,
)
from .tensor import Tape, Tensor
from .trainer import TrainConfig, adam_step, cross_validate

__all__ = [
    "AssignmentPair",
    "CoarseningTrace",
    "Dataset",
    "Edges",
    "FoldPlan",
    "Graph",
    "ModelConfig",
    "ModelParams",
    "PoolLayerParams",
    "Tape",
    "Tensor",
    "TrainConfig",
    "adam_step",
    "coarsen",
    "cross_validate",
    "diffpool_stack",
    "extract_subgraphs",
    "forward",
    "graph_stats",
    "harden",
    "load_tu_dataset",
    "local_conv",
    "loss",
    "make_folds",
    "predict",
    "soft_assign",
    "sshpool_layer",
    "sshpool_stack",
]
