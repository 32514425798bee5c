"""Finite-difference verification of the whole model's analytic gradients.

The check runs the forward pass once on a tape, captures every layer's
cluster labels, and then perturbs every parameter entry with the labels
frozen so the argmax cannot flip between the two sides of the central
difference. Evaluation passes run without a tape (eval mode, no dropout),
so each probe is a plain numpy computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Graph
from .errors import ContractError
from .model import ModelConfig, ModelParams, forward, loss
from .tensor import Tape


@dataclass
class GradCheckReport:
    tolerance: float
    worst: dict[str, float]  # parameter name -> max relative error

    @property
    def max_error(self) -> float:
        return max(self.worst.values()) if self.worst else 0.0

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


def fixture_graph_and_params(
    variant: str = "sshpool", seed: int = 7
) -> tuple[Graph, ModelParams]:
    """The 6-node check fixture: a ring with one chord, random features.

    Small widths keep the full central-difference sweep under a second
    while every pipeline stage (both pooling layers, attention, MLP) still
    runs. The seed keeps ReLU pre-activations away from zero so the
    difference quotient stays clean.
    """
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 2)]
    adj = np.zeros((6, 6))
    for i, j in edges:
        adj[i, j] = adj[j, i] = 1.0
    rng = np.random.default_rng(seed)
    graph = Graph.from_dense(adj, rng.normal(size=(6, 5)), label=1)
    config = ModelConfig(
        feature_dim_in=5,
        num_classes=2,
        hidden_dim=6,
        layer_sizes=(4, 2),
        dropout=0.0,
        attention_enabled=True,
        variant=variant,
    )
    return graph, ModelParams(config, seed=seed)


def _rel_err(analytic: float, numeric: float) -> float:
    denom = max(abs(analytic), abs(numeric))
    if denom < 1e-6:
        return 0.0
    return abs(analytic - numeric) / denom


def check_model_gradients(
    graph: Graph,
    params: ModelParams,
    step: float = 1e-5,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Compare every parameter gradient against central finite differences.

    ``step`` must be finite and positive, ``tolerance`` finite and >= 0.
    """
    if not 0 < step < math.inf:
        raise ContractError(f"gradcheck step must be positive and finite, got {step}")
    if not 0 <= tolerance < math.inf:
        raise ContractError(f"gradcheck tolerance must be finite and >= 0, got {tolerance}")
    params.zero_grad()
    with Tape() as tape:
        logits, trace = forward(graph, params, training=False)
        objective = loss(logits, graph.label)
    tape.backward(objective)
    frozen = [entry.labels for entry in trace.layers] or None

    def probe() -> float:
        lg, _ = forward(graph, params, training=False, frozen_assignments=frozen)
        return loss(lg, graph.label).item()

    errors = np.empty(params.data.size)
    for idx, orig in enumerate(params.data.tolist()):
        params.data[idx] = orig + step
        up = probe()
        params.data[idx] = orig - step
        down = probe()
        params.data[idx] = orig
        errors[idx] = _rel_err(params.grad[idx], (up - down) / (2.0 * step))
    worst = {name: float(e.max()) for name, e in zip(params.named(), params.split(errors))}
    params.zero_grad()
    return GradCheckReport(tolerance=tolerance, worst=worst)
