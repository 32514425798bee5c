"""Measurable probes for the model's qualitative claims.

``smoothing_profile`` tracks how similar node embeddings become layer by
layer (mean pairwise cosine similarity). ``certify_locality`` checks the
separation property literally: with the assignment frozen, perturbing one
node's features must leave every other cluster's local embedding and
coarsened row bit-identical. ``compare_smoothing`` puts the pooling
pipeline next to a plain stacked convolution of equal depth; it reports,
it does not judge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import Graph
from .errors import ContractError
from .model import ModelParams, _glorot, forward, global_conv
from .pooling import sshpool_layer
from .tensor import Tensor


def smoothing_profile(embeddings: Sequence[np.ndarray]) -> list[dict]:
    """Mean pairwise cosine similarity of the rows of each embedding matrix,
    one ``layer``, ``mean_cosine``, ``nodes``, ``skipped_pairs`` row per matrix.

    Pairs touching a zero-norm row are skipped and counted; a matrix with
    fewer than two live rows yields an undefined (None) mean. Over the live
    unit rows u the pairwise cosines sum to (|sum u|^2 - sum |u|^2) / 2, so
    the work is O(n d) and no n x n matrix is built.
    """
    rows = []
    for depth, mat in enumerate(embeddings):
        n = mat.shape[0]
        norms = np.linalg.norm(mat, axis=1)
        live = norms != 0.0
        unit = mat[live] / norms[live, None]
        k = len(unit)
        pairs = k * (k - 1) // 2
        total = unit.sum(axis=0)
        mean = float((total @ total - (unit * unit).sum()) / (2 * pairs)) if pairs else None
        rows.append({"layer": depth, "mean_cosine": mean, "nodes": n,
                     "skipped_pairs": n * (n - 1) // 2 - pairs})
    return rows


@dataclass
class LocalityReport:
    trials: int
    passes: int
    violations: list[dict]

    @property
    def passed(self) -> bool:
        return self.passes == self.trials


def certify_locality(
    graph: Graph,
    params: ModelParams,
    trials: int,
    rng: np.random.Generator,
    layer_impl: Callable = sshpool_layer,
) -> LocalityReport:
    """Certify that no information crosses cluster boundaries.

    Each trial perturbs one node's post-convolution features and, with the
    first pooling layer's cluster labels frozen, requires bitwise-identical
    local embedding rows for every node of every other cluster and
    bitwise-identical coarsened rows for every other coarse node.
    ``layer_impl`` (called like :func:`sshpool_layer`) is injectable so tests
    can prove the certifier catches a leaky implementation. Only an
    ``sshpool`` model has hard clusters to certify; any other variant
    raises ``ContractError``.
    """
    if params.config.variant != "sshpool":
        raise ContractError(
            f"locality needs an sshpool model, got variant {params.config.variant!r}"
        )
    if trials < 1:
        raise ContractError(f"trials must be >= 1, got {trials}")
    base_x = forward(graph, params)[1].x0
    layer0 = params.pool_layers[0]
    base_xn, base = layer_impl(graph.edges, base_x.copy(), layer0)
    labels = base.labels
    base_z = base.local_embedding

    violations: list[dict] = []
    passes = 0
    for _ in range(trials):
        u = int(rng.integers(graph.n))
        bumped = base_x.copy()
        bumped[u] += rng.normal(scale=1.0, size=base_x.shape[1])
        new_xn, new = layer_impl(graph.edges, bumped, layer0, frozen_labels=labels)
        # moved[k]: whether a Z row of cluster k, and whether coarse row k,
        # differs from the base; node u's own cluster may change.
        moved = np.zeros((len(base_xn), 2), dtype=bool)
        moved[labels[(base_z != new.local_embedding).any(axis=1)], 0] = True
        moved[:, 1] = (base_xn != new_xn).any(axis=1)
        moved[labels[u]] = False
        clusters, kinds = np.nonzero(moved)  # cluster by cluster, Z first
        violations += [{"node": u, "cluster": k, "kind": ("local_embedding", "coarse_row")[j]}
                       for k, j in zip(clusters.tolist(), kinds.tolist())]
        passes += not clusters.size
    return LocalityReport(trials=trials, passes=passes, violations=violations)


def compare_smoothing(
    graphs: Sequence[Graph],
    params: ModelParams,
    seed: int = 0,
) -> dict:
    """Pooling pipeline versus an equally deep stacked convolution.

    The reference stack has one convolution per pooling layer on top of the
    shared initial convolution, initialised from the same seed policy. The
    result holds one averaged profile per model for side-by-side reading.
    Only an ``sshpool`` model has per-layer embeddings to profile; any
    other variant raises ``ContractError``.
    """
    config = params.config
    if config.variant != "sshpool":
        raise ContractError(
            f"smoothing needs an sshpool model, got variant {config.variant!r}"
        )
    depth = len(config.layer_sizes)
    rng = np.random.default_rng(seed)
    d = config.hidden_dim
    ref_weights = [Tensor(w) for w in _glorot(rng, depth, d, d)]

    pool_profiles: list[list[dict]] = []
    ref_profiles: list[list[dict]] = []
    for graph in graphs:
        _, trace = forward(graph, params, training=False)
        pool_profiles.append(
            smoothing_profile([trace.x0] + [e.coarse_features for e in trace.layers])
        )
        ref_seq = [trace.x0]
        h = Tensor(trace.x0)
        for w in ref_weights:
            h = global_conv(graph, h, w)
            ref_seq.append(h.data)
        ref_profiles.append(smoothing_profile(ref_seq))

    def average(profiles: list[list[dict]]) -> list[dict]:
        # Every profile has depth + 1 rows: x0, then one per layer.
        rows = []
        for layer, entries in enumerate(zip(*profiles)):
            values = [e["mean_cosine"] for e in entries if e["mean_cosine"] is not None]
            rows.append(
                {
                    "layer": layer,
                    "mean_cosine": float(np.mean(values)) if values else None,
                    "nodes": float(np.mean([e["nodes"] for e in entries])),
                    "skipped_pairs": sum(e["skipped_pairs"] for e in entries),
                }
            )
        return rows

    return {"pooled": average(pool_profiles), "stacked_conv": average(ref_profiles)}
