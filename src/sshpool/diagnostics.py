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


@dataclass
class LayerSmoothing:
    layer: int
    mean_cosine: float | None
    nodes: int
    skipped_pairs: int


def smoothing_profile(embeddings: Sequence[np.ndarray]) -> list[LayerSmoothing]:
    """Mean pairwise cosine similarity of the rows of each embedding matrix.

    Pairs touching a zero-norm row are skipped and counted; a matrix with
    fewer than two live rows yields an undefined (None) mean. Over the live
    unit rows u the pairwise cosines sum to (|sum u|^2 - sum |u|^2) / 2, so
    the work is O(n d) and no n x n matrix is built.
    """
    layers = []
    for depth, mat in enumerate(embeddings):
        n = mat.shape[0]
        norms = np.linalg.norm(mat, axis=1)
        live = norms != 0.0
        unit = mat[live] / norms[live, None]
        k = len(unit)
        pairs = k * (k - 1) // 2
        total = unit.sum(axis=0)
        mean = float((total @ total - (unit * unit).sum()) / (2 * pairs)) if pairs else None
        layers.append(LayerSmoothing(depth, mean, n, n * (n - 1) // 2 - pairs))
    return layers


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
        new_z = new.local_embedding
        home = int(labels[u])
        bad = []
        for k in range(base_xn.shape[0]):
            if k == home:
                continue
            rows = labels == k
            if not np.array_equal(base_z[rows], new_z[rows]):
                bad.append({"node": u, "cluster": k, "kind": "local_embedding"})
            if not np.array_equal(base_xn[k], new_xn[k]):
                bad.append({"node": u, "cluster": k, "kind": "coarse_row"})
        if bad:
            violations.extend(bad)
        else:
            passes += 1
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

    pool_profiles: list[list[LayerSmoothing]] = []
    ref_profiles: list[list[LayerSmoothing]] = []
    for graph in graphs:
        _, trace = forward(graph, params, training=False)
        pool_profiles.append(smoothing_profile(trace.feature_sequence()))
        ref_seq = [trace.x0]
        h = Tensor(trace.x0)
        for w in ref_weights:
            h = global_conv(graph, h, w)
            ref_seq.append(h.data)
        ref_profiles.append(smoothing_profile(ref_seq))

    def average(profiles: list[list[LayerSmoothing]]) -> list[dict]:
        # Every profile has depth + 1 entries: x0, then one per layer.
        rows = []
        for layer, entries in enumerate(zip(*profiles)):
            values = [e.mean_cosine for e in entries if e.mean_cosine is not None]
            rows.append(
                {
                    "layer": layer,
                    "mean_cosine": float(np.mean(values)) if values else None,
                    "nodes": float(np.mean([e.nodes for e in entries])),
                    "skipped_pairs": sum(e.skipped_pairs for e in entries),
                }
            )
        return rows

    return {"pooled": average(pool_profiles), "stacked_conv": average(ref_profiles)}
