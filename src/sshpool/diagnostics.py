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

from .data import Dataset, Graph
from .errors import ContractError
from .model import ModelConfig, ModelParams, forward, global_conv
from .pooling import sshpool_layer
from .tensor import Tensor


@dataclass
class LayerSmoothing:
    layer: int
    mean_cosine: float | None
    nodes: int
    skipped_pairs: int


@dataclass
class SmoothingProfile:
    layers: list[LayerSmoothing]


def smoothing_profile(embeddings: Sequence[np.ndarray]) -> SmoothingProfile:
    """Mean pairwise cosine similarity of the rows of each embedding matrix.

    Pairs touching a zero-norm row are skipped and counted; matrices with
    fewer than two rows yield an undefined (None) entry.
    """
    layers = []
    for depth, mat in enumerate(embeddings):
        n = mat.shape[0]
        if n < 2:
            layers.append(LayerSmoothing(depth, None, n, 0))
            continue
        norms = np.linalg.norm(mat, axis=1)
        live = norms != 0.0
        unit = mat / np.where(live, norms, 1.0)[:, None]
        rows, cols = np.triu_indices(n, k=1)
        kept = live[rows] & live[cols]
        cosines = (unit @ unit.T)[rows[kept], cols[kept]]
        mean = float(cosines.mean()) if cosines.size else None
        skipped = int(np.count_nonzero(~kept))
        layers.append(LayerSmoothing(depth, mean, n, skipped))
    return SmoothingProfile(layers=layers)


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
    first pooling layer's hard assignment frozen, requires bitwise-identical
    local embedding rows for every node of every other cluster and
    bitwise-identical coarsened rows for every other coarse node.
    ``layer_impl`` (called like :func:`sshpool_layer`) is injectable so tests
    can prove the certifier catches a leaky implementation.
    """
    if trials < 1:
        raise ContractError(f"trials must be >= 1, got {trials}")
    x = graph.features
    for w in params.gconv:
        x = global_conv(graph, x, w)
    base_x = x.data

    layer0 = params.pool_layers[0]
    clusters = params.config.layer_sizes[0]
    (_, base_xn), base = layer_impl(graph.edges, Tensor(base_x.copy()), layer0, clusters)
    hard, labels = base.assignment.hard, base.labels
    base_z = base.local_embedding

    violations: list[dict] = []
    passes = 0
    for _ in range(trials):
        u = int(rng.integers(graph.n))
        bumped = base_x.copy()
        bumped[u] += rng.normal(scale=1.0, size=base_x.shape[1])
        (_, new_xn), new = layer_impl(
            graph.edges, Tensor(bumped), layer0, clusters, frozen_hard=hard
        )
        new_z = new.local_embedding
        home = int(labels[u])
        bad = []
        for k in range(hard.cols):
            if k == home:
                continue
            rows = labels == k
            if not np.array_equal(base_z[rows], new_z[rows]):
                bad.append({"node": u, "cluster": k, "kind": "local_embedding"})
            if not np.array_equal(base_xn.data[k], new_xn.data[k]):
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
    """
    config = params.config
    depth = len(config.layer_sizes)
    rng = np.random.default_rng(seed)
    d = config.hidden_dim
    limit = np.sqrt(6.0 / (d + d))
    ref_weights = [
        Tensor(rng.uniform(-limit, limit, size=(d, d))) for _ in range(depth)
    ]

    pool_profiles: list[SmoothingProfile] = []
    ref_profiles: list[SmoothingProfile] = []
    for graph in graphs:
        _, trace = forward(graph, params, training=False)
        pool_profiles.append(smoothing_profile(trace.feature_sequence()))
        ref_seq = [trace.x0]
        h = Tensor(trace.x0)
        for w in ref_weights:
            h = global_conv(graph, h, w)
            ref_seq.append(h.data)
        ref_profiles.append(smoothing_profile(ref_seq))

    def average(profiles: list[SmoothingProfile]) -> list[dict]:
        depth_count = max(len(p.layers) for p in profiles)
        rows = []
        for layer in range(depth_count):
            values = [
                p.layers[layer].mean_cosine
                for p in profiles
                if layer < len(p.layers) and p.layers[layer].mean_cosine is not None
            ]
            nodes = [p.layers[layer].nodes for p in profiles if layer < len(p.layers)]
            skipped = sum(
                p.layers[layer].skipped_pairs for p in profiles if layer < len(p.layers)
            )
            rows.append(
                {
                    "layer": layer,
                    "mean_cosine": float(np.mean(values)) if values else None,
                    "nodes": float(np.mean(nodes)) if nodes else 0.0,
                    "skipped_pairs": skipped,
                }
            )
        return rows

    return {"pooled": average(pool_profiles), "stacked_conv": average(ref_profiles)}
