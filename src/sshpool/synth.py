"""Synthetic graphs for smoke tests and data-free diagnostics.

``triangle_dataset`` is a tiny two-class set separable by triangle density
(cliques against cycles), used for overfit smoke tests and by
``diagnose smoothing`` when no dataset is given.
"""

from __future__ import annotations

import numpy as np

from .data import DEGREE_CAP, Dataset, Edges, Graph, degree_one_hot


def _cycle(n: int) -> np.ndarray:
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    return a


def _clique(n: int) -> np.ndarray:
    return np.ones((n, n)) - np.eye(n)


def triangle_dataset(num_graphs: int = 20, seed: int = 0) -> Dataset:
    """Two classes separable by triangle density: cycles (none) vs cliques.

    Sizes are drawn from 6..10 per graph, alternating classes, so the set
    is exactly class-balanced for even ``num_graphs``.
    """
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(num_graphs):
        n = int(rng.integers(6, 11))
        label = i % 2
        adj = _clique(n) if label == 1 else _cycle(n)
        graphs.append(Graph.from_dense(adj, degree_one_hot(Edges.from_dense(adj)), label))
    return Dataset(
        name="synthetic-triangles",
        graphs=graphs,
        num_classes=2,
        feature_dim=DEGREE_CAP + 1,
        feature_mode="degree-one-hot",
    )
