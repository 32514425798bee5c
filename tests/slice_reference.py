"""Reference separated-subgraph layer: one induced subgraph at a time.

Plain numpy, written the way the layer is defined: for each cluster j take
its nodes in ascending order, convolve Z_j = (A_j + I) X_j W_j inside the
induced subgraph, and sum Z_j's rows in ascending order into coarse row j.
The layer in ``sshpool.pooling`` computes those rows in closed form,
s_j W_j, and is checked against this reference to rounding.

``masked=False`` convolves every cluster's rows over the unmasked
adjacency instead, the leak a missing mask would cause; locality tests use
it to show that the certifier catches one.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class SliceLayer:
    clusters: list[list[int]]
    local_embeddings: list[np.ndarray]
    coarse_features: np.ndarray
    coarse_adjacency: np.ndarray
    edges_kept: int


def slice_layer(adjacency, x, labels, c, weights, keep_self_loops=False, masked=True):
    """Per-cluster layer on plain arrays; ``labels[u]`` in [0, c) is node u's
    cluster and ``weights[j]`` is cluster j's W_j."""
    clusters, zs = [], []
    x_next = np.zeros((c, weights[0].shape[1]))
    edges_kept = 0
    unmasked = (adjacency + np.eye(len(labels))) @ x
    for j in range(c):
        ids = np.nonzero(labels == j)[0]
        a_j = adjacency[np.ix_(ids, ids)]
        y_j = (a_j + np.eye(ids.size)) @ x[ids] if masked else unmasked[ids]
        z_j = y_j @ weights[j]
        for row in z_j:
            x_next[j] = x_next[j] + row
        edges_kept += int(a_j.sum()) // 2
        clusters.append(ids.tolist())
        zs.append(z_j)
    hard = np.eye(c)[labels]
    a_next = hard.T @ adjacency @ hard
    if not keep_self_loops:
        np.fill_diagonal(a_next, 0.0)
    return SliceLayer(clusters, zs, x_next, a_next, edges_kept)
