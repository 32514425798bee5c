"""Separated-subgraph hierarchical pooling and the baseline pooling operators.

One pooling layer: project node features and row-softmax them into a soft
cluster assignment, harden it to a one-hot matrix H (both are constants,
computed off the gradient tape), mask the adjacency to intra-cluster edges,
A_mask = A * (H H^T), convolve Y = (A_mask + I) X, apply each node's own
cluster weight, Z_u = Y_u W_c(u), and compress every cluster to a single
coarsened node: features are the sums of its rows of Z, adjacency is
H^T A H with the diagonal zeroed (inter-cluster edge counts). Restricted to
cluster j's nodes this is exactly the per-subgraph convolution
Z_j = (A_j + I) X_j W_j, computed for the whole graph at once.

Adjacencies travel as :class:`~sshpool.data.Edges` lists: the mask and the
coarse adjacency are O(E) selections and sums over them, and a dense n x n
matrix is built only as the operand of the convolution's products.

Because the mask drops every cross-cluster edge, perturbing one node's
features can only move embeddings inside its own cluster; every other
cluster's output is bit-identical. That locality is the point of the
construction and is certified in :mod:`sshpool.diagnostics`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Edges
from .errors import ContractError, ShapeError
from .tensor import (
    Tensor,
    _record,
    add,
    eye,
    matmul,
    mean_rows,
    row_softmax,
    softmax_rows,
    sum_rows,
    transpose,
)


@dataclass
class AssignmentPair:
    """Row-stochastic soft assignment and its hardened one-hot counterpart."""

    soft: Tensor
    hard: Tensor


@dataclass
class LayerTrace:
    """Everything one pooling layer produced, for inspection and tests.

    ``labels[u]`` is node u's cluster; ``local_embedding`` is the n x d
    matrix Z whose row u is node u's embedding inside its cluster.
    ``edges`` is the layer's input adjacency and ``kept`` its intra-cluster
    part; ``adjacency`` and ``a_mask`` are their dense forms.
    """

    assignment: AssignmentPair
    labels: np.ndarray
    local_embedding: np.ndarray
    coarse_features: Tensor
    coarse_adjacency: Tensor
    edges: Edges
    kept: Edges

    @property
    def adjacency(self) -> np.ndarray:
        return self.edges.dense()

    @property
    def a_mask(self) -> np.ndarray:
        return self.kept.dense()

    @property
    def edges_in(self) -> int:
        return int(self.edges.weight.sum()) // 2

    @property
    def edges_kept(self) -> int:
        return int(self.kept.weight.sum()) // 2

    @property
    def edges_dropped(self) -> int:
        return self.edges_in - self.edges_kept

    @property
    def cluster_sizes(self) -> list[int]:
        return np.bincount(self.labels, minlength=self.assignment.hard.cols).tolist()

    @property
    def clusters(self) -> list[list[int]]:
        """Member node ids per cluster, ascending; empty clusters give []."""
        return [
            np.flatnonzero(self.labels == j).tolist()
            for j in range(self.assignment.hard.cols)
        ]


@dataclass
class CoarseningTrace:
    """Per-layer traces; ``x0``, the pooling input, is set by ``model.forward``."""

    layers: list[LayerTrace]
    x0: np.ndarray | None = None

    def hard_assignments(self) -> list[Tensor]:
        return [entry.assignment.hard for entry in self.layers]

    def feature_sequence(self) -> list[np.ndarray]:
        """Node-embedding matrices layer by layer, led by ``x0`` when set."""
        seq = [] if self.x0 is None else [self.x0]
        seq.extend(entry.coarse_features.data for entry in self.layers)
        return seq


@dataclass
class PoolLayerParams:
    """Trainable tensors of one pooling layer.

    ``assign`` projects features to cluster logits; ``local[j]`` is the
    convolution weight owned by cluster j. Local weights are distinct
    tensors per (layer, cluster) and are never shared.
    """

    assign: Tensor
    local: list[Tensor]


def soft_assign(x: Tensor, w_assign: Tensor) -> Tensor:
    """Row-stochastic cluster membership softmax(x @ w_assign), a constant.

    Only its row argmax is used, and no gradient flows through the argmax,
    so nothing is recorded on the tape.
    """
    if w_assign.cols < 1:
        raise ContractError("soft_assign needs at least one cluster column")
    return Tensor(softmax_rows(x.data @ w_assign.data))


def _one_hot(labels: np.ndarray, cols: int) -> np.ndarray:
    hard = np.zeros((len(labels), cols))
    hard[np.arange(len(labels)), labels] = 1.0
    return hard


def harden(soft: Tensor) -> Tensor:
    """One-hot per row at the row argmax, ties to the lowest column index.

    The result is a constant: gradients do not flow through the argmax.
    """
    return Tensor(_one_hot(soft.data.argmax(axis=1), soft.cols))


def _intra_cluster(adjacency: Edges, labels: np.ndarray) -> Edges:
    """A * (H H^T): (H H^T)[u, v] = 1 exactly when u and v share a cluster."""
    return adjacency.select(labels[adjacency.dst] == labels[adjacency.src])


def extract_subgraphs(adjacency: Edges, hard: Tensor) -> tuple[np.ndarray, Edges]:
    """Cluster labels and the intra-cluster adjacency A * (H H^T).

    ``labels[u]`` is the column of node u's 1 in ``hard``; the masked
    adjacency keeps exactly the edges whose ends share a cluster. Both are
    constants.
    """
    if hard.rows != adjacency.n:
        raise ShapeError(
            f"extract_subgraphs: adjacency of {adjacency.n} nodes and assignment "
            f"{hard.shape} disagree on node count"
        )
    labels = hard.data.argmax(axis=1)
    if not np.array_equal(hard.data, _one_hot(labels, hard.cols)):
        raise ContractError("hard assignment rows must be one-hot")
    return labels, _intra_cluster(adjacency, labels)


def _ascending_sum(rows: np.ndarray, out: np.ndarray) -> None:
    """Write the column sums of ``rows``, added strictly top to bottom, to ``out``.

    numpy's axis-0 sum adds whole rows in order, except for a single
    column, which it sums pairwise; ``cumsum`` is sequential there.
    """
    if rows.shape[1] > 1:
        np.add.reduce(rows, axis=0, out=out)
    else:
        out[:] = np.cumsum(rows, axis=0)[-1]


def local_conv(
    x: Tensor, a_mask: Edges, labels: np.ndarray, weights: list[Tensor], clusters: int
) -> tuple[Tensor, np.ndarray]:
    """Convolve every cluster and compress it to one coarse row, as one record.

    Z_u = ((A_mask + I) X)_u W_labels[u], with no degree normalisation and
    no activation; ``a_mask`` is the intra-cluster edge list, scattered
    with the identity into the dense operand of both products. Coarse row
    j is the sum of cluster j's rows of Z, added in ascending node order
    (an empty cluster gives a zero row). A stable sort of the labels gives
    each occupied cluster a contiguous run of its node ids, ascending, so a
    cluster costs one product and one sum, and an empty cluster's weight
    receives no gradient at all.
    Backward: with G_j coarse gradient row j repeated over cluster j's
    rows, dW_j = Y_j^T G_j and dX = (A_mask + I)^T dY with dY_j = G_j W_j^T.

    Returns the ``clusters`` x d coarse features, on the tape, and Z in
    node order, a constant for inspection.
    """
    n = x.rows
    m = a_mask.dense()
    diagonal = m.reshape(-1)[:: n + 1]
    diagonal += 1.0
    order = labels.argsort(kind="stable")
    counts = np.bincount(labels, minlength=clusters)
    y = (m @ x.data)[order]
    z = np.empty((n, weights[0].cols))
    x_next = np.zeros((clusters, z.shape[1]))
    runs = []
    stop = 0
    for j, size in enumerate(counts.tolist()):
        if size:
            start, stop = stop, stop + size
            run = z[start:stop]
            np.matmul(y[start:stop], weights[j].data, out=run)
            _ascending_sum(run, x_next[j])
            runs.append((j, start, stop))
    # Sums start from +0.0, as a scatter-add into zeros does, so a -0.0 that
    # a BLAS build may return for a product never reaches a coarse row.
    x_next += 0.0

    def rule(g, push, x=x, m=m, y=y, order=order, counts=counts, runs=runs, weights=weights):
        g_runs = np.repeat(g, counts, axis=0)
        dy = np.empty_like(y)
        for j, start, stop in runs:
            g_j = g_runs[start:stop]
            np.matmul(g_j, weights[j].data.T, out=dy[start:stop])
            push(weights[j], y[start:stop].T @ g_j)
        dy_nodes = np.empty_like(dy)
        dy_nodes[order] = dy
        push(x, m.T @ dy_nodes)

    z_nodes = np.empty_like(z)
    z_nodes[order] = z
    return _record(Tensor(x_next), rule), z_nodes


def coarsen(
    labels: np.ndarray, adjacency: Edges, clusters: int, keep_self_loops: bool = False
) -> Tensor:
    """Coarsened adjacency H^T A H for H = one-hot(labels), a constant.

    Entry (i, j) sums the weights of the edges from cluster i to cluster j;
    the weights are whole numbers, so the sums are exact and equal the
    dense product's. Off-diagonal entries count inter-cluster edges; the
    diagonal (intra-cluster edge mass) is zeroed unless ``keep_self_loops``
    is set, since the next layer re-adds self-loops itself.
    """
    pairs = labels[adjacency.dst] * clusters
    pairs += labels[adjacency.src]
    a_next = np.bincount(pairs, weights=adjacency.weight, minlength=clusters * clusters)
    if not keep_self_loops:
        a_next[:: clusters + 1] = 0.0
    return Tensor(a_next.reshape(clusters, clusters))


def sshpool_layer(
    adjacency: Edges,
    x: Tensor,
    params: PoolLayerParams,
    clusters: int,
    keep_self_loops: bool = False,
    frozen_hard: Tensor | None = None,
) -> tuple[tuple[Edges, Tensor], LayerTrace]:
    """One full pooling layer: assign, harden, mask, convolve, coarsen.

    The effective cluster count is min(clusters, node count), so coarsened
    graphs never grow. ``frozen_hard`` substitutes a fixed assignment
    (used by gradient checks and locality probes). Returns the coarse
    adjacency's edge list and the coarse features.
    """
    if clusters < 1:
        raise ContractError(f"cluster count must be >= 1, got {clusters}")
    n = x.rows
    c_eff = min(clusters, n)
    w_assign = params.assign.data
    if c_eff < w_assign.shape[1]:
        # The product's rounding depends on the operand's memory order; a
        # column-major copy gives the same bits as a ``take_cols`` gather.
        w_assign = np.asfortranarray(w_assign[:, :c_eff])
    soft = soft_assign(x, Tensor(w_assign))
    if frozen_hard is None:
        # ``harden`` with its labels kept: the one-hot form holds by construction.
        labels = soft.data.argmax(axis=1)
        hard = Tensor(_one_hot(labels, c_eff))
        a_mask = _intra_cluster(adjacency, labels)
    else:
        hard = frozen_hard
        if hard.shape != (n, c_eff):
            raise ShapeError(f"hard assignment {hard.shape} does not match ({n}, {c_eff})")
        labels, a_mask = extract_subgraphs(adjacency, hard)
    x_next, z = local_conv(x, a_mask, labels, params.local, c_eff)
    a_next = coarsen(labels, adjacency, c_eff, keep_self_loops)

    trace = LayerTrace(
        assignment=AssignmentPair(soft=soft, hard=hard),
        labels=labels,
        local_embedding=z,
        coarse_features=x_next,
        coarse_adjacency=a_next,
        edges=adjacency,
        kept=a_mask,
    )
    return (Edges.from_dense(a_next.data), x_next), trace


def sshpool_stack(
    adjacency: Edges,
    x: Tensor,
    layers: list[PoolLayerParams],
    layer_sizes: tuple[int, ...],
    keep_self_loops: bool = False,
    frozen: list[Tensor] | None = None,
) -> tuple[Tensor, CoarseningTrace]:
    """Apply the pooling layer once per entry of ``layer_sizes``.

    Sizes must be strictly decreasing. Returns the final coarsened feature
    matrix together with the full per-layer trace.
    """
    if len(layers) != len(layer_sizes):
        raise ContractError(
            f"{len(layers)} layer params for {len(layer_sizes)} layer sizes"
        )
    if any(b >= a for a, b in zip(layer_sizes, layer_sizes[1:])):
        raise ContractError(f"layer sizes must strictly decrease, got {layer_sizes}")
    if frozen is not None and len(frozen) != len(layers):
        raise ContractError("frozen assignments must cover every layer")

    a_cur, x_cur = adjacency, x
    entries = []
    for depth, (params, size) in enumerate(zip(layers, layer_sizes)):
        frozen_hard = frozen[depth] if frozen is not None else None
        (a_cur, x_cur), entry = sshpool_layer(
            a_cur, x_cur, params, size, keep_self_loops, frozen_hard
        )
        entries.append(entry)
    return x_cur, CoarseningTrace(layers=entries)


def baseline_global_pool(x: Tensor, mode: str) -> Tensor:
    """Whole-graph readout: column ``sum`` or ``mean`` as a single row."""
    if mode == "sum":
        return sum_rows(x)
    if mode == "mean":
        return mean_rows(x)
    raise ContractError(f"global pool mode must be 'sum' or 'mean', got {mode!r}")


def baseline_diffpool_layer(
    adjacency: Tensor, x: Tensor, w_assign: Tensor, w_embed: Tensor
) -> tuple[Tensor, Tensor]:
    """Soft-assignment coarsening baseline.

    S = row_softmax(X W_a) stays soft; X_next = S^T (A + I) X W_e and
    A_next = S^T A S, both differentiable through S. Comparison baseline
    only; the hard path above is the method under study.
    """
    s = row_softmax(matmul(x, w_assign))
    # (A + I); A may itself sit on the tape when stacking layers.
    a_self = add(adjacency, eye(adjacency.rows))
    st = transpose(s)
    x_next = matmul(st, matmul(matmul(a_self, x), w_embed))
    a_next = matmul(matmul(st, adjacency), s)
    return a_next, x_next
