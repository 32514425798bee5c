"""Separated-subgraph hierarchical pooling and the DiffPool baseline stack.

One pooling layer: project node features to cluster logits X W_assign,
harden them to one cluster label per node, each row's argmax, the column
of its largest soft-assignment entry (see :func:`harden`), with one-hot
form H (all constants, computed off the gradient tape), mask the
adjacency to intra-cluster edges, A_mask = A * (H H^T), convolve
Y = (A_mask + I) X, apply each node's own cluster weight,
Z_u = Y_u W_c(u), and compress every cluster to a single coarsened node:
features are the sums of its rows of Z, adjacency is H^T A H with the
diagonal zeroed (inter-cluster edge counts). Restricted to cluster j's
nodes this is exactly the per-subgraph convolution Z_j = (A_j + I) X_j W_j.
The layer sums Z's rows in closed form (see :func:`local_conv`) and never
forms Z.

Adjacencies travel as :class:`~sshpool.data.Edges` lists: the mask, the
kept degrees and the coarse adjacency are O(E) gathers and sums over
them, and no n x n matrix is built on the layer's path. A layer runs on
plain arrays and records nothing; :func:`sshpool_stack` records the whole
stack as one tape record.

The mask, kept degrees, coarse edge list and occupied clusters depend only
on the labels and the edges. Each layer keeps them as a :class:`Partition`
on the edge list it read, one per list, O(n + E) and no dense c x c
matrix, and reuses them while the same labels come back; so a graph's
edges must not change after its first forward. A reused layer-0 partition
hands layer 1 the same coarse edge list, so reuse chains down the stack.
The logits, labels, sums and every product run on every forward, so a
reused partition gives the bits of a fresh one.

Because the mask drops every cross-cluster edge, perturbing one node's
features can only move embeddings inside its own cluster; every other
cluster's output is bit-identical. That locality is the point of the
construction and is certified in :mod:`sshpool.diagnostics`. The soft
DiffPool baseline, :func:`diffpool_stack`, mixes the whole dense graph and
has no such separation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Edges
from .errors import ContractError, ShapeError
from .tensor import Tensor, _record, softmax_rows


@dataclass
class AssignmentPair:
    """Cluster logits X W_assign and their row argmax, the labels."""

    logits: np.ndarray
    labels: np.ndarray

    @property
    def hard(self) -> Tensor:
        """The labels as a one-hot n x c matrix H, built on each read."""
        return Tensor(np.eye(self.logits.shape[1])[self.labels])


@dataclass(slots=True, eq=False)
class Partition:
    """One edge list's separated subgraphs under one labelling.

    ``key`` is the labelling: the labels' values as intp bytes, the cluster
    count and ``keep_self_loops``. ``mask`` flags the entries whose ends
    share a cluster, and ``scale`` is 1 + each node's kept degree; both are
    read-only. ``ends``, each entry's two end labels, is held only until
    ``coarse``, the next layer's edge list, is built on its first read.
    ``occupied``, the non-empty clusters, is found by the stack's first
    backward. The coarse list's arrays and ``occupied`` are index arrays
    and stay writable, as a graph's own edge list does: numpy's ``take``
    and ``bincount`` copy a read-only index array on every call.
    """

    key: tuple
    mask: np.ndarray
    scale: np.ndarray
    ends: tuple | None
    coarse: Edges | None = None
    occupied: np.ndarray | None = None


@dataclass
class LayerTrace:
    """Everything one pooling layer produced, for inspection, tests and the
    stack's backward.

    ``labels[u]`` is node u's cluster. ``features`` (X), ``edges`` and
    ``weights`` are the layer's inputs. ``partition`` is the labelling's
    :class:`Partition` of ``edges``, shared by every forward that reused
    it. From it, ``mask`` flags the entries of ``edges`` that join two
    nodes of one cluster, ``kept`` lists them, and ``scale`` is
    :func:`local_conv`'s 1 + deg(v); both are read-only. ``sums`` is
    :func:`local_conv`'s s_j. ``coarse_adjacency`` is scattered from the
    coarse edge list on each read.
    """

    assignment: AssignmentPair
    coarse_features: np.ndarray
    edges: Edges
    partition: Partition
    features: np.ndarray
    weights: np.ndarray
    sums: np.ndarray

    @property
    def labels(self) -> np.ndarray:
        return self.assignment.labels

    @property
    def mask(self) -> np.ndarray:
        return self.partition.mask

    @property
    def scale(self) -> np.ndarray:
        return self.partition.scale

    @property
    def coarse_edges(self) -> Edges:
        """H^T A H as the next layer's edge list, built on the partition's
        first read and kept on it."""
        part = self.partition
        if part.coarse is None:
            a_next = coarsen(part.ends, self.edges, len(self.weights), part.key[2])
            part.coarse, part.ends = Edges.from_dense(a_next), None
        return part.coarse

    @property
    def coarse_adjacency(self) -> np.ndarray:
        """The c x c coarse adjacency H^T A H, a fresh dense copy on every read."""
        return self.coarse_edges.dense()

    @property
    def occupied(self) -> np.ndarray:
        """The clusters holding a node, ascending, built on the partition's
        first read and kept on it."""
        part = self.partition
        if part.occupied is None:
            part.occupied = np.bincount(self.labels, minlength=len(self.weights)).nonzero()[0]
        return part.occupied

    @property
    def kept(self) -> Edges:
        return self.edges.select(self.mask)

    @property
    def local_embedding(self) -> np.ndarray:
        """Z, whose row u is node u's embedding in its cluster, under the current weights."""
        return local_embedding(self.features, self.kept, self.labels, self.weights)

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
        return np.bincount(self.labels, minlength=self.assignment.logits.shape[1]).tolist()

    @property
    def clusters(self) -> list[list[int]]:
        """Member node ids per cluster, ascending; empty clusters give []."""
        return [
            np.flatnonzero(self.labels == j).tolist()
            for j in range(self.assignment.logits.shape[1])
        ]


@dataclass
class CoarseningTrace:
    """Per-layer traces; ``x0``, the pooling input, is set by ``model.forward``."""

    layers: list[LayerTrace]
    x0: np.ndarray | None = None


@dataclass
class PoolLayerParams:
    """Trainable parameters of one pooling layer.

    ``assign`` projects features to cluster logits. Cluster j's own weight
    W_j is ``weights[j]`` of a c x d x d array, with gradient ``grads[j]``;
    a model passes views of its flat buffers, which the layer uses in place.
    """

    assign: Tensor
    weights: np.ndarray
    grads: np.ndarray


def _leading_cols(w: np.ndarray, c: int) -> np.ndarray:
    """The first c columns of ``w`` as a column-major copy, or ``w`` itself
    when it has no more than c.

    That is the memory order a numpy column gather gives; a product's
    rounding depends on it, so a plain slice would move its bits.
    """
    return w if c >= w.shape[1] else np.asfortranarray(w[:, :c])


def soft_assign(x: np.ndarray, w_assign: np.ndarray) -> np.ndarray:
    """Row-stochastic cluster membership softmax(x @ w_assign), a constant.

    A layer never builds it: its labels are the argmax of the logits
    x @ w_assign, and ``softmax_rows`` of its trace's ``assignment.logits``
    gives this matrix.
    """
    if w_assign.shape[1] < 1:
        raise ContractError("soft_assign needs at least one cluster column")
    return softmax_rows(x @ w_assign)


def harden(logits: np.ndarray) -> np.ndarray:
    """Each row's cluster label, ``logits.argmax(axis=1)``: ties go to the
    lowest column, and a row with a NaN takes its first NaN.

    softmax is strictly increasing, so this is the column of the row's
    largest soft-assignment entry, found without building the softmax; the
    float softmax's argmax differs only where rounding ties two distinct
    logits' entries, and then takes the earlier column. The labels are
    constants: gradients do not flow through the argmax.
    """
    return logits.argmax(axis=1)


def extract_subgraphs(ends: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Which entries of an edge list A * (H H^T) keeps, a constant.

    ``ends`` holds each entry's ``labels[dst]`` and ``labels[src]``.
    (H H^T)[u, v] = 1 exactly when ``labels[u] == labels[v]``, so the mask
    keeps exactly the edges whose ends share a cluster.
    """
    dst, src = ends
    return dst == src


def _check_labels(labels, n: int, clusters: int) -> np.ndarray:
    """Frozen labels: n integers in [0, clusters)."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeError(f"frozen labels of shape {labels.shape} do not match ({n},)")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ContractError(f"frozen labels must be integers, got {labels.dtype}")
    if labels.min() < 0 or labels.max() >= clusters:
        raise ContractError(f"frozen labels must lie in [0, {clusters})")
    return labels


def local_conv(
    x: np.ndarray,
    adjacency: Edges,
    mask: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    scale: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convolve every cluster and compress it to one coarse row.

    Z_u = ((A_mask + I) X)_u W_labels[u], with no degree normalisation and
    no activation, where A_mask keeps the entries of ``adjacency`` that
    ``mask`` flags; coarse row j sums cluster j's rows of Z. A_mask only
    joins nodes of one cluster, so that sum is s_j W_j, where s_j adds
    (1 + deg(v)) X_v over cluster j's nodes v in ascending order from +0.0
    and deg(v) is the weight of A_mask's column v. Row j is bit for bit
    ``s_j[None] @ weights[j]``, and an empty cluster has s_j = 0.
    ``scale``, when given, is these 1 + deg(v), computed before for ``mask``.

    Returns the c x d' coarse rows, the c x 1 x d sums s and the node
    scales 1 + deg(v); :func:`sshpool_stack`'s backward reuses the last two.
    """
    c, (n, d) = weights.shape[0], x.shape
    if scale is None:
        scale = np.bincount(adjacency.src, weights=adjacency.weight * mask, minlength=n) + 1.0
    bins = (labels * d)[:, None] + np.arange(d)
    # Bin (j, k) adds column k of cluster j's rows in node order.
    sums = np.bincount(bins.ravel(), weights=(scale[:, None] * x).ravel(), minlength=c * d)
    sums = sums.reshape(c, 1, d)
    return (sums @ weights).reshape(c, -1), sums, scale


def local_embedding(
    x: np.ndarray, a_mask: Edges, labels: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Z, whose row u is ((A_mask + I) X)_u W_labels[u], for inspection only."""
    return ((a_mask.dense() @ x + x)[:, None, :] @ weights[labels])[:, 0]


def coarsen(
    ends: tuple[np.ndarray, np.ndarray],
    adjacency: Edges,
    clusters: int,
    keep_self_loops: bool = False,
) -> np.ndarray:
    """Coarsened adjacency H^T A H for H = one-hot(labels), a constant.

    ``ends`` holds each entry's ``labels[dst]`` and ``labels[src]``. Entry
    (i, j) sums the weights of the edges from cluster i to cluster j; the
    weights are whole numbers, so the sums are exact and equal the dense
    product's. Off-diagonal entries count inter-cluster edges; the
    diagonal (intra-cluster edge mass) is zeroed unless ``keep_self_loops``
    is set, since the next layer re-adds self-loops itself.
    """
    dst, src = ends
    pairs = dst * clusters
    pairs += src
    a_next = np.bincount(pairs, weights=adjacency.weight, minlength=clusters * clusters)
    if not keep_self_loops:
        a_next[:: clusters + 1] = 0.0
    return a_next.reshape(clusters, clusters)


def sshpool_layer(
    adjacency: Edges,
    x: np.ndarray,
    params: PoolLayerParams,
    keep_self_loops: bool = False,
    frozen_labels: np.ndarray | None = None,
) -> tuple[np.ndarray, LayerTrace]:
    """One full pooling layer on plain arrays: assign, harden, mask,
    convolve, coarsen. It records nothing; :func:`sshpool_stack` does.

    The effective cluster count is min(c, node count) for the c cluster
    weights in ``params``, so coarsened graphs never grow. ``frozen_labels``
    substitutes fixed cluster labels for the hardened ones (used by gradient
    checks and locality probes).
    Returns the coarse features; the coarse adjacency is the trace's
    ``coarse_adjacency``.

    The mask, kept degrees, coarse edge list and occupied clusters depend
    only on the labels and the edges. They are kept on ``adjacency`` as its
    :class:`Partition` and reused while the same labels, cluster count and
    ``keep_self_loops`` come back; any other labelling replaces them. The
    logits, labels, sums and coarse features are computed on every call.
    """
    n = x.shape[0]
    c_eff = min(len(params.weights), n)
    if c_eff < 1:
        raise ContractError(
            f"sshpool_layer needs at least one cluster column, got {len(params.weights)} "
            f"cluster weights for {n} nodes"
        )
    logits = x @ _leading_cols(params.assign.data, c_eff)
    if frozen_labels is None:
        labels = harden(logits)
    else:
        labels = _check_labels(frozen_labels, n, c_eff)
    weights = params.weights[:c_eff]
    key = (labels.astype(np.intp, copy=False).tobytes(), c_eff, bool(keep_self_loops))
    part = adjacency.partition
    if part is None or part.key != key:
        ends = labels.take(adjacency.dst), labels.take(adjacency.src)
        mask = extract_subgraphs(ends)
        x_next, sums, scale = local_conv(x, adjacency, mask, labels, weights)
        mask.setflags(write=False)
        scale.setflags(write=False)
        part = adjacency.partition = Partition(key, mask, scale, ends)
    else:
        x_next, sums, _ = local_conv(x, adjacency, part.mask, labels, weights, part.scale)

    trace = LayerTrace(
        assignment=AssignmentPair(logits=logits, labels=labels),
        coarse_features=x_next,
        edges=adjacency,
        partition=part,
        features=x,
        weights=weights,
        sums=sums,
    )
    return x_next, trace


def sshpool_stack(
    adjacency: Edges,
    x: Tensor,
    layers: list[PoolLayerParams],
    keep_self_loops: bool = False,
    frozen: list[np.ndarray] | None = None,
) -> tuple[Tensor, CoarseningTrace]:
    """Apply the pooling layer once per entry of ``layers``, as one tape record.

    Each layer's cluster count is its number of cluster weights, and the
    counts must strictly decrease; ``frozen`` holds one layer's cluster
    labels per layer. Returns the final coarsened feature matrix together
    with the full per-layer trace.

    The backward walks the layers in reverse. Each adds dW_j = s_j^T g_j
    into ``grads[j]`` for its occupied clusters only, in one indexed add,
    so an empty cluster's gradient stays +0.0, and hands the previous layer
    dX_v = (1 + deg(v)) g_labels[v] W_labels[v]^T. The assignment
    projections get no gradient. ``x`` gets one push, where a record per
    layer would have pushed layer 0's, so its gradient keeps its bits.
    """
    layer_sizes = tuple(len(params.weights) for params in layers)
    if any(b >= a for a, b in zip(layer_sizes, layer_sizes[1:])):
        raise ContractError(f"layer sizes must strictly decrease, got {layer_sizes}")
    if frozen is not None and len(frozen) != len(layers):
        raise ContractError("frozen assignments must cover every layer")

    a_cur, x_cur = adjacency, x.data
    entries = []
    for depth, params in enumerate(layers):
        if entries:  # the previous layer's coarse graph, listed only when a layer reads it
            a_cur = entries[-1].coarse_edges
        frozen_labels = frozen[depth] if frozen is not None else None
        x_cur, entry = sshpool_layer(a_cur, x_cur, params, keep_self_loops, frozen_labels)
        entries.append(entry)

    def rule(g, push):
        for entry, params in zip(reversed(entries), reversed(layers)):
            labels, weights, occ = entry.labels, entry.weights, entry.occupied
            s_occ = entry.sums.take(occ, axis=0)
            params.grads[occ] += s_occ.transpose(0, 2, 1) * g.take(occ, axis=0)[:, None, :]
            back = g[:, None, :] @ weights.transpose(0, 2, 1)
            g = entry.scale[:, None] * back[:, 0].take(labels, axis=0)
        push(x, g)

    return _record(Tensor(x_cur), rule), CoarseningTrace(layers=entries)


def diffpool_stack(
    adjacency: np.ndarray, x0: Tensor, layers: list[tuple[Tensor, Tensor]]
) -> tuple[Tensor, np.ndarray]:
    """Soft-assignment coarsening baseline, the whole stack as one tape record.

    Per layer, with ``(W_a, W_e)`` from ``layers``: S = softmax(X W_a) stays
    soft, X_next = S^T (A + I) X W_e and A_next = S^T A S, both
    differentiable through S. As in :func:`sshpool_layer`, only the first
    min(clusters, node count) columns of W_a are used. ``adjacency`` is the
    graph's dense adjacency, a constant. Returns the last layer's features
    and, as a plain array, its coarse adjacency. Comparison baseline only;
    the hard path above is the method under study.

    The forward and backward run the expressions of the op-by-op
    composition (``matmul``, ``add``, ``transpose`` and ``row_softmax`` of
    ``tests/op_reference.py``) on the same operands, and ``x0`` gets its
    two pushes in that composition's tape order; so every gradient keeps
    its bits. The gradient of the narrowed ``W_a`` is added straight into
    the leading columns of ``W_a.grad``. A record has one output, so the gradient into each inner
    coarse adjacency stays inside the record. The products that only feed
    the constant input adjacency are skipped.
    """
    if adjacency.shape != (x0.rows, x0.rows):
        raise ShapeError(f"diffpool: adjacency {adjacency.shape} for {x0.rows} nodes")
    saved = []
    a, x = adjacency, x0.data
    for w_a, w_e in layers:
        w_c = _leading_cols(w_a.data, x.shape[0])
        s = softmax_rows(x @ w_c)
        a_self = a + np.eye(a.shape[0])
        # A contiguous copy, as ``transpose`` makes: the product's rounding
        # depends on the operand's memory order.
        st = s.T.copy()
        ax = a_self @ x
        axw = ax @ w_e.data
        sa = st @ a
        saved.append((a, x, w_a, w_c, w_e, s, a_self, st, ax, axw, sa))
        a, x = sa @ s, st @ axw

    def rule(g, push):
        g_a = None  # into the coarse adjacency that the next layer reads
        for depth in reversed(range(len(saved))):
            a, x, w_a, w_c, w_e, s, a_self, st, ax, axw, sa = saved[depth]
            g_axw = st.T @ g
            g_ax = g_axw @ w_e.data.T
            push(w_e, ax.T @ g_axw)
            g_st = g @ axw.T
            if g_a is None:
                g_s = g_st.T
            else:
                g_sa = g_a @ s.T
                g_st = g_sa @ a.T + g_st
                g_s = sa.T @ g_a + g_st.T
            dot = (g_s * s).sum(axis=1, keepdims=True)
            g_logits = s * (g_s - dot)
            if w_a.grad is not None:
                w_a.grad[:, : w_c.shape[1]] += x.T @ g_logits
            if depth == 0:
                push(x0, a_self.T @ g_ax)
                push(x0, g_logits @ w_c.T)
            else:
                g_a = g_ax @ x.T if g_a is None else st.T @ g_sa + g_ax @ x.T
                g = a_self.T @ g_ax + g_logits @ w_c.T

    return _record(Tensor(x), rule), a
