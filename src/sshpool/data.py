"""Graph containers, TU-format ingestion, fold splitting, and dataset stats.

The TU layout is plain text: ``{name}_A.txt`` holds one 1-based ``i, j``
edge per line, ``{name}_graph_indicator.txt`` maps each node line to a
1-based graph id, ``{name}_graph_labels.txt`` holds one label per graph,
and ``{name}_node_labels.txt`` is optional. Edge-weight and edge-label
files are ignored; the model consumes unweighted adjacency only.

numpy parses each file into an int64 array, skipping blank lines; a value
is a decimal integer in int64 range, and anything else (``#`` included) is
a ``ParseError``. All later checks run on the arrays; an error about one
line names it as ``file:line``, blank lines counted.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, IngestError, IntegrityError, ParseError
from .tensor import Tensor

FEATURE_MODES = ("node-label-one-hot", "degree-one-hot", "constant")

# Degree features are bucketed at min(degree, DEGREE_CAP), giving 64 columns.
DEGREE_CAP = 63


class Edges:
    """The nonzero entries of an n x n matrix as a list, no position repeated.

    Entry k holds ``weight[k]`` at row ``dst[k]`` and column ``src[k]``.
    ``from_dense`` lists them in row-major order.

    ``partition`` is the :class:`~sshpool.pooling.Partition` of the last
    labelling a pooling layer read this list under, or None: its kept-edge
    mask, 1 + kept degrees, coarse edge list and occupied clusters, O(n + E)
    read-only arrays. The layer reuses it while the same labels come back,
    so the entries must not change after the list's first pooling forward.
    """

    def __init__(self, n: int, dst: np.ndarray, src: np.ndarray, weight: np.ndarray):
        self.n, self.dst, self.src, self.weight = n, dst, src, weight
        self.partition = None

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "Edges":
        n, values = a.shape[0], a.reshape(-1)
        flat = values.nonzero()[0]
        return cls(n, *np.divmod(flat, n), values.take(flat))

    def select(self, keep: np.ndarray) -> "Edges":
        """The entries where the boolean ``keep`` is set."""
        return Edges(self.n, self.dst[keep], self.src[keep], self.weight[keep])

    def dense(self) -> np.ndarray:
        """The n x n matrix: the weights scattered into +0.0 everywhere else."""
        out = np.zeros((self.n, self.n))
        out[self.dst, self.src] = self.weight
        return out


@dataclass
class Graph:
    """One classification sample: adjacency edge list, node features, class index.

    The adjacency is symmetric 0/1 with a zero diagonal; self-loops are
    added only inside convolutions. ``edges``, its row-major nonzeros, is
    the graph's only structure, so everything held is O(n * f + E).
    ``gcn_norm`` and ``propagated`` are derived on first use and kept, and
    each pooling layer keeps its last cluster partition on the edge list it
    read (``edges.partition``, then that partition's coarse edge list's, one
    per layer, each O(n + E) of its level). So a graph's features and edges
    must not change after its first forward.
    """

    edges: Edges
    features: Tensor
    label: int

    def __post_init__(self):
        if self.features.rows != self.edges.n:
            raise ContractError(
                f"feature rows {self.features.rows} != node count {self.edges.n}"
            )

    @classmethod
    def from_dense(cls, adjacency: np.ndarray, features: np.ndarray, label: int) -> "Graph":
        """A graph from an n x n adjacency matrix, checked against the contract.

        ``ContractError`` names the broken property: square, 0/1 entries,
        zero diagonal or symmetric.
        """
        a = np.asarray(adjacency, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ContractError(f"adjacency must be square, got {a.shape}")
        e = Edges.from_dense(a)
        if not np.all(e.weight == 1.0):
            raise ContractError("adjacency entries must be 0 or 1")
        if np.any(e.dst == e.src):
            raise ContractError("adjacency diagonal must be zero")
        if not np.array_equal(np.sort(e.src * e.n + e.dst), e.dst * e.n + e.src):
            raise ContractError("adjacency must be symmetric")
        return cls(e, Tensor(features), label)

    @property
    def n(self) -> int:
        return self.edges.n

    @property
    def adjacency(self) -> Tensor:
        """The dense n x n adjacency, a fresh copy on every read."""
        return Tensor(self.edges.dense())

    @cached_property
    def gcn_norm(self) -> Edges:
        """The nonzeros of D^-1/2 (A + I) D^-1/2, D the degrees of A + I.

        Entry (u, v) is inv[u] * inv[v], inv = 1 / sqrt(degree): the same
        bits as the dense ``(A + I) * inv[:, None] * inv[None, :]``, whose
        degrees are exact integer sums.
        """
        e, n, loops = self.edges, self.n, np.arange(self.n)
        inv_sqrt = 1.0 / np.sqrt(np.bincount(e.dst, minlength=n) + 1.0)
        dst = np.concatenate([e.dst, loops])
        src = np.concatenate([e.src, loops])
        return Edges(n, dst, src, inv_sqrt[dst] * inv_sqrt[src])

    @cached_property
    def propagated(self) -> np.ndarray:
        """Â X, the features propagated once through ``gcn_norm``, read-only.

        The expression ``model.global_conv`` runs on the same operands, so
        the same bits; it is n x f, the size of ``features``.
        """
        ax = self.gcn_norm.dense() @ self.features.data
        ax.flags.writeable = False
        return ax

    @property
    def num_edges(self) -> int:
        return self.edges.dst.size // 2


def degree_one_hot(edges: Edges) -> np.ndarray:
    """One-hot node degrees bucketed at ``DEGREE_CAP``, an n x (DEGREE_CAP + 1) array."""
    degree = np.bincount(edges.dst, minlength=edges.n)
    return np.eye(DEGREE_CAP + 1)[np.minimum(degree, DEGREE_CAP)]


@dataclass
class Dataset:
    name: str
    graphs: list[Graph]
    num_classes: int
    feature_dim: int
    feature_mode: str

    def __post_init__(self):
        if not self.graphs:
            raise ContractError("a dataset must contain at least one graph")
        for g in self.graphs:
            if not 0 <= g.label < self.num_classes:
                raise ContractError(
                    f"label {g.label} outside [0, {self.num_classes})"
                )

    def __len__(self) -> int:
        return len(self.graphs)


@dataclass
class FoldPlan:
    """Per-graph fold indices; fold sizes differ by at most one."""

    assignments: list[int]

    def train_indices(self, fold: int) -> list[int]:
        return [i for i, f in enumerate(self.assignments) if f != fold]

    def test_indices(self, fold: int) -> list[int]:
        return [i for i, f in enumerate(self.assignments) if f == fold]


@contextmanager
def atomic_open(path: str, newline: str = "\n"):
    """Write text to a temp file beside ``path``, then move it into place.

    ``os.replace`` swaps the finished file in at once; a write that raises
    leaves any earlier file at ``path`` as it was and removes the temp file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "w", encoding="utf-8", newline=newline)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _where(path: str, row: int) -> str:
    """``file:line`` of data row ``row`` (0-based), blank lines counted in the line."""
    with open(path, "r", encoding="utf-8") as fh:
        numbers = [k for k, line in enumerate(fh.read().splitlines(), start=1) if line.strip()]
    return f"{os.path.basename(path)}:{numbers[row]}"


def _reject(path: str, bad: np.ndarray, problem: str) -> None:
    """``IntegrityError`` naming the line of the first row set in ``bad``."""
    raise IntegrityError(f"{_where(path, int(bad.argmax()))}: {problem}")


def _check_ids(path: str, ids: np.ndarray, top: int, what: str) -> None:
    """``IntegrityError`` naming the first line (row of ``ids``) with an id outside 1..top."""
    if ids.min(initial=1) < 1 or ids.max(initial=1) > top:
        _reject(path, ((ids < 1) | (ids > top)).any(axis=1), f"{what} outside 1..{top}")


# Bytes at which ``str.splitlines`` ends a line and numpy does not; with
# one in a file, numpy could read two of its lines as one valid row.
_SPLITLINES_ONLY = b"\x0b\x0c\x1c\x1d\x1e"


def _read_table(path: str, width: int) -> np.ndarray:
    """The non-blank lines of a TU file of ``width`` comma-separated integers,
    as an int64 array of shape (rows, width).

    numpy's C parser reads the file itself when it is ASCII, not blank, and
    ends lines only at CR or LF. The lines are read and filtered only when
    it cannot, or rejects the file: a line of spaces, a bad token, or a row
    whose line must be named.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw.strip() and raw.isascii() and not any(b in raw for b in _SPLITLINES_ONLY):
        try:
            table = np.loadtxt(
                path, delimiter=",", dtype=np.int64, comments=None, ndmin=2, encoding="utf-8"
            )
        except ValueError:
            table = None
        if table is not None and table.shape[1] == width:
            return table
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(filter(str.strip, fh.read().splitlines()))
    if not rows:
        return np.empty((0, width), dtype=np.int64)
    bad = 0  # numpy takes the first row's field count as the file's
    if rows[0].count(",") == width - 1:
        try:
            return np.loadtxt(rows, delimiter=",", dtype=np.int64, comments=None, ndmin=2)
        except ValueError as exc:
            # numpy names the row from 0 when it cannot convert a token,
            # and from 1 when the row has a different field count.
            message = str(exc)
            row = int(re.search(r" at row (\d+)", message)[1])
            bad = row if "could not convert" in message else row - 1
    raise ParseError(
        f"{_where(path, bad)}: expected {width} comma-separated integer(s), "
        f"got {rows[bad].strip()!r}"
    )


def _edge_lists(
    pairs: np.ndarray, graph: np.ndarray, local: np.ndarray, sizes: np.ndarray
) -> list[Edges]:
    """Each graph's row-major edge list from ``pairs``, (u, v) rows of global
    node ids with u != v, both in graph ``graph[k]``: both directions,
    repeats merged.

    A line's size, key offset and local ids are gathered once; both its
    keys ``start[g] + row * n + col`` go into one array, which one sort
    orders for all graphs. The lists are slices of arrays they share.
    """
    start = np.concatenate(([0], np.cumsum(sizes * sizes)))
    size, base, lu, lv = sizes[graph], start[graph], local[pairs[:, 0]], local[pairs[:, 1]]
    key = np.concatenate([base + lu * size + lv, base + lv * size + lu])
    key.sort()
    first = np.ones(key.size, dtype=bool)  # sorted: a repeat follows its first copy
    np.not_equal(key[1:], key[:-1], out=first[1:])
    key = key[first]
    bounds = np.searchsorted(key, start)
    counts = np.diff(bounds)
    flat = key - np.repeat(start[:-1], counts)
    dst, src = np.divmod(flat, np.repeat(sizes, counts))
    weight = np.ones(key.size)
    bounds = bounds.tolist()
    return [
        Edges(n, dst[lo:hi], src[lo:hi], weight[lo:hi])
        for n, lo, hi in zip(sizes.tolist(), bounds, bounds[1:])
    ]


def load_tu_dataset(directory: str, name: str, feature_mode: str | None = None) -> Dataset:
    """Load a TU-format dataset from ``directory``.

    ``feature_mode=None`` picks node-label one-hots when a node label file
    exists and degree one-hots otherwise. Graph labels are remapped to
    contiguous class indices in first-seen order.
    """
    if feature_mode is not None and feature_mode not in FEATURE_MODES:
        raise ContractError(f"unknown feature_mode {feature_mode!r}")

    def path_of(suffix: str) -> str:
        return os.path.join(directory, f"{name}_{suffix}.txt")

    for suffix in ("A", "graph_indicator", "graph_labels"):
        if not os.path.isfile(path_of(suffix)):
            raise IngestError(f"missing dataset file: {path_of(suffix)}")

    ind_path = path_of("graph_indicator")
    graph_ids = _read_table(ind_path, 1)
    n_nodes = len(graph_ids)
    if not n_nodes:
        raise IngestError(f"empty indicator file: {ind_path}")
    # Every graph has a node, so no id can exceed the node count.
    _check_ids(ind_path, graph_ids, n_nodes, "graph id")
    graph_of = graph_ids[:, 0] - 1
    sizes = np.bincount(graph_of)
    if not sizes.all():
        raise IntegrityError(f"{name}: graph with zero nodes in indicator file")
    # The nodes graph by graph, ascending ids inside a graph, and each
    # node's index in its graph.
    order = np.argsort(graph_of, kind="stable")
    ends = np.cumsum(sizes).tolist()
    starts = [0] + ends[:-1]
    local = np.empty(n_nodes, dtype=np.int64)
    local[order] = np.arange(n_nodes) - np.repeat(starts, sizes)

    raw_labels = _read_table(path_of("graph_labels"), 1)[:, 0]
    if raw_labels.size != sizes.size:
        raise IntegrityError(f"{name}: {raw_labels.size} graph labels for {sizes.size} graphs")
    values, first, inverse = np.unique(raw_labels, return_index=True, return_inverse=True)
    labels = np.argsort(np.argsort(first))[inverse].tolist()  # classes in first-seen order

    # Both ends of every edge line, as global 0-based node ids; the range
    # is checked before any id indexes an array.
    a_path = path_of("A")
    pairs = _read_table(a_path, 2)
    _check_ids(a_path, pairs, n_nodes, "node id")
    pairs -= 1
    graph = graph_of[pairs[:, 0]]
    if not np.array_equal(graph, graph_of[pairs[:, 1]]):
        _reject(a_path, graph != graph_of[pairs[:, 1]], "edge joins nodes of two graphs")
    # The diagonal stays zero; self-loops live inside convolutions.
    loop = pairs[:, 0] == pairs[:, 1]
    if loop.any():
        pairs, graph = pairs[~loop], graph[~loop]
    edges = _edge_lists(pairs, graph, local, sizes)

    node_labels = None
    nl_path = path_of("node_labels")
    if os.path.isfile(nl_path):
        node_labels = _read_table(nl_path, 1)[:, 0]
        if node_labels.size != n_nodes:
            raise IntegrityError(f"{name}: {node_labels.size} node labels for {n_nodes} nodes")

    if feature_mode is None:
        feature_mode = "node-label-one-hot" if node_labels is not None else "degree-one-hot"
    if feature_mode == "node-label-one-hot" and node_labels is None:
        raise IngestError(f"missing dataset file: {nl_path}")

    # Each graph gathers its own rows of ``table[col]``: views of one
    # corpus-wide block measured a higher peak RSS.
    if feature_mode == "node-label-one-hot":
        alphabet, col = np.unique(node_labels, return_inverse=True)
        table, col = np.eye(alphabet.size), col[order]
    elif feature_mode == "degree-one-hot":  # degrees from the merged lists
        counts = [e.dst.size for e in edges]
        rows = np.concatenate([e.dst for e in edges]) + np.repeat(starts, counts)
        table = np.eye(DEGREE_CAP + 1)
        col = np.minimum(np.bincount(rows, minlength=n_nodes), DEGREE_CAP)
    else:
        table, col = np.ones((1, 1)), np.zeros(n_nodes, dtype=np.int64)
    graphs = [
        Graph(edges=e, features=Tensor(table.take(col[lo:hi], axis=0)), label=lab)
        for e, lab, lo, hi in zip(edges, labels, starts, ends)
    ]
    return Dataset(
        name=name,
        graphs=graphs,
        num_classes=values.size,
        feature_dim=table.shape[1],
        feature_mode=feature_mode,
    )


def _by_class(dataset: Dataset, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The graph indices grouped by class in class order, each group ascending,
    then shuffled group after group by one ``default_rng(seed)``; and each
    index's position (round) in its group."""
    labels = np.array([g.label for g in dataset.graphs])
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels, minlength=dataset.num_classes)
    starts = np.cumsum(counts) - counts
    rng = np.random.default_rng(seed)
    for lo, count in zip(starts.tolist(), counts.tolist()):
        rng.shuffle(order[lo : lo + count])
    return order, np.arange(order.size) - np.repeat(starts, counts)


def make_folds(dataset: Dataset, k: int, seed: int) -> FoldPlan:
    """Stratified fold assignment: per-class round-robin after a seeded shuffle.

    A single counter runs across classes so fold sizes differ by at most one
    overall, while each class spreads as evenly as the counts allow.
    """
    n = len(dataset.graphs)
    if not 2 <= k <= n:
        raise ContractError(f"fold count {k} outside [2, {n}]")
    order, _ = _by_class(dataset, seed)
    assignments = np.empty(n, dtype=np.int64)
    assignments[order] = np.arange(n) % k
    return FoldPlan(assignments.tolist())


def stratified_subset(dataset: Dataset, size: int, seed: int) -> Dataset:
    """A class-balanced subsample of ``size`` graphs (at most the full set)."""
    if size < 1:
        raise ContractError(f"subset size must be >= 1, got {size}")
    if size >= len(dataset.graphs):
        return dataset
    order, rounds = _by_class(dataset, seed)
    # The first ``size`` in (round, class) order: the sort is stable.
    picked = np.sort(order[np.argsort(rounds, kind="stable")[:size]])
    return Dataset(
        name=f"{dataset.name}-subset{size}",
        graphs=[dataset.graphs[i] for i in picked.tolist()],
        num_classes=dataset.num_classes,
        feature_dim=dataset.feature_dim,
        feature_mode=dataset.feature_mode,
    )


def graph_stats(dataset: Dataset) -> dict:
    """Exact corpus summary used by the ``stats`` command."""
    sizes = [g.n for g in dataset.graphs]
    total_nodes = sum(sizes)
    total_degree = 2 * sum(g.num_edges for g in dataset.graphs)
    histogram = np.bincount([g.label for g in dataset.graphs], minlength=dataset.num_classes)
    return {
        "name": dataset.name,
        "graphs": len(dataset.graphs),
        "classes": dataset.num_classes,
        "max_nodes": max(sizes),
        "mean_nodes": total_nodes / len(sizes),
        "mean_degree": total_degree / total_nodes,
        "class_histogram": histogram.tolist(),
        "feature_dim": dataset.feature_dim,
        "feature_mode": dataset.feature_mode,
    }
