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

    Entry k holds ``weight[k]`` at row ``dst[k]`` and column ``src[k]``;
    ``flat[k] = dst[k] * n + src[k]``. ``from_dense`` lists them in
    row-major order.
    """

    def __init__(self, n: int, dst: np.ndarray, src: np.ndarray, flat: np.ndarray,
                 weight: np.ndarray):
        self.n, self.dst, self.src, self.flat, self.weight = n, dst, src, flat, weight

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "Edges":
        n, values = a.shape[0], a.reshape(-1)
        flat = values.nonzero()[0]
        return cls(n, flat // n, flat % n, flat, values[flat])

    def select(self, keep: np.ndarray) -> "Edges":
        """The entries where the boolean ``keep`` is set."""
        return Edges(self.n, self.dst[keep], self.src[keep], self.flat[keep], self.weight[keep])

    def dense(self) -> np.ndarray:
        """The n x n matrix: the weights scattered into +0.0 everywhere else."""
        out = np.zeros((self.n, self.n))
        out.put(self.flat, self.weight)
        return out


@dataclass
class Graph:
    """One classification sample: adjacency edge list, node features, class index.

    The adjacency is symmetric 0/1 with a zero diagonal; self-loops are
    added only inside convolutions. ``edges``, its row-major nonzeros, is
    the graph's only structure, so everything held is O(n + E).
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
        edges = Edges.from_dense(a)
        if not np.all(edges.weight == 1.0):
            raise ContractError("adjacency entries must be 0 or 1")
        if np.any(edges.dst == edges.src):
            raise ContractError("adjacency diagonal must be zero")
        if not np.array_equal(np.sort(edges.src * edges.n + edges.dst), edges.flat):
            raise ContractError("adjacency must be symmetric")
        return cls(edges, Tensor(features), label)

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
        return Edges(n, dst, src, dst * n + src, inv_sqrt[dst] * inv_sqrt[src])

    @property
    def num_edges(self) -> int:
        return self.edges.flat.size // 2


def degree_one_hot(edges: Edges) -> np.ndarray:
    """One-hot node degrees bucketed at ``DEGREE_CAP``, an n x (DEGREE_CAP + 1) array."""
    degree = np.bincount(edges.dst, minlength=edges.n)
    f = np.zeros((edges.n, DEGREE_CAP + 1))
    f[np.arange(edges.n), np.minimum(degree, DEGREE_CAP)] = 1.0
    return f


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

    k: int
    assignments: list[int]
    seed: int

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
    """``IntegrityError`` naming the line of the first row set in ``bad``, if any."""
    if bad.any():
        raise IntegrityError(f"{_where(path, int(bad.argmax()))}: {problem}")


def _read_table(path: str, width: int) -> np.ndarray:
    """The non-blank lines of a TU file of ``width`` comma-separated integers,
    as an int64 array of shape (rows, width).

    numpy's C parser reads every row; the lines are walked only to name a
    row it rejects.
    """
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
    pairs: np.ndarray, graph_of: np.ndarray, local: np.ndarray, sizes: np.ndarray
) -> list[Edges]:
    """Each graph's row-major edge list from ``pairs``, (u, v) rows of global
    node ids with u != v in one graph: both directions, repeats merged.

    One sort orders all graphs' entries, keyed ``start[g] + flat``; the
    lists are slices of arrays they share.
    """
    start = np.concatenate(([0], np.cumsum(sizes * sizes)))
    dst, src = np.concatenate([pairs, pairs[:, ::-1]]).T
    g = graph_of[dst]
    key = np.sort(start[g] + local[dst] * sizes[g] + local[src])
    key = key[np.diff(key, prepend=-1) != 0]  # sorted: a repeat follows its first copy
    g = np.searchsorted(start, key, side="right") - 1
    flat = key - start[g]
    dst, src = np.divmod(flat, sizes[g])
    weight = np.ones(key.size)
    bounds = np.searchsorted(key, start).tolist()
    return [
        Edges(n, dst[lo:hi], src[lo:hi], flat[lo:hi], weight[lo:hi])
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
    graph_ids = _read_table(ind_path, 1)[:, 0]
    n_nodes = graph_ids.size
    if not n_nodes:
        raise IngestError(f"empty indicator file: {ind_path}")
    # Every graph has a node, so no id can exceed the node count.
    _reject(ind_path, (graph_ids < 1) | (graph_ids > n_nodes), f"graph id outside 1..{n_nodes}")
    graph_of = graph_ids - 1
    sizes = np.bincount(graph_of)
    if not sizes.all():
        raise IntegrityError(f"{name}: graph with zero nodes in indicator file")
    # The nodes graph by graph, ascending ids inside a graph, and each
    # node's index in its graph.
    order = np.argsort(graph_of, kind="stable")
    local = np.empty(n_nodes, dtype=np.int64)
    local[order] = np.arange(n_nodes) - np.repeat(np.cumsum(sizes) - sizes, sizes)

    raw_labels = _read_table(path_of("graph_labels"), 1)[:, 0]
    if raw_labels.size != sizes.size:
        raise IntegrityError(f"{name}: {raw_labels.size} graph labels for {sizes.size} graphs")
    values, first, inverse = np.unique(raw_labels, return_index=True, return_inverse=True)
    labels = np.argsort(np.argsort(first))[inverse].tolist()  # classes in first-seen order

    # Both ends of every edge line, as global 0-based node ids.
    a_path = path_of("A")
    ends = _read_table(a_path, 2)
    _reject(a_path, ((ends < 1) | (ends > n_nodes)).any(axis=1), f"node id outside 1..{n_nodes}")
    ends -= 1
    owner = graph_of[ends]
    _reject(a_path, owner[:, 0] != owner[:, 1], "edge joins nodes of two graphs")
    # The diagonal stays zero; self-loops live inside convolutions.
    edges = _edge_lists(ends[ends[:, 0] != ends[:, 1]], graph_of, local, sizes)

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

    if feature_mode == "node-label-one-hot":
        alphabet, col = np.unique(node_labels, return_inverse=True)
        dim = alphabet.size
        feats = np.split(np.eye(dim)[col[order]], np.cumsum(sizes)[:-1])
    elif feature_mode == "degree-one-hot":
        dim = DEGREE_CAP + 1
        feats = [degree_one_hot(e) for e in edges]
    else:
        dim = 1
        feats = [np.ones((sz, 1)) for sz in sizes]

    graphs = [
        Graph(edges=e, features=Tensor(f), label=lab)
        for e, f, lab in zip(edges, feats, labels)
    ]
    return Dataset(
        name=name,
        graphs=graphs,
        num_classes=values.size,
        feature_dim=dim,
        feature_mode=feature_mode,
    )


def make_folds(dataset: Dataset, k: int, seed: int) -> FoldPlan:
    """Stratified fold assignment: per-class round-robin after a seeded shuffle.

    A single counter runs across classes so fold sizes differ by at most one
    overall, while each class spreads as evenly as the counts allow.
    """
    n = len(dataset.graphs)
    if not 2 <= k <= n:
        raise ContractError(f"fold count {k} outside [2, {n}]")
    rng = np.random.default_rng(seed)
    assignments = [0] * n
    counter = 0
    for cls in range(dataset.num_classes):
        members = [i for i, g in enumerate(dataset.graphs) if g.label == cls]
        rng.shuffle(members)
        for i in members:
            assignments[i] = counter % k
            counter += 1
    return FoldPlan(k=k, assignments=assignments, seed=seed)


def stratified_subset(dataset: Dataset, size: int, seed: int) -> Dataset:
    """A class-balanced subsample of ``size`` graphs (at most the full set)."""
    if size >= len(dataset.graphs):
        return dataset
    rng = np.random.default_rng(seed)
    per_class: list[list[int]] = [[] for _ in range(dataset.num_classes)]
    for i, g in enumerate(dataset.graphs):
        per_class[g.label].append(i)
    for members in per_class:
        rng.shuffle(members)
    picked: list[int] = []
    slot = 0
    while len(picked) < size:
        took = False
        for members in per_class:
            if slot < len(members) and len(picked) < size:
                picked.append(members[slot])
                took = True
        if not took:
            break
        slot += 1
    picked.sort()
    return Dataset(
        name=f"{dataset.name}-subset{size}",
        graphs=[dataset.graphs[i] for i in picked],
        num_classes=dataset.num_classes,
        feature_dim=dataset.feature_dim,
        feature_mode=dataset.feature_mode,
    )


def graph_stats(dataset: Dataset) -> dict:
    """Exact corpus summary used by the ``stats`` command."""
    sizes = [g.n for g in dataset.graphs]
    total_nodes = sum(sizes)
    total_degree = 2 * sum(g.num_edges for g in dataset.graphs)
    histogram = [0] * dataset.num_classes
    for g in dataset.graphs:
        histogram[g.label] += 1
    return {
        "name": dataset.name,
        "graphs": len(dataset.graphs),
        "classes": dataset.num_classes,
        "max_nodes": max(sizes),
        "mean_nodes": total_nodes / len(sizes),
        "mean_degree": total_degree / total_nodes,
        "class_histogram": histogram,
        "feature_dim": dataset.feature_dim,
        "feature_mode": dataset.feature_mode,
    }
