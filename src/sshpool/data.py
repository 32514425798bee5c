"""Graph containers, TU-format ingestion, fold splitting, and dataset stats.

The TU layout is plain text: ``{name}_A.txt`` holds one 1-based ``i, j``
edge per line, ``{name}_graph_indicator.txt`` maps each node line to a
1-based graph id, ``{name}_graph_labels.txt`` holds one label per graph,
and ``{name}_node_labels.txt`` is optional. Edge-weight and edge-label
files are ignored; the model consumes unweighted adjacency only.
"""

from __future__ import annotations

import os
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
    """One classification sample: adjacency, node features, class index.

    Adjacency is symmetric 0/1 with a zero diagonal; self-loops are added
    only inside convolutions. Neither matrix participates in gradients.
    ``edges`` and ``gcn_norm`` are derived from the adjacency on first use
    and kept; both are O(n + E), so no n x n matrix is cached.
    """

    adjacency: Tensor
    features: Tensor
    label: int

    def __post_init__(self):
        a = self.adjacency.data
        if a.shape[0] != a.shape[1]:
            raise ContractError(f"adjacency must be square, got {a.shape}")
        if self.features.rows != a.shape[0]:
            raise ContractError(
                f"feature rows {self.features.rows} != node count {a.shape[0]}"
            )

    @property
    def n(self) -> int:
        return self.adjacency.rows

    @cached_property
    def edges(self) -> Edges:
        """A's nonzeros, row-major; the adjacency becomes read-only.

        Checks the adjacency contract once: 0/1 entries, a zero diagonal,
        symmetry (square is checked on construction).
        """
        a = self.adjacency.data
        edges = Edges.from_dense(a)
        if not np.all(edges.weight == 1.0):
            raise ContractError("adjacency entries must be 0 or 1")
        if np.any(edges.dst == edges.src):
            raise ContractError("adjacency diagonal must be zero")
        if not np.array_equal(np.sort(edges.src * edges.n + edges.dst), edges.flat):
            raise ContractError("adjacency must be symmetric")
        a.flags.writeable = False
        return edges

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


def _read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


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


def _parse_int(token: str, path: str, lineno: int) -> int:
    try:
        return int(token.strip())
    except ValueError:
        raise ParseError(
            f"{os.path.basename(path)}:{lineno}: expected integer, got {token.strip()!r}"
        ) from None


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
    indicator: list[int] = []
    for lineno, line in enumerate(_read_lines(ind_path), start=1):
        if not line.strip():
            continue
        gid = _parse_int(line, ind_path, lineno)
        if gid < 1:
            raise IntegrityError(f"{os.path.basename(ind_path)}:{lineno}: graph id {gid} < 1")
        indicator.append(gid - 1)
    if not indicator:
        raise IngestError(f"empty indicator file: {ind_path}")
    num_graphs = max(indicator) + 1

    # Global 0-based node id -> (graph, local index in ascending id order).
    local_index: list[int] = []
    sizes = [0] * num_graphs
    for gid in indicator:
        local_index.append(sizes[gid])
        sizes[gid] += 1
    if min(sizes) == 0:
        raise IntegrityError(f"{name}: graph with zero nodes in indicator file")

    lab_path = path_of("graph_labels")
    raw_labels = [
        _parse_int(line, lab_path, lineno)
        for lineno, line in enumerate(_read_lines(lab_path), start=1)
        if line.strip()
    ]
    if len(raw_labels) != num_graphs:
        raise IntegrityError(
            f"{name}: {len(raw_labels)} graph labels for {num_graphs} graphs"
        )
    remap: dict[int, int] = {}
    labels = []
    for raw in raw_labels:
        if raw not in remap:
            remap[raw] = len(remap)
        labels.append(remap[raw])

    adj = [np.zeros((sz, sz)) for sz in sizes]
    a_path = path_of("A")
    n_nodes = len(indicator)
    for lineno, line in enumerate(_read_lines(a_path), start=1):
        if not line.strip():
            continue
        tokens = line.split(",")
        if len(tokens) != 2:
            raise ParseError(
                f"{os.path.basename(a_path)}:{lineno}: expected 'i, j', got {line.strip()!r}"
            )
        i = _parse_int(tokens[0], a_path, lineno)
        j = _parse_int(tokens[1], a_path, lineno)
        if not (1 <= i <= n_nodes and 1 <= j <= n_nodes):
            raise IntegrityError(
                f"{os.path.basename(a_path)}:{lineno}: node id outside 1..{n_nodes}"
            )
        u, v = i - 1, j - 1
        if indicator[u] != indicator[v]:
            raise IntegrityError(
                f"{os.path.basename(a_path)}:{lineno}: edge crosses graphs "
                f"{indicator[u] + 1} and {indicator[v] + 1}"
            )
        if u == v:
            continue  # diagonal stays zero; self-loops live inside convolutions
        g = indicator[u]
        adj[g][local_index[u], local_index[v]] = 1.0
        adj[g][local_index[v], local_index[u]] = 1.0

    node_labels: list[int] | None = None
    nl_path = path_of("node_labels")
    if os.path.isfile(nl_path):
        node_labels = [
            _parse_int(line, nl_path, lineno)
            for lineno, line in enumerate(_read_lines(nl_path), start=1)
            if line.strip()
        ]
        if len(node_labels) != n_nodes:
            raise IntegrityError(
                f"{name}: {len(node_labels)} node labels for {n_nodes} nodes"
            )

    if feature_mode is None:
        feature_mode = "node-label-one-hot" if node_labels is not None else "degree-one-hot"
    if feature_mode == "node-label-one-hot" and node_labels is None:
        raise IngestError(f"missing dataset file: {nl_path}")

    if feature_mode == "node-label-one-hot":
        alphabet = sorted(set(node_labels))
        col = {lab: c for c, lab in enumerate(alphabet)}
        dim = len(alphabet)
        feats = [np.zeros((sz, dim)) for sz in sizes]
        for node, lab in enumerate(node_labels):
            feats[indicator[node]][local_index[node], col[lab]] = 1.0
    elif feature_mode == "degree-one-hot":
        dim = DEGREE_CAP + 1
        feats = []
        for a in adj:
            f = np.zeros((a.shape[0], dim))
            deg = a.sum(axis=1).astype(int)
            f[np.arange(a.shape[0]), np.minimum(deg, DEGREE_CAP)] = 1.0
            feats.append(f)
    else:
        dim = 1
        feats = [np.ones((sz, 1)) for sz in sizes]

    graphs = [
        Graph(adjacency=Tensor(a), features=Tensor(f), label=lab)
        for a, f, lab in zip(adj, feats, labels)
    ]
    return Dataset(
        name=name,
        graphs=graphs,
        num_classes=len(remap),
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
