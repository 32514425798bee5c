"""Synthetic graph corpora for smoke tests and desk-scale experiments.

Two generators. ``triangle_dataset`` is a tiny two-class set separable by
triangle density (cliques against cycles) used for overfit smoke tests.
``write_tu_corpus`` emits a larger two-class corpus in TU text format:
every graph is a ring with extra chords, and the classes differ only in
where the chords land — class 1 chords span two ring steps and close
triangles, class 0 chords span at least three and close none. Chord
counts match, so degree histograms match across classes and the class
signal is purely structural (triangle density), not a feature histogram
a global readout could sum up.
"""

from __future__ import annotations

import os

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


def _chordal_ring(rng: np.random.Generator, label: int) -> np.ndarray:
    """Ring plus chords; class 1 chords close triangles, class 0 never do."""
    n = int(rng.integers(8, 21))
    adj = _cycle(n)
    chords = max(2, n // 3)
    if label == 1:
        starts = rng.choice(n, size=min(chords, n), replace=False)
        for i in starts:
            adj[i, (i + 2) % n] = adj[(i + 2) % n, i] = 1.0
    else:
        placed = 0
        while placed < chords:
            i = int(rng.integers(n))
            j = (i + 3 + int(rng.integers(max(1, n - 6)))) % n
            if i != j and adj[i, j] == 0.0:
                adj[i, j] = adj[j, i] = 1.0
                placed += 1
    return adj


def write_tu_corpus(directory: str, name: str, num_graphs: int = 344, seed: int = 0) -> str:
    """Write the two-class chordal-ring corpus in TU text format.

    No node-label file is emitted, so ingestion falls back to degree
    one-hot features. Graph labels alternate and are stored as {1, -1} to
    mirror raw label values seen in the wild. Returns the directory.
    """
    rng = np.random.default_rng(seed)
    os.makedirs(directory, exist_ok=True)
    edge_lines: list[str] = []
    indicator_lines: list[str] = []
    label_lines: list[str] = []
    next_id = 1
    for g in range(num_graphs):
        label = g % 2
        adj = _chordal_ring(rng, label)
        n = adj.shape[0]
        for i in range(n):
            indicator_lines.append(str(g + 1))
            for j in range(n):
                if adj[i, j] > 0:
                    edge_lines.append(f"{next_id + i}, {next_id + j}")
        label_lines.append("1" if label == 1 else "-1")
        next_id += n

    def dump(suffix: str, lines: list[str]) -> None:
        with open(
            os.path.join(directory, f"{name}_{suffix}.txt"),
            "w",
            encoding="utf-8",
            newline="\n",
        ) as fh:
            fh.write("\n".join(lines) + "\n")

    dump("A", edge_lines)
    dump("graph_indicator", indicator_lines)
    dump("graph_labels", label_lines)
    return directory
