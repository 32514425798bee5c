"""Seeded TU-format corpora for the benchmark workloads.

The program under test only ever sees the text files written here; the
benchmark seed decides their contents and nothing else.

``write_chordal_corpus`` is the chordal-ring corpus of the desk-scale
acceptance run: ring graphs of 8-20 nodes with extra chords, where class 1
chords close triangles and class 0 chords never do. At seed 101 with 344
graphs it writes ``tests/_desk_corpus`` byte for byte, so the ``desk-*``
workloads run on the acceptance corpus; any other seed gives a fresh corpus
drawn from the same distribution.

``write_large_corpus`` writes sparse 150-300-node graphs (D&D-sized) with a
``_node_labels.txt`` file over a 32-label alphabet, so ingestion takes the
node-label one-hot path.
"""

from __future__ import annotations

import os

import numpy as np

LABEL_ALPHABET = 32


def _write(directory: str, name: str, suffix: str, lines: list[str]) -> None:
    path = os.path.join(directory, f"{name}_{suffix}.txt")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _cycle(n: int) -> np.ndarray:
    a = np.zeros((n, n))
    i = np.arange(n)
    a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    return a


def _chordal_ring(rng: np.random.Generator, label: int) -> np.ndarray:
    # The draw order below is what makes seed 101 reproduce the acceptance
    # corpus; change it and the byte-identity check fails.
    n = int(rng.integers(8, 21))
    adj = _cycle(n)
    chords = max(2, n // 3)
    if label == 1:
        for i in rng.choice(n, size=min(chords, n), replace=False):
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


def _write_graphs(directory: str, name: str, graphs, node_labels=None) -> None:
    """Write ``(adjacency, raw_label)`` pairs as TU files, both edge directions."""
    os.makedirs(directory, exist_ok=True)
    edges, indicator, labels = [], [], []
    next_id = 1
    for g, (adj, label) in enumerate(graphs):
        n = adj.shape[0]
        indicator.extend([str(g + 1)] * n)
        rows, cols = np.nonzero(adj)
        edges.extend(f"{next_id + i}, {next_id + j}" for i, j in zip(rows, cols))
        labels.append(str(label))
        next_id += n
    _write(directory, name, "A", edges)
    _write(directory, name, "graph_indicator", indicator)
    _write(directory, name, "graph_labels", labels)
    if node_labels is not None:
        _write(directory, name, "node_labels", [str(v) for v in node_labels])


def write_chordal_corpus(directory: str, name: str, num_graphs: int, seed: int) -> None:
    """Alternating-class chordal rings; raw graph labels are 1 and -1."""
    rng = np.random.default_rng(seed)
    graphs = []
    for g in range(num_graphs):
        label = g % 2
        graphs.append((_chordal_ring(rng, label), 1 if label == 1 else -1))
    _write_graphs(directory, name, graphs)


def _large_graph(rng: np.random.Generator, n: int, label: int) -> np.ndarray:
    """A ring of ``n`` nodes plus n/2 chords; class 1 chords close triangles."""
    adj = _cycle(n)
    starts = rng.choice(n, size=n // 2, replace=False)
    if label == 1:
        ends = (starts + 2) % n
    else:
        ends = (starts + rng.integers(3, 12, size=starts.size)) % n
    adj[starts, ends] = adj[ends, starts] = 1.0
    return adj


def write_large_corpus(directory: str, name: str, num_graphs: int, seed: int) -> None:
    """Sparse large graphs with node labels drawn from a 32-label alphabet.

    Node i of the first graph carries label i for i < 32, so every corpus
    uses the whole alphabet and the feature width never depends on the seed.
    Graph sizes cover 150-300 nodes evenly, in an order the seed shuffles, so
    the corpus's cost and memory depend little on the seed.
    """
    rng = np.random.default_rng(seed)
    sizes = rng.permutation(150 + np.arange(num_graphs) * 151 // num_graphs)
    graphs, node_labels = [], []
    for g in range(num_graphs):
        label = g % 2
        adj = _large_graph(rng, int(sizes[g]), label)
        # Class 1 favours the low half of the alphabet, class 0 the high half.
        weights = np.where(np.arange(LABEL_ALPHABET) < LABEL_ALPHABET // 2, 2.0, 1.0)
        if label == 0:
            weights = weights[::-1]
        labs = rng.choice(LABEL_ALPHABET, size=adj.shape[0], p=weights / weights.sum())
        if g == 0:
            labs[:LABEL_ALPHABET] = np.arange(LABEL_ALPHABET)
        graphs.append((adj, label))
        node_labels.extend(int(v) for v in labs)
    _write_graphs(directory, name, graphs, node_labels)
