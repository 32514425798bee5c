import importlib.util
import os

import numpy as np
import pytest

from sshpool.data import Graph


def load_bench_module(name):
    """Import ``bench/<name>.py`` by path, keeping ``bench/`` off ``sys.path``.

    ``corpora`` holds the one chordal-ring generator, the one that writes
    ``tests/_desk_corpus``; ``bench/`` also has its own ``conftest.py``.
    """
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_corpora = load_bench_module("corpora")
write_chordal_corpus = _corpora.write_chordal_corpus
write_large_corpus = _corpora.write_large_corpus


def make_graph(edges, n, features=None, label=0, d=4, seed=0):
    """Small undirected graph with optional random features."""
    adj = np.zeros((n, n))
    for i, j in edges:
        adj[i, j] = adj[j, i] = 1.0
    if features is None:
        features = np.random.default_rng(seed).normal(size=(n, d))
    return Graph.from_dense(adj, features, label)


def random_graph(rng, n_lo=3, n_hi=10, p=0.4, d=4):
    n = int(rng.integers(n_lo, n_hi + 1))
    upper = np.triu((rng.random((n, n)) < p).astype(float), k=1)
    adj = upper + upper.T
    return Graph.from_dense(adj, rng.normal(size=(n, d)), int(rng.integers(2)))


def write_tu(directory, name, graphs, node_labels=None):
    """Write graphs as TU-format files.

    ``graphs`` is a list of (edges, n, label); ``node_labels`` an optional
    parallel list of per-node label lists.
    """
    directory.mkdir(parents=True, exist_ok=True)
    edge_lines, indicator, labels, nl_lines = [], [], [], []
    offset = 1
    for gi, (edges, n, label) in enumerate(graphs):
        for _ in range(n):
            indicator.append(str(gi + 1))
        if node_labels is not None:
            nl_lines.extend(str(v) for v in node_labels[gi])
        for i, j in edges:
            edge_lines.append(f"{offset + i}, {offset + j}")
        labels.append(str(label))
        offset += n

    (directory / f"{name}_A.txt").write_text("\n".join(edge_lines) + "\n")
    (directory / f"{name}_graph_indicator.txt").write_text("\n".join(indicator) + "\n")
    (directory / f"{name}_graph_labels.txt").write_text("\n".join(labels) + "\n")
    if node_labels is not None:
        (directory / f"{name}_node_labels.txt").write_text("\n".join(nl_lines) + "\n")
    return directory


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
