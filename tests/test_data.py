import json
import os
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from sshpool.data import (
    DEGREE_CAP,
    Dataset,
    Edges,
    Graph,
    _read_table,
    atomic_open,
    graph_stats,
    load_tu_dataset,
    make_folds,
    stratified_subset,
)
from sshpool.errors import ContractError, IngestError, IntegrityError, ParseError
from sshpool.model import ModelConfig, ModelParams, forward
from sshpool.synth import triangle_dataset
from sshpool.tensor import Tensor

from conftest import make_graph, random_graph, write_chordal_corpus, write_large_corpus, write_tu

TRIANGLE = [(0, 1), (1, 2), (0, 2)]

# Real TU corpora are optional; the paper-table checks run only when the
# environment provides them (TU_DATA_DIR or ./data).
TU_DATA_DIR = os.environ.get("TU_DATA_DIR", os.path.join(os.path.dirname(__file__), "..", "data"))


def tu_available(name):
    return os.path.isfile(os.path.join(TU_DATA_DIR, name, f"{name}_A.txt"))


def row_major_keys(edges):
    """Each entry's position ``dst * n + src`` in the flattened n x n matrix."""
    return edges.dst * edges.n + edges.src


def dense_reference(directory, name):
    """Each graph's adjacency and degree one-hots built densely, one A line
    at a time: the loader's former construction."""
    text = lambda suffix: (directory / f"{name}_{suffix}.txt").read_text()
    gids = [int(t) - 1 for t in text("graph_indicator").split()]
    sizes, local = [0] * (max(gids) + 1), []
    for g in gids:
        local.append(sizes[g])
        sizes[g] += 1
    adj = [np.zeros((n, n)) for n in sizes]
    for line in text("A").splitlines():
        if line.strip():
            u, v = (int(t) - 1 for t in line.split(","))
            if u != v:
                adj[gids[u]][local[u], local[v]] = adj[gids[u]][local[v], local[u]] = 1.0
    feats = []
    for a in adj:
        f = np.zeros((a.shape[0], DEGREE_CAP + 1))
        f[np.arange(a.shape[0]), np.minimum(a.sum(axis=1).astype(int), DEGREE_CAP)] = 1.0
        feats.append(f)
    return adj, feats


# (A lines, graph indicator lines) of two-graph corpora, written as given.
EDGE_CASES = {
    "duplicate-lines": ("1, 2\n1, 2\n2, 1\n2, 3\n4, 5\n5, 4\n4, 5\n", "1\n1\n1\n2\n2\n"),
    "one-direction": ("1, 2\n1, 3\n2, 3\n5, 4\n", "1\n1\n1\n2\n2\n"),
    "self-loops": ("1, 1\n1, 2\n2, 2\n3, 3\n4, 4\n4, 5\n", "1\n1\n1\n2\n2\n"),
    "interleaved-ids": ("5, 1\n3, 5\n4, 2\n1, 3\n6, 2\n", "1\n2\n1\n2\n1\n2\n"),
    "one-edgeless": ("4, 5\n5, 3\n", "1\n1\n2\n2\n2\n"),
    "no-edges": ("", "1\n1\n2\n2\n2\n"),
    "blank-lines": ("\n1, 2\n  \n2, 3\n\t\n4, 5\n\n", "\n1\n1\n \n1\n2\n\n2\n"),
}


class TestLoadTU:
    def test_two_triangles_smallest_corpus(self, tmp_path):
        write_tu(tmp_path, "tiny", [(TRIANGLE, 3, 1), (TRIANGLE, 3, -1)])
        ds = load_tu_dataset(str(tmp_path), "tiny")
        assert len(ds.graphs) == 2
        assert ds.num_classes == 2
        # first-seen raw label (1) maps to class 0
        assert [g.label for g in ds.graphs] == [0, 1]
        assert ds.feature_mode == "degree-one-hot"
        assert ds.feature_dim == 64

    def test_symmetrization_idempotent(self, tmp_path):
        d1 = write_tu(tmp_path / "a", "x", [([(0, 1)], 2, 1)])
        ds1 = load_tu_dataset(str(d1), "x")
        d2 = tmp_path / "b"
        write_tu(d2, "x", [([(0, 1), (1, 0)], 2, 1)])
        ds2 = load_tu_dataset(str(d2), "x")
        assert np.array_equal(ds1.graphs[0].adjacency.data, ds2.graphs[0].adjacency.data)
        assert ds1.graphs[0].adjacency.data.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_loading_twice_identical(self, tmp_path):
        write_tu(tmp_path, "twice", [(TRIANGLE, 3, 2), ([(0, 1)], 2, 5)])
        a = load_tu_dataset(str(tmp_path), "twice")
        b = load_tu_dataset(str(tmp_path), "twice")
        for ga, gb in zip(a.graphs, b.graphs):
            assert np.array_equal(ga.adjacency.data, gb.adjacency.data)
            assert np.array_equal(ga.features.data, gb.features.data)
            assert ga.label == gb.label

    def test_adjacency_invariants(self, tmp_path):
        write_chordal_corpus(str(tmp_path), "synth", 12, 5)
        ds = load_tu_dataset(str(tmp_path), "synth")
        total_nodes = 0
        for g in ds.graphs:
            a = g.adjacency.data
            assert np.array_equal(a, a.T)
            assert np.all(np.diag(a) == 0)
            assert set(np.unique(a)) <= {0.0, 1.0}
            total_nodes += g.n
        lines = (tmp_path / "synth_graph_indicator.txt").read_text().splitlines()
        assert total_nodes == len([l for l in lines if l.strip()])

    @pytest.mark.filterwarnings("error")  # an empty _A.txt loads without a warning too
    @pytest.mark.parametrize("case", sorted(EDGE_CASES) + ["desk-corpus"])
    def test_edge_lists_match_dense_construction(self, tmp_path, case):
        if case == "desk-corpus":
            directory, name = pathlib.Path(__file__).parent / "_desk_corpus", "chordal"
        else:
            directory, name = tmp_path, "e"
            a_text, indicator = EDGE_CASES[case]
            (tmp_path / "e_A.txt").write_text(a_text)
            (tmp_path / "e_graph_indicator.txt").write_text(indicator)
            (tmp_path / "e_graph_labels.txt").write_text("1\n2\n")
        ds = load_tu_dataset(str(directory), name)
        adj, feats = dense_reference(directory, name)
        assert len(ds.graphs) == len(adj)
        for g, a, f in zip(ds.graphs, adj, feats):
            want = Graph.from_dense(a, f, g.label)
            assert g.n == want.n
            for field in ("dst", "src", "weight"):
                got, expected = getattr(g.edges, field), getattr(want.edges, field)
                assert got.dtype == expected.dtype and np.array_equal(got, expected)
            got, expected = row_major_keys(g.edges), row_major_keys(want.edges)
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
            assert np.array_equal(g.features.data, want.features.data)

    def test_loading_allocates_no_dense_adjacency(self, tmp_path):
        n = 2000
        write_tu(tmp_path, "ring", [([(i, (i + 1) % n) for i in range(n)], n, 1)])
        tracemalloc.start()
        try:
            ds = load_tu_dataset(str(tmp_path), "ring")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 8  # a dense float64 adjacency takes 32 MB
        g = ds.graphs[0]
        g.gcn_norm
        assert set(vars(g)) == {"edges", "features", "label", "gcn_norm"}
        for part in (g.edges, g.gcn_norm):
            arrays = [v for v in vars(part).values() if isinstance(v, np.ndarray)]
            assert len(arrays) == 3 and all(v.ndim == 1 for v in arrays)

    def test_node_label_features(self, tmp_path):
        write_tu(
            tmp_path,
            "nl",
            [(TRIANGLE, 3, 1), ([(0, 1)], 2, 2)],
            node_labels=[[7, 3, 7], [3, 3]],
        )
        ds = load_tu_dataset(str(tmp_path), "nl")
        assert ds.feature_mode == "node-label-one-hot"
        assert ds.feature_dim == 2  # alphabet {3, 7}
        # node 0 of graph 0 has label 7 -> second column of the sorted alphabet
        assert ds.graphs[0].features.data[0].tolist() == [0.0, 1.0]
        assert ds.graphs[0].features.data[1].tolist() == [1.0, 0.0]

    def test_node_label_features_match_per_node_scatter(self, tmp_path):
        # Graph ids interleave, so each graph's rows are its nodes in id order.
        indicator, node_labels = [1, 2, 1, 2, 1, 2, 2], [5, 9, 7, 5, 9, 9, -1]
        (tmp_path / "il_A.txt").write_text("1, 3\n3, 5\n2, 4\n6, 7\n")
        (tmp_path / "il_graph_indicator.txt").write_text("".join(f"{g}\n" for g in indicator))
        (tmp_path / "il_graph_labels.txt").write_text("4\n2\n")
        (tmp_path / "il_node_labels.txt").write_text("".join(f"{v}\n" for v in node_labels))
        ds = load_tu_dataset(str(tmp_path), "il")
        alphabet = sorted(set(node_labels))
        want = [[], []]
        for g, v in zip(indicator, node_labels):
            row = [0.0] * len(alphabet)
            row[alphabet.index(v)] = 1.0
            want[g - 1].append(row)
        assert ds.feature_dim == len(alphabet)
        assert [g.features.data.tolist() for g in ds.graphs] == want

    def test_degree_capped(self, tmp_path):
        star = [(0, i) for i in range(1, 70)]
        write_tu(tmp_path, "star", [(star, 70, 1), ([(0, 1)], 2, 2)])
        ds = load_tu_dataset(str(tmp_path), "star", feature_mode="degree-one-hot")
        hub = ds.graphs[0].features.data[0]
        assert hub[63] == 1.0 and hub.sum() == 1.0

    def test_constant_features(self, tmp_path):
        write_tu(tmp_path, "c", [(TRIANGLE, 3, 1), ([(0, 1)], 2, 2)])
        ds = load_tu_dataset(str(tmp_path), "c", feature_mode="constant")
        assert ds.feature_dim == 1
        assert np.all(ds.graphs[0].features.data == 1.0)

    def test_missing_file_named(self, tmp_path):
        write_tu(tmp_path, "m", [(TRIANGLE, 3, 1)])
        (tmp_path / "m_graph_labels.txt").unlink()
        with pytest.raises(IngestError) as err:
            load_tu_dataset(str(tmp_path), "m")
        assert "m_graph_labels.txt" in str(err.value)

    def test_cross_graph_edge_reports_line(self, tmp_path):
        write_tu(tmp_path, "x", [(TRIANGLE, 3, 1), (TRIANGLE, 3, 2)])
        with open(tmp_path / "x_A.txt", "a") as fh:
            fh.write("1, 4\n")
        with pytest.raises(IntegrityError) as err:
            load_tu_dataset(str(tmp_path), "x")
        assert ":7:" in str(err.value)  # six triangle edge lines precede it

    def test_non_integer_token_reports_line(self, tmp_path):
        write_tu(tmp_path, "p", [(TRIANGLE, 3, 1)])
        (tmp_path / "p_A.txt").write_text("1, 2\nfoo, 3\n")
        with pytest.raises(ParseError) as err:
            load_tu_dataset(str(tmp_path), "p")
        assert ":2:" in str(err.value)

    @pytest.mark.parametrize(
        "suffix, text, error, line",
        [
            ("A", "1, 2\n\n   \nfoo, 3\n", ParseError, 4),
            ("A", "\t\n\n4\n1, 2\n", ParseError, 3),
            ("A", "1, 2\n \n2, 3, 1\n", ParseError, 3),
            ("A", "1, 2\n\n\n1, 99\n", IntegrityError, 4),
            ("A", "\n1, 2\n  \n1, 4\n", IntegrityError, 4),
            ("graph_indicator", "1\n\n1\n \n1\nx\n2\n2\n", ParseError, 6),
            ("graph_indicator", "1\n \n1\n\n0\n2\n2\n2\n", IntegrityError, 5),
            ("graph_indicator", "1\n1\n\n1000000000000000\n2\n2\n", IntegrityError, 4),
            ("graph_labels", "\n\t\n1.5\n2\n", ParseError, 3),
        ],
    )
    def test_error_names_the_line_counting_blank_lines(self, tmp_path, suffix, text, error,
                                                       line):
        write_tu(tmp_path, "l", [(TRIANGLE, 3, 1), ([(0, 1), (1, 2)], 3, 2)])
        (tmp_path / f"l_{suffix}.txt").write_text(text)
        with pytest.raises(error) as err:
            load_tu_dataset(str(tmp_path), "l")
        assert str(err.value).startswith(f"l_{suffix}.txt:{line}: ")

    def test_node_id_out_of_range(self, tmp_path):
        write_tu(tmp_path, "r", [(TRIANGLE, 3, 1)])
        (tmp_path / "r_A.txt").write_text("1, 99\n")
        with pytest.raises(IntegrityError):
            load_tu_dataset(str(tmp_path), "r")


class TestWholeArrayIngest:
    @pytest.mark.parametrize("bad_id", ["7", "-1"])
    def test_out_of_range_id_rejected_before_any_gather(self, tmp_path, bad_id):
        # Line 2 joins the two triangles; line 5's id would index past the
        # end (7) or wrap around (-1) if any array were gathered first.
        write_tu(tmp_path, "o", [(TRIANGLE, 3, 1), (TRIANGLE, 3, 2)])
        (tmp_path / "o_A.txt").write_text(f"1, 2\n1, 4\n2, 3\n4, 5\n5, {bad_id}\n")
        with pytest.raises(IntegrityError) as err:
            load_tu_dataset(str(tmp_path), "o")
        assert str(err.value) == "o_A.txt:5: node id outside 1..6"

    @pytest.mark.parametrize("corpus", ["desk", "large"])
    def test_peak_memory_at_most_one_and_a_half_times_the_dataset(self, tmp_path, corpus):
        if corpus == "desk":
            directory, name = pathlib.Path(__file__).parent / "_desk_corpus", "chordal"
        else:
            directory, name = tmp_path, "large"
            write_large_corpus(str(directory), name, 130, 3)
        tracemalloc.start()
        try:
            ds = load_tu_dataset(str(directory), name)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ds) == (344 if corpus == "desk" else 130)
        assert peak <= 1.5 * kept


# (file suffix, edit of its text, expected error class); non-integer A
# tokens, ids past the end and cross-graph edges are covered in TestLoadTU.
MALFORMED = {
    "truncated-A-line": ("A", lambda t: t + "4,\n", ParseError),
    "A-line-one-token": ("A", lambda t: t + "4\n", ParseError),
    "A-three-tokens": ("A", lambda t: t + "4, 5, 6\n", ParseError),
    "non-integer-indicator": ("graph_indicator", lambda t: t.replace("2", "two", 1), ParseError),
    "non-integer-label": ("graph_labels", lambda t: "x\n" + t, ParseError),
    "node-id-zero": ("A", lambda t: t + "0, 1\n", IntegrityError),
    "negative-node-id": ("A", lambda t: t + "-1, 2\n", IntegrityError),
    "indicator-gap": ("graph_indicator", lambda t: t.replace("2", "3"), IntegrityError),
    "indicator-zero": ("graph_indicator", lambda t: t.replace("1", "0", 1), IntegrityError),
    "empty-indicator": ("graph_indicator", lambda t: "\n", IngestError),
    "too-few-labels": ("graph_labels", lambda t: t.splitlines()[0] + "\n", IntegrityError),
    "too-many-labels": ("graph_labels", lambda t: t + "1\n", IntegrityError),
    "too-few-node-labels": ("node_labels", lambda t: t.split("\n", 1)[1], IntegrityError),
    "too-many-node-labels": ("node_labels", lambda t: t + "1\n", IntegrityError),
    "non-integer-node-label": ("node_labels", lambda t: t.replace("2", "b", 1), ParseError),
    "comment-line": ("A", lambda t: "# edges\n" + t, ParseError),
    "graph-id-above-node-count": (
        "graph_indicator", lambda t: t.replace("2", "1000000000000000", 1), IntegrityError
    ),
}


class TestMalformedTU:
    """Broken TU files fail with the loader's error classes (exit 3), never
    with a traceback; degenerate but valid graphs load and run."""

    @staticmethod
    def corpus(tmp_path):
        # graph 1: nodes 1-3 (a triangle), graph 2: nodes 4-6 (a path)
        return write_tu(
            tmp_path, "bad", [(TRIANGLE, 3, 1), ([(0, 1), (1, 2)], 3, 2)],
            node_labels=[[1, 2, 1], [2, 2, 1]],
        )

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_each_defect_has_its_error_class(self, tmp_path, case):
        suffix, edit, error = MALFORMED[case]
        path = self.corpus(tmp_path) / f"bad_{suffix}.txt"
        path.write_text(edit(path.read_text()))
        with pytest.raises(error):
            load_tu_dataset(str(tmp_path), "bad")

    def test_random_corruption_is_ingest_error_or_loads(self, tmp_path):
        rng = np.random.default_rng(4)
        alphabet = list("0123456789, -x\n")
        suffixes = ["A", "graph_indicator", "graph_labels", "node_labels"]
        outcomes = {"loaded": 0, "rejected": 0}
        for trial in range(300):
            directory = self.corpus(tmp_path / str(trial))
            path = directory / f"bad_{suffixes[trial % 4]}.txt"
            text = path.read_text()
            cut = int(rng.integers(len(text) + 1))
            kind = trial // 4 % 3
            if kind == 0:  # truncate
                text = text[:cut]
            elif kind == 1:  # insert a character
                text = text[:cut] + str(rng.choice(alphabet)) + text[cut:]
            else:  # delete a character
                text = text[:cut] + text[cut + 1 :]
            path.write_text(text)
            try:
                ds = load_tu_dataset(str(directory), "bad")
            except IngestError:
                outcomes["rejected"] += 1
                continue
            outcomes["loaded"] += 1
            for g in ds.graphs:
                a = g.adjacency.data
                assert np.array_equal(a, a.T) and not np.diag(a).any()
        assert outcomes["loaded"] > 0 and outcomes["rejected"] > 0

    @pytest.mark.parametrize("method", ["sshpool", "sshpool_non", "diffpool", "global_sum"])
    def test_degenerate_graphs_load_and_give_finite_logits(self, tmp_path, method):
        from sshpool.model import ModelConfig, ModelParams, forward
        from sshpool.trainer import TrainConfig, train_graphs

        graphs = [
            ([], 1, 1),  # one node
            ([], 4, 2),  # no edges
            ([(0, 0), (0, 1), (1, 1)], 2, 1),  # self-loop lines
            ([(0, 1), (1, 0), (0, 1), (1, 2)], 3, 2),  # duplicate edges
        ]
        write_tu(tmp_path, "deg", graphs)
        ds = load_tu_dataset(str(tmp_path), "deg")
        assert [g.n for g in ds.graphs] == [1, 4, 2, 3]
        assert [g.num_edges for g in ds.graphs] == [0, 0, 1, 2]
        variant = "sshpool" if method == "sshpool_non" else method
        config = ModelConfig(
            feature_dim_in=ds.feature_dim, num_classes=ds.num_classes, hidden_dim=8,
            layer_sizes=(8, 2), assignment_ratio=0.25, depth=2, dropout=0.0,
            variant=variant, attention_enabled=method != "sshpool_non",
        )
        params = ModelParams(config, seed=0)
        for g in ds.graphs:
            logits, _ = forward(g, params)
            assert logits.shape == (1, 2) and np.isfinite(logits.data).all()
        tc = TrainConfig(epochs=2, batch_size=2, folds=2, repeats=1, seed=0)
        result = train_graphs(ds, [0, 1, 2, 3], [], config, tc)
        assert all(np.isfinite(row["loss"]) for row in result.curve)


def table_reference(path, width):
    """A TU table read line by line from its definition: the non-blank
    ``str.splitlines`` lines, each ``width`` comma-separated decimal int64
    values; the first other line is a ``ParseError`` naming it."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        tokens = [t.strip() for t in line.split(",")]
        if len(tokens) != width or not all(
            re.fullmatch(r"[+-]?[0-9]+", t) and -(2**63) <= int(t) < 2**63 for t in tokens
        ):
            raise ParseError(
                f"{os.path.basename(path)}:{number}: expected {width} comma-separated "
                f"integer(s), got {line.strip()!r}"
            )
        rows.append([int(t) for t in tokens])
    return np.array(rows, dtype=np.int64).reshape(-1, width)


class TestReadTable:
    @staticmethod
    def outcome(read, path, width):
        try:
            return read(path, width).tolist()
        except (ParseError, UnicodeDecodeError) as exc:
            return type(exc), str(exc)

    def test_matches_line_by_line_reference_on_corrupted_files(self, tmp_path):
        # Besides blank, space-only and CRLF lines, the edits insert bytes
        # where str.splitlines ends a line and numpy does not (\v, \f, \x1c),
        # whitespace only one of them strips, and non-ASCII or non-UTF-8 bytes.
        rng = np.random.default_rng(8)
        alphabet = ["0", "1", "7", ",", " ", "-", "+", "\n", "\r", "\t", "\x0b", "\x0c",
                    "\x1c", "\x1f", "\xa0", "\x85", "x", "#", "\x00", "99999999999999999999"]
        texts = ["1,2\n3,4\n5,6\n", "1\n2\n1\n", "1, 2\r\n\r\n3 ,4\r\n"]
        path = str(tmp_path / "t_A.txt")
        for trial in range(1500):
            text = texts[trial % 3]
            for _ in range(int(rng.integers(4))):
                cut = int(rng.integers(len(text) + 1))
                kind = int(rng.integers(3))
                if kind == 0:
                    text = text[:cut]
                elif kind == 1:
                    text = text[:cut] + str(rng.choice(alphabet)) + text[cut:]
                else:
                    text = text[:cut] + text[cut + 1:]
            raw = text.encode("utf-8")
            if trial % 50 == 0:
                raw = raw[:2] + b"\xff" + raw[2:]
            with open(path, "wb") as fh:
                fh.write(raw)
            width = 1 if trial % 3 == 1 else 2
            assert self.outcome(_read_table, path, width) == self.outcome(
                table_reference, path, width
            ), raw


class TestGraphStructure:
    @pytest.mark.parametrize(
        "entries, broken",
        [
            ({(0, 1): 2.0, (1, 0): 2.0}, "0 or 1"),
            ({(0, 1): 0.5, (1, 0): 0.5}, "0 or 1"),
            ({(0, 1): np.nan, (1, 0): np.nan}, "0 or 1"),
            ({(0, 1): 1.0, (1, 0): 1.0, (2, 2): 1.0}, "diagonal"),
            ({(0, 1): 1.0}, "symmetric"),
            ({(0, 1): 1.0, (2, 1): 1.0}, "symmetric"),
        ],
        ids=["two", "half", "nan", "self-loop", "one-way", "mismatched"],
    )
    def test_contract_violation_names_the_property(self, entries, broken):
        adj = np.zeros((3, 3))
        for (u, v), w in entries.items():
            adj[u, v] = w
        with pytest.raises(ContractError, match=broken):
            Graph.from_dense(adj, np.ones((3, 1)), 0)

    def test_non_square_rejected_on_construction(self):
        with pytest.raises(ContractError, match="square"):
            Graph.from_dense(np.zeros((2, 3)), np.ones((2, 1)), 0)
        with pytest.raises(ContractError, match="feature rows"):
            Graph.from_dense(np.zeros((3, 3)), np.ones((2, 1)), 0)

    def test_edges_from_dense_match_the_index_arithmetic(self, rng):
        # ``from_dense`` splits the flat nonzero positions with one divmod and
        # gathers the weights with ``take``; both give what //, % and fancy
        # indexing give.
        cases = [np.zeros((1, 1)), np.ones((1, 1)), np.zeros((5, 5))]
        for n in rng.integers(1, 30, size=40):
            cases.append((rng.random((n, n)) < 0.3).astype(float))
            cases.append(rng.integers(0, 4, size=(n, n)).astype(float))
        for a in cases:
            edges, values = Edges.from_dense(a), a.reshape(-1)
            flat = values.nonzero()[0]
            for got, want in ((edges.dst, flat // len(a)), (edges.src, flat % len(a)),
                              (row_major_keys(edges), flat), (edges.weight, values[flat])):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert edges.n == len(a) and np.array_equal(edges.dense(), a)

    def test_adjacency_is_a_fresh_copy_of_the_edges(self):
        g = make_graph([(0, 1), (1, 2)], 3)
        a = g.adjacency.data
        assert a.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        a[0, 2] = 1.0  # editing a copy cannot put the edge list out of step
        assert row_major_keys(g.edges).tolist() == [1, 3, 5, 7]
        assert g.adjacency.data[0, 2] == 0.0 and g.adjacency.data is not a

    def test_structure_is_linear_in_nodes_and_edges(self, rng):
        # Features wider than any graph, so no n x f array is square.
        f = 40
        config = ModelConfig(feature_dim_in=f, num_classes=2, hidden_dim=6,
                             layer_sizes=(4, 2), depth=2, dropout=0.0)
        params = ModelParams(config, seed=0)
        for _ in range(20):
            g = random_graph(rng, n_lo=1, n_hi=30, d=f)
            e = g.edges.dst.size
            for part in (g.edges, g.gcn_norm):
                for arr in (part.dst, part.src, part.weight):
                    assert arr.ndim == 1 and arr.size <= g.n + e
            assert g.num_edges == int(g.adjacency.data.sum()) // 2
            forward(g, params)  # fills what a graph caches on its first forward
            assert {"gcn_norm", "propagated"} <= set(vars(g))
            for value in vars(g).values():
                if isinstance(value, Edges):
                    arrays = [value.dst, value.src, value.weight]
                else:
                    arrays = [getattr(value, "data", value)]
                for arr in (a for a in arrays if isinstance(a, np.ndarray)):
                    assert arr.size <= g.n * f + e
                    assert arr.shape != (g.n, g.n)


class TestAtomicWrite:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "report.json"
        with atomic_open(str(path)) as fh:
            fh.write("old\n")
        with pytest.raises(RuntimeError):
            with atomic_open(str(path)) as fh:
                fh.write("half of the new")
                raise RuntimeError("disk full")
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["report.json"]

    def test_success_replaces_file(self, tmp_path):
        path = tmp_path / "curves.csv"
        path.write_text("old\n")
        with atomic_open(str(path), newline="") as fh:
            fh.write("new\r\n")
        assert path.read_bytes() == b"new\r\n"
        assert os.listdir(tmp_path) == ["curves.csv"]


class TestFolds:
    def test_one_graph_per_fold(self):
        ds = triangle_dataset(10, seed=0)
        plan = make_folds(ds, 10, seed=1)
        assert sorted(plan.assignments) == list(range(10))

    def test_stratification_forced(self):
        ds = triangle_dataset(20, seed=0)  # alternating labels, 10 per class
        for seed in (0, 1, 17):
            plan = make_folds(ds, 10, seed=seed)
            for fold in range(10):
                labels = [ds.graphs[i].label for i in plan.test_indices(fold)]
                assert sorted(labels) == [0, 1]

    def test_deterministic(self):
        ds = triangle_dataset(20, seed=0)
        a = make_folds(ds, 7, seed=42)
        b = make_folds(ds, 7, seed=42)
        assert a.assignments == b.assignments

    def test_fold_sizes_differ_by_at_most_one(self):
        ds = triangle_dataset(20, seed=0)
        plan = make_folds(ds, 7, seed=3)
        sizes = [len(plan.test_indices(f)) for f in range(7)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 20

    def test_k_out_of_range(self):
        ds = triangle_dataset(4, seed=0)
        with pytest.raises(ContractError):
            make_folds(ds, 1, seed=0)
        with pytest.raises(ContractError):
            make_folds(ds, 5, seed=0)


class TestStats:
    def test_counts(self, tmp_path):
        write_tu(tmp_path, "s", [(TRIANGLE, 3, 1), ([], 5, 2)])
        ds = load_tu_dataset(str(tmp_path), "s")
        stats = graph_stats(ds)
        assert stats["graphs"] == 2
        assert stats["max_nodes"] == 5
        assert stats["mean_nodes"] == 4.0
        assert stats["class_histogram"] == [1, 1]

    def test_empty_edge_graph_mean_degree(self, tmp_path):
        write_tu(tmp_path, "e", [([], 5, 1), ([], 5, 2)])
        ds = load_tu_dataset(str(tmp_path), "e")
        assert graph_stats(ds)["mean_degree"] == 0.0

    def test_json_serializable(self):
        ds = triangle_dataset(6, seed=0)
        json.dumps(graph_stats(ds), sort_keys=True)


class TestStratifiedSubset:
    def test_balanced_and_deterministic(self):
        ds = triangle_dataset(40, seed=0)
        sub = stratified_subset(ds, 10, seed=9)
        assert len(sub.graphs) == 10
        labels = [g.label for g in sub.graphs]
        assert labels.count(0) == labels.count(1) == 5
        again = stratified_subset(ds, 10, seed=9)
        assert [g.label for g in again.graphs] == labels

    def test_full_size_returns_same(self):
        ds = triangle_dataset(8, seed=0)
        assert stratified_subset(ds, 8, seed=0) is ds

    @pytest.mark.parametrize("size", [0, -3])
    def test_size_below_one_rejected(self, size):
        with pytest.raises(ContractError, match="size must be >= 1"):
            stratified_subset(triangle_dataset(8, seed=0), size, seed=0)


def per_class_reference(labels, num_classes, seed):
    """Each class's graph indices as a list, shuffled class by class by one
    generator: the per-class loop that folds and subsets once wrote out."""
    rng = np.random.default_rng(seed)
    per_class = [[i for i, lab in enumerate(labels) if lab == cls] for cls in range(num_classes)]
    for members in per_class:
        rng.shuffle(members)
    return per_class


def folds_reference(labels, num_classes, k, seed):
    """Round-robin over the shuffled classes, one counter across classes."""
    assignments = [0] * len(labels)
    counter = 0
    for members in per_class_reference(labels, num_classes, seed):
        for i in members:
            assignments[i] = counter % k
            counter += 1
    return assignments


def subset_reference(labels, num_classes, size, seed):
    """One graph per class per round, classes in order, until ``size`` are taken."""
    per_class = per_class_reference(labels, num_classes, seed)
    picked, slot = [], 0
    while len(picked) < size:
        took = False
        for members in per_class:
            if slot < len(members) and len(picked) < size:
                picked.append(members[slot])
                took = True
        if not took:
            break
        slot += 1
    return sorted(picked)


class TestClassGroupingMatchesReference:
    def test_folds_subsets_and_histograms(self):
        rng = np.random.default_rng(2024)
        edges, features = Edges.from_dense(np.zeros((1, 1))), np.zeros((1, 1))
        cases = 0
        for case in range(2000):
            num_classes = int(rng.integers(1, 5))
            n = int(rng.integers(2, 41))
            # Every fifth vector puts all graphs in one class, not always class 0.
            if case % 5 == 0:
                labels = [int(rng.integers(num_classes))] * n
            else:
                labels = rng.integers(num_classes, size=n).tolist()
            graphs = [Graph(edges, Tensor(features), lab) for lab in labels]
            ds = Dataset("r", graphs, num_classes, 1, "constant")
            seed = int(rng.integers(2**32))
            for k in range(2, min(n, 6) + 1):
                got = make_folds(ds, k, seed=seed).assignments
                assert [type(f) for f in got] == [int] * n
                assert got == folds_reference(labels, num_classes, k, seed)
                cases += 1
            for size in range(1, n + 2):
                sub = stratified_subset(ds, size, seed=seed)
                if size >= n:
                    assert sub is ds
                else:
                    want = subset_reference(labels, num_classes, size, seed)
                    assert [id(g) for g in sub.graphs] == [id(graphs[i]) for i in want]
                    assert sub.name == f"r-subset{size}"
                cases += 1
            histogram = [labels.count(cls) for cls in range(num_classes)]
            assert graph_stats(ds)["class_histogram"] == histogram
            assert [type(c) for c in graph_stats(ds)["class_histogram"]] == [int] * num_classes
        assert cases > 40_000


@pytest.mark.skipif(not tu_available("PROTEINS"), reason="PROTEINS corpus not present")
class TestProteinsTable:
    def test_counts_match_reference(self):
        ds = load_tu_dataset(os.path.join(TU_DATA_DIR, "PROTEINS"), "PROTEINS")
        assert len(ds.graphs) == 1113
        assert ds.feature_dim == 3
        assert ds.num_classes == 2


@pytest.mark.skipif(not tu_available("PTC"), reason="PTC corpus not present")
class TestPtcTable:
    def test_counts_match_reference(self):
        ds = load_tu_dataset(os.path.join(TU_DATA_DIR, "PTC"), "PTC")
        stats = graph_stats(ds)
        assert stats["graphs"] == 344
        assert stats["max_nodes"] == 64
        assert abs(stats["mean_nodes"] - 14.29) <= 0.01
