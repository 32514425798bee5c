import copy
import math
import os

import numpy as np
import pytest

from sshpool import pooling
from sshpool.data import Edges, load_tu_dataset
from sshpool.errors import ContractError, ShapeError
from sshpool.model import ModelConfig, ModelParams, forward
from sshpool.pooling import (
    PoolLayerParams,
    _leading_cols,
    coarsen,
    diffpool_stack,
    extract_subgraphs,
    harden,
    local_conv,
    local_embedding,
    soft_assign,
    sshpool_layer,
    sshpool_stack,
)
from sshpool.tensor import Tape, Tensor, softmax_rows, sum_rows

from conftest import make_graph, random_graph, write_large_corpus
from op_reference import matmul, row_softmax, transpose
from slice_reference import slice_layer


def random_labels(rng, n, c):
    return rng.integers(0, c, size=n)


def ends_of(adjacency, labels):
    """Each entry's ``labels[dst]`` and ``labels[src]``, as the layer gathers them."""
    return labels[adjacency.dst], labels[adjacency.src]


def kept_edges(adjacency, labels):
    """The intra-cluster edge list that ``extract_subgraphs``'s mask selects."""
    return adjacency.select(extract_subgraphs(ends_of(adjacency, labels)))


def run_steps(adjacency, x, labels, weights, keep_self_loops=False):
    """extract_subgraphs -> local_conv -> coarsen under fixed labels, with
    one cluster per c x d x d weight stack entry; Z from local_embedding."""
    ends = ends_of(adjacency, labels)
    mask = extract_subgraphs(ends)
    x_next, _, _ = local_conv(x, adjacency, mask, labels, weights)
    a_mask = adjacency.select(mask)
    z = local_embedding(x, a_mask, labels, weights)
    a_next = coarsen(ends, adjacency, len(weights), keep_self_loops)
    return a_mask.dense(), z, x_next, a_next


def closed_form_rows(adjacency, x, labels, weights):
    """Brute force: coarse row j = s_j[None] @ W_j, s_j the ascending sum
    over cluster j's nodes v of (1 + kept degree of v) * X_v."""
    a = adjacency.dense()
    rows = np.zeros((len(weights), weights.shape[2]))
    for j in range(len(weights)):
        s_j = np.zeros(x.shape[1])
        for v in np.flatnonzero(labels == j):
            deg = sum(a[u, v] for u in range(a.shape[0]) if labels[u] == j)
            s_j = s_j + (1.0 + deg) * x[v]
        rows[j] = s_j[None] @ weights[j]
    return rows


def assert_close_to_z_sums(x_next, z, labels):
    """Coarse row j within 1e-12 of the sum of cluster j's rows of Z, relative
    to the sum of their magnitudes."""
    for j in range(x_next.shape[0]):
        rows = z[labels == j]
        bound = 1e-12 * np.abs(rows).sum(axis=0)
        assert np.all(np.abs(x_next[j] - rows.sum(axis=0)) <= bound)


def assert_untouched_grad(grad):
    """No gradient reached the leaf: its grad is still all +0.0."""
    assert not grad.any() and not np.signbit(grad).any()


def layer_params(rng, d, c):
    assign = Tensor(rng.normal(size=(d, c)), requires_grad=True)
    weights = rng.normal(size=(c, d, d))
    return PoolLayerParams(assign, weights, np.zeros_like(weights))


class TestSoftAssign:
    def test_single_cluster(self, rng):
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 1))
        assert np.array_equal(soft_assign(x, w), np.ones((4, 1)))

    def test_zero_logits_uniform(self):
        x = np.zeros((3, 5))
        w = np.zeros((5, 4))
        assert np.allclose(soft_assign(x, w), 0.25)

    def test_matches_scalar_exp_oracle(self, rng):
        x = rng.normal(size=(5, 3))
        w = rng.normal(size=(3, 2))
        got = soft_assign(x, w)
        logits = x @ w
        for i in range(5):
            denom = sum(math.exp(v) for v in logits[i])
            for j in range(2):
                assert got[i, j] == pytest.approx(math.exp(logits[i, j]) / denom, rel=1e-9)
        assert np.allclose(got.sum(axis=1), 1.0, atol=1e-9)

    def test_records_nothing(self, rng):
        g = random_graph(rng, n_lo=5, n_hi=5, d=3)
        params = layer_params(rng, 3, 4)
        with Tape() as tape:
            soft_assign(g.features.data, params.assign.data)
            sshpool_layer(g.edges, g.features.data, params)
        assert len(tape) == 0

    def test_layer_matches_taped_softmax_bit_for_bit(self, rng):
        # Hardened labels hang on these bits: an ulp can flip a near-tie.
        for _ in range(50):
            g = random_graph(rng, n_lo=2, n_hi=12, d=16)
            clusters = int(rng.integers(1, 16))
            params = layer_params(rng, 16, clusters)
            _, trace = sshpool_layer(g.edges, g.features.data, params)
            c_eff = min(clusters, g.n)
            w = params.assign
            if c_eff < clusters:
                # A plain numpy column gather is the reference for the narrowed weight.
                w = Tensor(w.data[:, list(range(c_eff))])
            want = row_softmax(matmul(g.features, w)).data
            assert np.array_equal(softmax_rows(trace.assignment.logits), want)


def fuzzed_logits(rng):
    """A logit matrix drawn at a random scale, with planted rows that make
    the softmax's argmax hard to predict: near-ties just below a row's top
    (``np.nextafter``), zero rows, and +inf, -inf, NaN and all -inf entries."""
    n, c = int(rng.integers(0, 12)), int(rng.integers(1, 40))
    z = rng.normal(size=(n, c)) * rng.choice([1e-12, 1e-3, 1.0, 30.0, 1e5, 1e300])
    for _ in range(int(rng.integers(0, 4)) if n else 0):
        i, k = int(rng.integers(n)), int(rng.integers(c))
        near = z[i].max()
        for _ in range(int(rng.integers(0, 4))):
            near = np.nextafter(near, -np.inf)
        z[i, k] = near
    if n:
        i, k = int(rng.integers(n)), int(rng.integers(c))
        plant = int(rng.integers(8))
        if plant == 0:
            z[i] = 0.0
        elif plant == 4:
            z[i] = -np.inf
        elif plant < 4:
            z[i, k] = (np.inf, -np.inf, np.nan)[plant - 1]
    return np.asfortranarray(z) if rng.random() < 0.3 else z


class TestHarden:
    def test_tie_breaks_low_column(self):
        assert harden(np.array([[0.5, 0.5]])).tolist() == [0]

    def test_plain_argmax(self):
        got = harden(np.array([[-1.2, 0.8], [3.0, -0.1]]))
        assert got.tolist() == [1, 0]

    def test_random_rows_one_hot_at_max(self, rng):
        # Fed probabilities, it gives their argmax.
        raw = rng.random((6, 3))
        soft = raw / raw.sum(axis=1, keepdims=True)
        labels = harden(soft)
        assert labels.shape == (6,)
        for i in range(6):
            assert soft[i, labels[i]] == soft[i].max()

    def test_detached_from_tape(self, rng):
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        with Tape() as tape:
            labels = harden(x.data @ np.eye(2))
        assert len(tape) == 0 and labels.dtype.kind == "i"

    def test_argmax_invariant_under_positive_logit_scaling(self, rng):
        x = rng.normal(size=(6, 4))
        w = rng.normal(size=(4, 3))
        base = harden(x @ w)
        for factor in (0.01, 3.0, 250.0):
            scaled = harden((x * factor) @ w)
            assert np.array_equal(base, scaled)

    def test_equals_softmax_argmax_on_fuzzed_logits(self, rng):
        # Each label is the first column holding its row's max (a NaN row's
        # first NaN). Where the top is finite and no other column lies within
        # 2**-40 of it, that is also the float softmax's argmax.
        clean_rows = 0
        for _ in range(2000):
            z = fuzzed_logits(rng)
            got = harden(z)
            with np.errstate(invalid="ignore", over="ignore"):
                top = z.max(axis=1)
                holds = (z == top[:, None]) | (np.isnan(z) & np.isnan(top)[:, None])
                near = (z >= top[:, None] - 2.0**-40).sum(axis=1)
                want = softmax_rows(z).argmax(axis=1)
            assert np.array_equal(got, holds.argmax(axis=1))
            clean = np.isfinite(top) & (near == 1)
            assert np.array_equal(got[clean], want[clean])
            clean_rows += int(clean.sum())
        assert clean_rows > 0

    def test_near_tie_before_the_top_takes_the_softmax(self):
        # One ulp below 0.1 is a difference exp rounds to 1: the float softmax
        # ties the two columns and takes the earlier one, while the label
        # keeps column 1, the true max.
        top = 0.1
        z = np.array([[np.nextafter(top, -np.inf), top, -3.0]])
        assert harden(z).tolist() == z.argmax(axis=1).tolist() == [1]
        assert softmax_rows(z).argmax(axis=1).tolist() == [0]

    def test_non_finite_rows_match_the_softmax(self):
        # numpy's argmax: the first +inf, the first NaN (even after a +inf),
        # 0 for an all -inf row. The float softmax gives 0 on every row.
        z = np.array(
            [[0.0, np.inf, 1.0], [2.0, np.nan, 5.0], [-np.inf, -np.inf, -np.inf],
             [np.inf, 0.0, 1.0], [3.0, np.inf, np.nan]]
        )
        labels = harden(z)
        assert labels.tolist() == [1, 1, 0, 0, 2]
        assert ((labels >= 0) & (labels < z.shape[1])).all()
        with np.errstate(invalid="ignore"):
            assert softmax_rows(z).argmax(axis=1).tolist() == [0, 0, 0, 0, 0]

    def test_default_forward_builds_no_softmax(self, rng, monkeypatch):
        # No layer of a default forward calls softmax_rows; the softmax of
        # the trace's logits is still the old soft assignment bit for bit,
        # and each layer's labels are its argmax.
        calls = []

        def counted(a):
            calls.append(a.shape)
            return softmax_rows(a)

        monkeypatch.setattr(pooling, "softmax_rows", counted)
        params = ModelParams(ModelConfig(feature_dim_in=4, num_classes=2, hidden_dim=16))
        traces = []
        for _ in range(10):
            g = random_graph(rng, n_lo=20, n_hi=160, p=0.05)
            traces.append(forward(g, params)[1])
        assert calls == []
        for trace in traces:
            for entry, layer in zip(trace.layers, params.pool_layers):
                c = entry.assignment.logits.shape[1]
                want = soft_assign(entry.features, _leading_cols(layer.assign.data, c))
                soft = softmax_rows(entry.assignment.logits)
                assert np.array_equal(soft, want)
                assert np.array_equal(entry.labels, soft.argmax(axis=1))

    @pytest.mark.parametrize("corpus", ["desk", "large"])
    def test_real_forwards_label_the_softmax_argmax(self, corpus, tmp_path):
        # On every layer of a default-initialised forward over real corpora,
        # the labels equal the float softmax's argmax: no real logit row is
        # one where the two can differ.
        if corpus == "desk":
            ds = load_tu_dataset(os.path.join(os.path.dirname(__file__), "_desk_corpus"), "chordal")
        else:
            write_large_corpus(str(tmp_path), "large", 4, 7)
            ds = load_tu_dataset(str(tmp_path), "large")
        for config in (
            ModelConfig(feature_dim_in=ds.feature_dim, num_classes=ds.num_classes),
            ModelConfig(feature_dim_in=ds.feature_dim, num_classes=ds.num_classes,
                        hidden_dim=32, layer_sizes=(32, 8, 2)),
        ):
            params = ModelParams(config)
            for g in ds.graphs:
                for entry in forward(g, params)[1].layers:
                    soft = softmax_rows(entry.assignment.logits)
                    assert np.array_equal(entry.labels, soft.argmax(axis=1))


class TestExtractSubgraphs:
    def test_path_graph_clusters(self):
        g = make_graph([(0, 1), (1, 2)], 3, d=2)
        a_mask = kept_edges(g.edges, np.array([0, 0, 1])).dense()
        assert a_mask.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        # the crossing edge (1, 2) is masked out
        assert a_mask.sum() == 2.0

    def test_single_cluster_keeps_whole_graph(self, rng):
        g = random_graph(rng)
        a_mask = kept_edges(g.edges, np.zeros(g.n, dtype=int))
        assert np.array_equal(a_mask.dense(), g.adjacency.data)

    def test_partition_oracle(self, rng):
        for _ in range(25):
            g = random_graph(rng, n_lo=8, n_hi=8)
            labels = random_labels(rng, 8, 3)
            a_mask = kept_edges(g.edges, labels).dense()
            for u in range(8):
                for v in range(8):
                    want = g.adjacency.data[u, v] if labels[u] == labels[v] else 0.0
                    assert a_mask[u, v] == want


class TestLocalConv:
    def test_single_node_identity_weight(self, rng):
        g = make_graph([], 1, features=[[2.0, -1.0]], d=2)
        _, z, _, _ = run_steps(g.edges, g.features.data, np.array([0]), np.eye(2)[None])
        assert np.array_equal(z, [[2.0, -1.0]])

    def test_isolated_nodes_identity(self):
        g = make_graph([], 2, features=[[1.0, 0.0], [0.0, 1.0]], d=2)
        _, z, _, _ = run_steps(
            g.edges, g.features.data, np.array([0, 0]), np.eye(2)[None]
        )
        assert np.array_equal(z, g.features.data)

    def test_triangle_matches_triple_loop(self, rng):
        g = make_graph([(0, 1), (1, 2), (0, 2)], 3, d=4, seed=3)
        w = rng.normal(size=(4, 4))
        _, z, _, _ = run_steps(g.edges, g.features.data, np.zeros(3, dtype=int), w[None])
        a_tilde = g.adjacency.data + np.eye(3)
        want = np.zeros((3, 4))
        for i in range(3):
            for j in range(4):
                for k in range(3):
                    for t in range(4):
                        want[i, j] += a_tilde[i, k] * g.features.data[k, t] * w[t, j]
        assert np.allclose(z, want, rtol=1e-12)

    def test_empty_slice_yields_zero_rows(self, rng):
        # cluster 1 owns no rows of Z, and its weight receives no gradient
        g = make_graph([(0, 1)], 2, d=3)
        labels = np.array([0, 0])
        params = layer_params(rng, 3, 2)
        with Tape() as tape:
            x_next, trace = sshpool_stack(g.edges, g.features, [params], frozen=[labels])
            objective = sum_rows(matmul(x_next, Tensor(np.ones((3, 1)))))
        tape.backward(objective)
        z = trace.layers[0].local_embedding
        assert z[labels == 1].shape == (0, 3)
        assert params.grads[0].any()
        assert_untouched_grad(params.grads[1])

    @pytest.mark.parametrize(
        "edges, labels",
        [
            ([], [0, 1, 0, 2]),  # edgeless
            ([(0, 1), (1, 2), (2, 3), (0, 3)], [0, 1, 0, 1]),  # every edge crosses
        ],
    )
    def test_no_kept_edges_gives_float_rows(self, rng, edges, labels):
        g = make_graph(edges, 4, d=3)
        labels = np.array(labels)
        params = layer_params(rng, 3, 3)
        a_mask = kept_edges(g.edges, labels)
        assert a_mask.weight.size == 0
        x = Tensor(g.features.data.copy(), requires_grad=True)
        with Tape() as tape:
            x_next, _ = sshpool_stack(g.edges, x, [params], frozen=[labels])
            objective = sum_rows(matmul(x_next, Tensor(np.ones((3, 1)))))
        tape.backward(objective)
        assert x_next.data.dtype == np.float64
        want = closed_form_rows(g.edges, x.data, labels, params.weights)
        assert np.array_equal(x_next.data, want)
        # no kept edge: every node's rows of dX and dW carry weight exactly 1
        ones = np.ones((1, 3))
        assert np.array_equal(x.grad, (ones @ params.weights.transpose(0, 2, 1))[labels, 0])
        for j, grad in enumerate(params.grads):
            assert np.array_equal(grad, x.data[labels == j].sum(axis=0)[:, None] @ ones)


class TestCoarsen:
    def test_identity_coarsening(self, rng):
        g = random_graph(rng, n_lo=5, n_hi=5)
        perm = rng.permutation(5)
        hard = np.zeros((5, 5))
        hard[np.arange(5), perm] = 1.0
        weights = np.broadcast_to(np.eye(4), (5, 4, 4))
        *_, x_next, a_next = run_steps(g.edges, g.features.data, perm, weights)
        assert np.array_equal(x_next, hard.T @ g.features.data)
        assert np.array_equal(a_next, hard.T @ g.adjacency.data @ hard)

    def test_path_crossing_edge_count(self):
        g = make_graph([(0, 1), (1, 2), (2, 3)], 4, d=2)
        weights = np.broadcast_to(np.eye(2), (2, 2, 2))
        *_, a_next = run_steps(g.edges, g.features.data, np.array([0, 0, 1, 1]), weights)
        assert a_next.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_empty_cluster_zero_row_and_col(self, rng):
        g = make_graph([(0, 1)], 2, d=3)
        weights = rng.normal(size=(2, 3, 3))
        *_, x_next, a_next = run_steps(g.edges, g.features.data, np.array([0, 0]), weights)
        assert np.array_equal(x_next[1], np.zeros(3))
        assert np.all(a_next[1] == 0) and np.all(a_next[:, 1] == 0)

    def test_column_sum_oracle(self, rng):
        for _ in range(25):
            g = random_graph(rng, n_lo=4, n_hi=10)
            c = int(rng.integers(1, 5))
            labels = random_labels(rng, g.n, c)
            weights = rng.normal(size=(c, 4, 4))
            _, z, x_next, a_next = run_steps(g.edges, g.features.data, labels, weights)
            want = closed_form_rows(g.edges, g.features.data, labels, weights)
            assert np.array_equal(x_next, want)
            assert_close_to_z_sums(x_next, z, labels)
            # pairwise inter-cluster edge counting
            want = np.zeros((c, c))
            for u in range(g.n):
                for v in range(g.n):
                    if g.adjacency.data[u, v] and labels[u] != labels[v]:
                        want[labels[u], labels[v]] += 1
            assert np.array_equal(a_next, want)

    def test_single_column_sums_in_ascending_order(self, rng):
        # one feature column: numpy's own column sum would go pairwise here
        for _ in range(20):
            n = int(rng.integers(8, 40))
            x = rng.normal(size=(n, 1)) * 10.0 ** rng.integers(-8, 9, size=(n, 1))
            labels = random_labels(rng, n, 2)
            g = make_graph([], n, features=x, d=1)
            weights = np.array([[[1.0]], [[-3.0]]])
            _, z, x_next, _ = run_steps(g.edges, x, labels, weights)
            want = closed_form_rows(g.edges, x, labels, weights)
            assert np.array_equal(x_next, want)
            assert_close_to_z_sums(x_next, z, labels)

    def test_edge_conservation(self, rng):
        for _ in range(25):
            g = random_graph(rng, n_lo=4, n_hi=10)
            c = int(rng.integers(1, 5))
            labels = random_labels(rng, g.n, c)
            weights = rng.normal(size=(c, 4, 4))
            a_mask, _, _, a_next = run_steps(g.edges, g.features.data, labels, weights)
            intra = int(a_mask.sum()) // 2
            assert a_next.sum() + 2 * intra == 2 * g.num_edges

    def test_keep_self_loops_flag(self, rng):
        g = make_graph([(0, 1)], 2, d=2)
        hard = np.eye(2)
        weights = np.broadcast_to(np.eye(2), (2, 2, 2))
        *_, a_keep = run_steps(
            g.edges, g.features.data, np.array([0, 1]), weights, keep_self_loops=True
        )
        assert np.array_equal(a_keep, hard.T @ g.adjacency.data @ hard)


class TestLayerAndStack:
    def test_single_node_any_cluster_count(self, rng):
        g = make_graph([], 1, features=[[1.0, 2.0, 3.0]], d=3)
        params = layer_params(rng, 3, 5)
        x_next, trace = sshpool_layer(g.edges, g.features.data, params)
        assert x_next.shape == (1, 3)
        assert np.array_equal(x_next, g.features.data @ params.weights[0])
        assert trace.coarse_adjacency.shape == (1, 1)

    def test_one_cluster_column_sum(self, rng):
        g = random_graph(rng, n_lo=4, n_hi=6)
        params = layer_params(rng, 4, 1)
        x_next, _ = sshpool_layer(g.edges, g.features.data, params)
        a_tilde = g.adjacency.data + np.eye(g.n)
        z = a_tilde @ g.features.data @ params.weights[0]
        acc = np.zeros(4)
        for r in range(g.n):
            acc = acc + z[r]
        assert np.allclose(x_next[0], acc, rtol=1e-12)

    def test_two_triangles_compositional_oracle(self, rng):
        g = make_graph(
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)], 6, d=4, seed=11
        )
        params = layer_params(rng, 4, 2)
        x_next, trace = sshpool_layer(g.edges, g.features.data, params)
        # replay the five steps by hand
        labels = soft_assign(g.features.data, params.assign.data).argmax(axis=1)
        *_, x_want, a_want = run_steps(g.edges, g.features.data, labels, params.weights)
        assert np.array_equal(x_next, x_want)
        assert np.array_equal(trace.coarse_adjacency, a_want)
        assert np.array_equal(trace.labels, labels)

    @pytest.mark.parametrize("clusters", [3, 9])
    def test_stack_is_one_record(self, rng, clusters):
        # every layer's convolution and coarsening are one record; its
        # output is the last layer's coarse rows, and a layer records nothing
        g = random_graph(rng, n_lo=6, n_hi=6)
        params = [layer_params(rng, 4, clusters), layer_params(rng, 4, 2)]
        with Tape() as tape:
            sshpool_layer(g.edges, g.features.data, params[0])
            assert len(tape) == 0
            x_next, _ = sshpool_stack(g.edges, g.features, params)
        assert [output for output, _ in tape._records] == [x_next]

    def test_effective_clusters_capped_at_nodes(self, rng):
        g = random_graph(rng, n_lo=3, n_hi=3)
        params = layer_params(rng, 4, 8)
        x_next, trace = sshpool_layer(g.edges, g.features.data, params)
        assert x_next.shape[0] == 3
        assert trace.coarse_adjacency.shape == (3, 3)
        assert trace.assignment.hard.shape == (3, 3)

    def test_cluster_counts_come_from_the_weights(self, rng):
        # A layer has one cluster per weight block, capped at the node count.
        g = random_graph(rng, n_lo=3, n_hi=3)
        five = layer_params(rng, 4, 5)
        x_next, trace = sshpool_layer(g.edges, g.features.data, five)
        assert x_next.shape == (3, 4)
        assert trace.weights.shape == (3, 4, 4)
        x_stack, stack_trace = sshpool_stack(g.edges, g.features, [five, layer_params(rng, 4, 2)])
        assert x_stack.rows == 2
        assert [len(entry.cluster_sizes) for entry in stack_trace.layers] == [3, 2]
        with pytest.raises(ContractError, match="got 0 cluster weights for 3 nodes"):
            sshpool_layer(g.edges, g.features.data, layer_params(rng, 4, 0))

    def test_stack_depth_one_equals_layer(self, rng):
        g = random_graph(rng, n_lo=5, n_hi=8)
        params = layer_params(rng, 4, 3)
        x_layer, _ = sshpool_layer(g.edges, g.features.data, params)
        x_stack, trace = sshpool_stack(g.edges, g.features, [params])
        assert np.array_equal(x_layer, x_stack.data)
        assert len(trace.layers) == 1

    def test_stack_two_layers_chained_oracle(self, rng):
        g = random_graph(rng, n_lo=10, n_hi=12)
        p0 = layer_params(rng, 4, 4)
        p1 = layer_params(rng, 4, 2)
        x_stack, trace = sshpool_stack(g.edges, g.features, [p0, p1])
        x1, t1 = sshpool_layer(g.edges, g.features.data, p0)
        x2, _ = sshpool_layer(Edges.from_dense(t1.coarse_adjacency), x1, p1)
        assert np.array_equal(x_stack.data, x2)
        assert x_stack.rows <= 2
        assert len(trace.layers) == 2

    def test_rejects_invalid_frozen_labels(self, rng):
        g = random_graph(rng, n_lo=5, n_hi=5)
        params = layer_params(rng, 4, 8)  # 8 clusters cap at min(8, 5) = 5
        good = np.array([0, 4, 2, 2, 1], dtype=np.int32)
        sshpool_layer(g.edges, g.features.data, params, frozen_labels=good)
        for bad, error in (
            (good[:4], ShapeError),
            (np.append(good, 0), ShapeError),
            (good.astype(float), ContractError),
            (np.array([0, -1, 2, 2, 1]), ContractError),
            (np.array([0, 5, 2, 2, 1]), ContractError),
        ):
            with pytest.raises(error):
                sshpool_layer(g.edges, g.features.data, params, frozen_labels=bad)
            with pytest.raises(error):
                sshpool_stack(g.edges, g.features, [params], frozen=[bad])

    def test_stack_requires_decreasing_sizes(self, rng):
        g = random_graph(rng)
        p0 = layer_params(rng, 4, 2)
        p1 = layer_params(rng, 4, 2)
        with pytest.raises(ContractError):
            sshpool_stack(g.edges, g.features, [p0, p1])

    def test_zero_node_input_raises_contract_error(self, rng):
        # Zero nodes leave no cluster column: a ContractError, not numpy's
        # ValueError from an argmax over an empty axis.
        edges, x = Edges.from_dense(np.zeros((0, 0))), np.zeros((0, 4))
        params = layer_params(rng, 4, 3)
        for frozen in (None, np.zeros(0, dtype=int)):
            with pytest.raises(ContractError, match="at least one cluster column"):
                sshpool_layer(edges, x, params, frozen_labels=frozen)

    def test_locality_literal_form(self, rng):
        for _ in range(10):
            g = random_graph(rng, n_lo=6, n_hi=10)
            c = int(rng.integers(2, 4))
            labels = random_labels(rng, g.n, c)
            weights = rng.normal(size=(c, 4, 4))
            _, z, x_next, _ = run_steps(g.edges, g.features.data, labels, weights)

            u = int(rng.integers(g.n))
            bumped = g.features.data.copy()
            bumped[u] += rng.normal(size=4)
            _, z_b, x_next_b, _ = run_steps(g.edges, bumped, labels, weights)
            home = labels[u]
            for k in range(c):
                if k == home:
                    continue
                rows = labels == k
                assert np.array_equal(z[rows], z_b[rows])
                assert np.array_equal(x_next[k], x_next_b[k])

    def test_stack_gradients_match_finite_differences(self, rng):
        g = random_graph(rng, n_lo=6, n_hi=8)
        p0 = layer_params(rng, 4, 3)
        p1 = layer_params(rng, 4, 1)

        with Tape() as tape:
            x_out, trace = sshpool_stack(g.edges, g.features, [p0, p1])
            r = Tensor(rng.normal(size=(1, x_out.rows)))
            c = Tensor(rng.normal(size=(x_out.cols, 1)))
            objective = matmul(r, matmul(x_out, c))
        tape.backward(objective)
        frozen = [e.labels for e in trace.layers]

        def eval_loss():
            x_e, _ = sshpool_stack(g.edges, g.features, [p0, p1], frozen=frozen)
            return float((r.data @ x_e.data @ c.data)[0, 0])

        step = 1e-5
        for params in (p0, p1):
            for data, analytic in [
                (params.assign.data, params.assign.grad), (params.weights, params.grads)
            ]:
                flat = data.reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + step
                    up = eval_loss()
                    flat[idx] = orig - step
                    down = eval_loss()
                    flat[idx] = orig
                    numeric = (up - down) / (2 * step)
                    a = analytic.reshape(-1)[idx]
                    denom = max(abs(a), abs(numeric), 1e-6)
                    assert abs(a - numeric) / denom <= 1e-4


class TestBaselines:
    def test_diffpool_one_hot_limit(self, rng):
        # engineer logits so extreme that softmax is numerically one-hot
        g = make_graph([(0, 1), (1, 2), (2, 3)], 4, d=2, seed=2)
        w_a = Tensor(np.array([[400.0, -400.0], [-400.0, 400.0]]))
        features = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        x = Tensor(features)
        w_e = Tensor(rng.normal(size=(2, 2)))
        x_next, a_next = diffpool_stack(g.adjacency.data, x, [(w_a, w_e)])
        hard = Tensor(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
        # hard coarsening of the same inputs with the shared weight
        a_tilde = g.adjacency.data + np.eye(4)
        want_x = hard.data.T @ a_tilde @ features @ w_e.data
        want_a = hard.data.T @ g.adjacency.data @ hard.data
        assert np.allclose(x_next.data, want_x, atol=1e-12)
        assert np.allclose(a_next, want_a, atol=1e-12)

    def test_diffpool_single_cluster(self, rng):
        g = random_graph(rng, n_lo=4, n_hi=6)
        w_a = Tensor(rng.normal(size=(4, 1)))
        w_e = Tensor(rng.normal(size=(4, 4)))
        x_next, a_next = diffpool_stack(g.adjacency.data, g.features, [(w_a, w_e)])
        a_tilde = g.adjacency.data + np.eye(g.n)
        want = np.ones((1, g.n)) @ a_tilde @ g.features.data @ w_e.data
        assert np.allclose(x_next.data, want, rtol=1e-12)
        assert a_next.shape == (1, 1)

    def test_diffpool_composition_oracle(self, rng):
        g = random_graph(rng, n_lo=5, n_hi=7)
        w_a = rng.normal(size=(4, 3))
        w_e = rng.normal(size=(4, 4))
        x_next, a_next = diffpool_stack(
            g.adjacency.data, g.features, [(Tensor(w_a), Tensor(w_e))]
        )
        logits = g.features.data @ w_a
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        s = e / e.sum(axis=1, keepdims=True)
        a_tilde = g.adjacency.data + np.eye(g.n)
        assert np.allclose(x_next.data, s.T @ a_tilde @ g.features.data @ w_e, rtol=1e-10)
        assert np.allclose(a_next, s.T @ g.adjacency.data @ s, rtol=1e-10)

    def test_diffpool_caps_clusters_at_node_count(self, rng):
        g = random_graph(rng, n_lo=3, n_hi=6)
        w_a = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        w_e = Tensor(rng.normal(size=(4, 4)))
        with Tape() as tape:
            x_next, a_next = diffpool_stack(g.adjacency.data, g.features, [(w_a, w_e)])
            out = sum_rows(transpose(sum_rows(matmul(Tensor(a_next), x_next))))
        tape.backward(out)
        gathered = Tensor(w_a.data[:, list(range(g.n))])
        want_x, want_a = diffpool_stack(g.adjacency.data, g.features, [(gathered, w_e)])
        assert np.array_equal(a_next, want_a)
        assert np.array_equal(x_next.data, want_x.data)
        assert w_a.grad[:, : g.n].any()
        past = w_a.grad[:, g.n :]
        assert not past.any() and not np.signbit(past).any()

    def test_diffpool_adjacency_must_match_nodes(self):
        with pytest.raises(ShapeError, match=r"adjacency \(3, 3\) for 4 nodes"):
            diffpool_stack(np.zeros((3, 3)), Tensor(np.ones((4, 2))), [])


class TestPartitionProperty:
    def test_thousand_random_assignments(self, rng):
        trials = 0
        while trials < 1000:
            g = random_graph(rng, n_lo=3, n_hi=10)
            c = int(rng.integers(1, 6))
            # the layer caps its clusters at the node count
            labels = random_labels(rng, g.n, min(c, g.n))
            params = layer_params(rng, 4, c)
            _, trace = sshpool_layer(g.edges, g.features.data, params, frozen_labels=labels)
            ids = [i for members in trace.clusters for i in members]
            assert sorted(ids) == list(range(g.n))
            assert trace.cluster_sizes == [len(m) for m in trace.clusters]
            assert np.all(trace.assignment.hard.data.sum(axis=1) == 1.0)
            trials += 1


def stack_outputs(graph, layers, keep_self_loops=False, frozen=None):
    """Everything a taped stack forward and backward produce on ``graph``:
    coarse rows, each layer's labels, mask, scale, sums and coarse
    adjacency, the input gradient and every cluster weight gradient."""
    for params in layers:
        params.grads[...] = 0.0
    x = Tensor(graph.features.data.copy(), requires_grad=True)
    with Tape() as tape:
        out, trace = sshpool_stack(graph.edges, x, layers, keep_self_loops, frozen)
        r = Tensor(np.linspace(1.0, 2.0, out.rows)[None])
        c = Tensor(np.linspace(-1.0, 1.5, out.cols)[:, None])
        objective = matmul(r, matmul(out, c))
    tape.backward(objective)
    arrays = [out.data, x.grad] + [params.grads.copy() for params in layers]
    for entry in trace.layers:
        arrays += [entry.labels, entry.mask, entry.scale, entry.sums, entry.coarse_adjacency]
    return arrays, trace


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestPartitionReuse:
    """A layer keeps its labelling's partition on the edge list it read and
    reuses it while the labels repeat. Every reuse, and every replacement,
    gives the bits of a cold copy of the graph that never ran a forward."""

    def setup_graph(self, rng):
        g = random_graph(rng, n_lo=9, n_hi=12)
        layers = [layer_params(rng, 4, 5), layer_params(rng, 4, 3), layer_params(rng, 4, 2)]
        return g, copy.deepcopy(g), layers

    def test_hit_and_miss_and_labels_flipping_back(self, rng):
        g, cold, layers = self.setup_graph(rng)
        n = g.n
        a, b = random_labels(rng, n, 5), random_labels(rng, n, 5)
        b[0] = (a[0] + 1) % 5  # a miss: the labelling differs
        tail = [random_labels(rng, 5, 3), random_labels(rng, 3, 2)]
        seen = []
        for labels in (a, a, b, a):
            frozen = [labels] + tail
            got, trace = stack_outputs(g, layers, frozen=frozen)
            want, _ = stack_outputs(copy.deepcopy(cold), layers, frozen=frozen)
            assert_same_bits(got, want)
            seen.append(trace.layers[0].partition)
            assert g.edges.partition is seen[-1]
        assert seen[1] is seen[0]  # a hit
        assert seen[2] is not seen[1]  # a miss replaces the one slot
        assert seen[3] is not seen[0] and seen[3] is not seen[2]

    def test_repeated_labels_reuse_every_layer_down_the_stack(self, rng):
        g, cold, layers = self.setup_graph(rng)
        first, trace = stack_outputs(g, layers)
        again, again_trace = stack_outputs(g, layers)
        want, _ = stack_outputs(copy.deepcopy(cold), layers)
        assert_same_bits(first, want)
        assert_same_bits(again, want)
        for a, b in zip(trace.layers, again_trace.layers):
            assert a.partition is b.partition and a.edges is b.edges
        for upper, lower in zip(trace.layers, again_trace.layers[1:]):
            # layer 1 reads the coarse edge list layer 0's partition kept
            assert lower.edges is upper.partition.coarse

    def test_one_edge_list_under_two_cluster_counts(self, rng):
        g, cold, _ = self.setup_graph(rng)
        three, five = layer_params(rng, 4, 3), layer_params(rng, 4, 5)
        labels = random_labels(rng, g.n, 3)  # valid under both counts
        for params in (three, five, three, five):
            x_next, trace = sshpool_layer(g.edges, g.features.data, params, frozen_labels=labels)
            fresh = copy.deepcopy(cold)
            x_want, want = sshpool_layer(
                fresh.edges, fresh.features.data, params, frozen_labels=labels
            )
            assert x_next.tobytes() == x_want.tobytes()
            assert trace.coarse_adjacency.shape == (len(params.weights),) * 2
            assert trace.coarse_adjacency.tobytes() == want.coarse_adjacency.tobytes()

    def test_one_edge_list_under_both_self_loop_settings(self, rng):
        g, cold, layers = self.setup_graph(rng)
        frozen = [random_labels(rng, g.n, 5), random_labels(rng, 5, 3), random_labels(rng, 3, 2)]
        for keep in (True, False, True, False):
            got, _ = stack_outputs(g, layers, keep, frozen)
            want, _ = stack_outputs(copy.deepcopy(cold), layers, keep, frozen)
            assert_same_bits(got, want)
        on, _ = stack_outputs(g, layers, True, frozen)
        off, _ = stack_outputs(g, layers, False, frozen)
        assert any(a.tobytes() != b.tobytes() for a, b in zip(on, off))

    def test_frozen_labels_of_another_integer_dtype(self, rng):
        g, cold, _ = self.setup_graph(rng)
        params = layer_params(rng, 4, 5)
        labels = random_labels(rng, g.n, 5)
        _, first = sshpool_layer(g.edges, g.features.data, params, frozen_labels=labels)
        for dtype in (np.int8, np.int32, np.uint16, np.int64):
            x_next, trace = sshpool_layer(
                g.edges, g.features.data, params, frozen_labels=labels.astype(dtype)
            )
            assert trace.partition is first.partition  # the same values: a hit
            fresh = copy.deepcopy(cold)
            x_want, want = sshpool_layer(
                fresh.edges, fresh.features.data, params, frozen_labels=labels.astype(dtype)
            )
            assert x_next.tobytes() == x_want.tobytes()
            assert trace.coarse_adjacency.tobytes() == want.coarse_adjacency.tobytes()

    def test_held_arrays_refuse_writes(self, rng):
        g, cold, layers = self.setup_graph(rng)
        before, trace = stack_outputs(g, layers)
        for entry in trace.layers:
            for held in (entry.mask, entry.scale):
                with pytest.raises(ValueError, match="read-only"):
                    held[0] = 7
        after, _ = stack_outputs(g, layers)
        want, _ = stack_outputs(copy.deepcopy(cold), layers)
        assert_same_bits(before, want)
        assert_same_bits(after, want)


class TestAgainstSliceReference:
    """The fused layer against the per-cluster reference in slice_reference."""

    def test_random_graphs(self, rng):
        for trial in range(200):
            g = random_graph(rng, n_lo=1, n_hi=14)
            c = int(rng.integers(1, 7))
            params = layer_params(rng, 4, c)
            keep = bool(trial % 3 == 0)
            frozen = random_labels(rng, g.n, min(c, g.n)) if trial % 2 else None
            x_next, trace = sshpool_layer(
                g.edges, g.features.data, params, keep, frozen_labels=frozen
            )
            ref = slice_layer(
                g.adjacency.data, g.features.data, trace.labels, min(c, g.n),
                params.weights, keep,
            )
            assert np.allclose(x_next, ref.coarse_features, rtol=1e-12, atol=1e-12)
            for members, z_j in zip(ref.clusters, ref.local_embeddings):
                assert np.allclose(
                    trace.local_embedding[members], z_j, rtol=1e-12, atol=1e-12
                )
            assert np.array_equal(trace.coarse_adjacency, ref.coarse_adjacency)
            assert trace.clusters == ref.clusters
            assert trace.edges_kept == ref.edges_kept


class TestLayerFiniteDifferences:
    """Central differences of the stack record w.r.t. x and every local weight."""

    def check(self, g, sizes, rng, frozen=None, keep_self_loops=False):
        params = [layer_params(rng, g.features.cols, clusters) for clusters in sizes]
        x = Tensor(g.features.data.copy(), requires_grad=True)
        with Tape() as tape:
            x_next, trace = sshpool_stack(g.edges, x, params, keep_self_loops, frozen)
            r = rng.normal(size=(1, x_next.rows))
            c = rng.normal(size=(x_next.cols, 1))
            objective = matmul(Tensor(r), matmul(x_next, Tensor(c)))
        tape.backward(objective)
        labels = [e.labels for e in trace.layers]

        def probe():
            x_e, _ = sshpool_stack(g.edges, x, params, keep_self_loops, labels)
            return float((r @ x_e.data @ c)[0, 0])

        step = 1e-5
        for data, grad in [(x.data, x.grad)] + [(p.weights, p.grads) for p in params]:
            analytic = grad.reshape(-1)
            flat = data.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                up = probe()
                flat[idx] = orig - step
                down = probe()
                flat[idx] = orig
                numeric = (up - down) / (2 * step)
                denom = max(abs(analytic[idx]), abs(numeric), 1e-6)
                assert abs(analytic[idx] - numeric) / denom <= 1e-6
        for p, entry in zip(params, trace.layers):
            occupied = set(entry.labels.tolist())
            for j, grad in enumerate(p.grads):
                if j in occupied:
                    assert grad.any()
                else:
                    assert_untouched_grad(grad)
        return trace.layers

    def test_empty_and_singleton_clusters(self, rng):
        g = make_graph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)], 5, d=4, seed=5)
        (trace,) = self.check(g, (4,), rng, frozen=[np.array([0, 0, 3, 0, 2])])
        assert trace.cluster_sizes == [3, 0, 1, 1]

    def test_one_node(self, rng):
        g = make_graph([], 1, d=4, seed=6)
        (trace,) = self.check(g, (3,), rng)
        assert trace.cluster_sizes == [1]

    def test_fewer_nodes_than_clusters(self, rng):
        g = make_graph([(0, 1), (1, 2)], 3, d=4, seed=7)
        (trace,) = self.check(g, (6,), rng)
        assert trace.assignment.hard.shape == (3, 3)

    def test_single_column_large_cluster(self, rng):
        g = make_graph([(u, u + 1) for u in range(11)], 12, d=1, seed=8)
        frozen = [np.array([0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0])]
        (trace,) = self.check(g, (3,), rng, frozen=frozen)
        assert trace.cluster_sizes == [11, 1, 0]

    def test_three_layers_with_self_loops_and_empty_clusters(self, rng):
        # Layer 0 leaves clusters 1 and 3 empty, so their zero rows enter
        # layer 1; each of layer 1's clusters also holds a non-zero row.
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0), (0, 4), (2, 6)]
        g = make_graph(edges, 8, d=3, seed=9)
        frozen = [np.array([0, 0, 2, 2, 4, 4, 0, 2]), np.array([0, 0, 1, 1, 2]), np.array([0, 1, 1])]
        traces = self.check(g, (5, 3, 2), rng, frozen=frozen, keep_self_loops=True)
        assert traces[0].cluster_sizes == [3, 0, 3, 0, 2]
        assert not traces[1].features[[1, 3]].any()
        assert np.diag(traces[0].coarse_adjacency).any()  # the kept self-loops
        assert [t.cluster_sizes for t in traces[1:]] == [[2, 2, 1], [1, 2]]


class TestEdgeListMatchesDenseFormulas:
    """Mask, coarse adjacency and normaliser from edge lists, bit for bit
    against the dense formulas, across a 3-layer stack whose coarse levels
    carry whole-number edge weights."""

    def test_two_hundred_random_graphs(self, rng):
        for trial in range(200):
            n = int(rng.integers(1, 41))
            p = (0.0, 0.05, 0.2, 0.5)[trial % 4]  # p = 0: edgeless
            upper = np.triu((rng.random((n, n)) < p).astype(float), k=1)
            g = make_graph(list(zip(*np.nonzero(upper))), n, d=3, seed=trial)
            a = g.adjacency.data

            a_tilde = a + np.eye(n)
            inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
            assert np.array_equal(
                g.gcn_norm.dense(), a_tilde * inv_sqrt[:, None] * inv_sqrt[None, :]
            )

            sizes = (9, 4, 2)
            keep = bool(trial % 2)
            frozen, rows = [], n
            for size in sizes:
                # labels drawn from fewer columns than exist leave clusters empty
                cols = min(size, rows)
                labels = rng.integers(0, int(rng.integers(1, cols + 1)), size=rows)
                frozen.append(labels)
                rows = cols
            params = [layer_params(rng, 3, size) for size in sizes]
            _, trace = sshpool_stack(g.edges, g.features, params, keep, frozen)

            for depth, entry in enumerate(trace.layers):
                a_in = entry.edges.dense()
                if depth:
                    assert np.array_equal(a_in, trace.layers[depth - 1].coarse_adjacency)
                else:
                    assert np.array_equal(a_in, a)
                labels = entry.labels
                same = labels[:, None] == labels[None, :]
                assert np.array_equal(entry.kept.dense(), a_in * same)
                hard = entry.assignment.hard.data
                want = hard.T @ a_in @ hard
                if not keep:
                    np.fill_diagonal(want, 0.0)
                assert np.array_equal(entry.coarse_adjacency, want)
                assert np.signbit(entry.coarse_adjacency).sum() == 0
                assert entry.edges_in == int(a_in.sum()) // 2
                assert entry.edges_kept == int((a_in * same).sum()) // 2
