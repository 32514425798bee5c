import math

import numpy as np
import pytest

from sshpool.errors import ContractError
from sshpool.pooling import (
    PoolLayerParams,
    baseline_diffpool_layer,
    baseline_global_pool,
    coarsen,
    extract_subgraphs,
    harden,
    local_conv,
    soft_assign,
    sshpool_layer,
    sshpool_stack,
)
from sshpool.tensor import Tape, Tensor, matmul, row_softmax, sum_rows, take_cols

from conftest import make_graph, random_graph
from slice_reference import slice_layer


def random_hard(rng, n, c):
    hard = np.zeros((n, c))
    hard[np.arange(n), rng.integers(0, c, size=n)] = 1.0
    return Tensor(hard)


def run_steps(adjacency, x, hard, weights, keep_self_loops=False):
    """extract_subgraphs -> local_conv -> coarsen under a fixed assignment."""
    labels, a_mask = extract_subgraphs(adjacency, hard)
    x_next, z = local_conv(x, a_mask, labels, weights, hard.cols)
    a_next = coarsen(labels, adjacency, hard.cols, keep_self_loops)
    return labels, a_mask.dense(), z, x_next, a_next


def layer_params(rng, d, c):
    return PoolLayerParams(
        assign=Tensor(rng.normal(size=(d, c)), requires_grad=True),
        local=[Tensor(rng.normal(size=(d, d)), requires_grad=True) for _ in range(c)],
    )


class TestSoftAssign:
    def test_single_cluster(self, rng):
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(3, 1)))
        assert np.array_equal(soft_assign(x, w).data, np.ones((4, 1)))

    def test_zero_logits_uniform(self):
        x = Tensor(np.zeros((3, 5)))
        w = Tensor(np.zeros((5, 4)))
        assert np.allclose(soft_assign(x, w).data, 0.25)

    def test_matches_scalar_exp_oracle(self, rng):
        x = rng.normal(size=(5, 3))
        w = rng.normal(size=(3, 2))
        got = soft_assign(Tensor(x), Tensor(w)).data
        logits = x @ w
        for i in range(5):
            denom = sum(math.exp(v) for v in logits[i])
            for j in range(2):
                assert got[i, j] == pytest.approx(math.exp(logits[i, j]) / denom, rel=1e-9)
        assert np.allclose(got.sum(axis=1), 1.0, atol=1e-9)

    def test_records_nothing(self, rng):
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        with Tape() as tape:
            soft_assign(x, w)
        assert len(tape) == 0

    def test_layer_matches_taped_softmax_bit_for_bit(self, rng):
        # Hardened labels hang on these bits: an ulp can flip a near-tie.
        for _ in range(50):
            g = random_graph(rng, n_lo=2, n_hi=12, d=16)
            clusters = int(rng.integers(1, 16))
            params = layer_params(rng, 16, clusters)
            _, trace = sshpool_layer(g.edges, g.features, params, clusters)
            c_eff = min(clusters, g.n)
            w = params.assign
            if c_eff < clusters:
                w = take_cols(w, range(c_eff))
            want = row_softmax(matmul(g.features, w)).data
            assert np.array_equal(trace.assignment.soft.data, want)


class TestHarden:
    def test_tie_breaks_low_column(self):
        assert harden(Tensor([[0.5, 0.5]])).data.tolist() == [[1.0, 0.0]]

    def test_plain_argmax(self):
        got = harden(Tensor([[0.2, 0.8], [0.9, 0.1]])).data
        assert got.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_random_rows_one_hot_at_max(self, rng):
        raw = rng.random((6, 3))
        soft = raw / raw.sum(axis=1, keepdims=True)
        hard = harden(Tensor(soft)).data
        for i in range(6):
            assert hard[i].sum() == 1.0
            j = int(np.argmax(hard[i]))
            assert soft[i, j] == soft[i].max()

    def test_detached_from_tape(self, rng):
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        with Tape() as tape:
            hard = harden(soft_assign(x, Tensor(np.eye(2))))
        assert hard.is_leaf and not hard.requires_grad

    def test_argmax_invariant_under_positive_logit_scaling(self, rng):
        x = rng.normal(size=(6, 4))
        w = rng.normal(size=(4, 3))
        base = harden(soft_assign(Tensor(x), Tensor(w))).data
        for factor in (0.01, 3.0, 250.0):
            scaled = harden(soft_assign(Tensor(x * factor), Tensor(w))).data
            assert np.array_equal(base, scaled)


class TestExtractSubgraphs:
    def test_path_graph_clusters(self):
        g = make_graph([(0, 1), (1, 2)], 3, d=2)
        hard = Tensor([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        labels, a_mask = extract_subgraphs(g.edges, hard)
        a_mask = a_mask.dense()
        assert labels.tolist() == [0, 0, 1]
        assert a_mask.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        # the crossing edge (1, 2) is masked out
        assert a_mask.sum() == 2.0

    def test_single_cluster_keeps_whole_graph(self, rng):
        g = random_graph(rng)
        labels, a_mask = extract_subgraphs(g.edges, Tensor(np.ones((g.n, 1))))
        assert labels.tolist() == [0] * g.n
        assert np.array_equal(a_mask.dense(), g.adjacency.data)

    def test_partition_oracle(self, rng):
        for _ in range(25):
            g = random_graph(rng, n_lo=8, n_hi=8)
            hard = random_hard(rng, 8, 3)
            labels, a_mask = extract_subgraphs(g.edges, hard)
            a_mask = a_mask.dense()
            assert np.array_equal(hard.data[np.arange(8), labels], np.ones(8))
            for u in range(8):
                for v in range(8):
                    want = g.adjacency.data[u, v] if labels[u] == labels[v] else 0.0
                    assert a_mask[u, v] == want

    def test_rejects_rows_that_are_not_one_hot(self):
        g = make_graph([(0, 1)], 2, d=2)
        for bad in ([[1.0, 0.0], [0.0, 0.0]], [[0.5, 0.5], [1.0, 0.0]], [[1.0, 1.0], [0.0, 1.0]]):
            with pytest.raises(ContractError):
                extract_subgraphs(g.edges, Tensor(bad))


class TestLocalConv:
    def test_single_node_identity_weight(self, rng):
        g = make_graph([], 1, features=[[2.0, -1.0]], d=2)
        _, _, z, _, _ = run_steps(g.edges, g.features, Tensor([[1.0]]), [Tensor(np.eye(2))])
        assert np.array_equal(z, [[2.0, -1.0]])

    def test_isolated_nodes_identity(self):
        g = make_graph([], 2, features=[[1.0, 0.0], [0.0, 1.0]], d=2)
        _, _, z, _, _ = run_steps(
            g.edges, g.features, Tensor([[1.0], [1.0]]), [Tensor(np.eye(2))]
        )
        assert np.array_equal(z, g.features.data)

    def test_triangle_matches_triple_loop(self, rng):
        g = make_graph([(0, 1), (1, 2), (0, 2)], 3, d=4, seed=3)
        w = rng.normal(size=(4, 4))
        _, _, z, _, _ = run_steps(g.edges, g.features, Tensor(np.ones((3, 1))), [Tensor(w)])
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
        hard = Tensor([[1.0, 0.0], [1.0, 0.0]])
        weights = [Tensor(rng.normal(size=(3, 3)), requires_grad=True) for _ in range(2)]
        with Tape() as tape:
            labels, _, z, x_next, _ = run_steps(g.edges, g.features, hard, weights)
            objective = sum_rows(matmul(x_next, Tensor(np.ones((3, 1)))))
        tape.backward(objective)
        assert z[labels == 1].shape == (0, 3)
        assert weights[0].grad is not None
        assert weights[1].grad is None
        assert np.array_equal(weights[1].grad_or_zero(), np.zeros((3, 3)))


class TestCoarsen:
    def test_identity_coarsening(self, rng):
        g = random_graph(rng, n_lo=5, n_hi=5)
        perm = rng.permutation(5)
        hard = np.zeros((5, 5))
        hard[np.arange(5), perm] = 1.0
        weights = [Tensor(np.eye(4)) for _ in range(5)]
        *_, x_next, a_next = run_steps(g.edges, g.features, Tensor(hard), weights)
        assert np.array_equal(x_next.data, hard.T @ g.features.data)
        assert np.array_equal(a_next.data, hard.T @ g.adjacency.data @ hard)

    def test_path_crossing_edge_count(self):
        g = make_graph([(0, 1), (1, 2), (2, 3)], 4, d=2)
        hard = Tensor([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        weights = [Tensor(np.eye(2)), Tensor(np.eye(2))]
        *_, a_next = run_steps(g.edges, g.features, hard, weights)
        assert a_next.data.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_empty_cluster_zero_row_and_col(self, rng):
        g = make_graph([(0, 1)], 2, d=3)
        hard = Tensor([[1.0, 0.0], [1.0, 0.0]])
        weights = [Tensor(rng.normal(size=(3, 3))), Tensor(rng.normal(size=(3, 3)))]
        *_, x_next, a_next = run_steps(g.edges, g.features, hard, weights)
        assert np.array_equal(x_next.data[1], np.zeros(3))
        assert np.all(a_next.data[1] == 0) and np.all(a_next.data[:, 1] == 0)

    def test_column_sum_oracle(self, rng):
        for _ in range(25):
            g = random_graph(rng, n_lo=4, n_hi=10)
            c = int(rng.integers(1, 5))
            hard = random_hard(rng, g.n, c)
            weights = [Tensor(rng.normal(size=(4, 4))) for _ in range(c)]
            labels, _, z, x_next, a_next = run_steps(g.edges, g.features, hard, weights)
            for j in range(c):
                acc = np.zeros(4)
                for r in np.flatnonzero(labels == j):
                    acc = acc + z[r]
                assert np.array_equal(x_next.data[j], acc)
            # pairwise inter-cluster edge counting
            cluster_of = hard.data.argmax(axis=1)
            want = np.zeros((c, c))
            for u in range(g.n):
                for v in range(g.n):
                    if g.adjacency.data[u, v] and cluster_of[u] != cluster_of[v]:
                        want[cluster_of[u], cluster_of[v]] += 1
            assert np.array_equal(a_next.data, want)

    def test_single_column_sums_in_ascending_order(self, rng):
        # one feature column: numpy's own column sum would go pairwise here
        for _ in range(20):
            n = int(rng.integers(8, 40))
            x = rng.normal(size=(n, 1)) * 10.0 ** rng.integers(-8, 9, size=(n, 1))
            hard = random_hard(rng, n, 2)
            g = make_graph([], n, features=x, d=1)
            labels, _, z, x_next, _ = run_steps(
                g.edges, g.features, hard, [Tensor([[1.0]]), Tensor([[-3.0]])]
            )
            for j in range(2):
                acc = np.zeros(1)
                for r in np.flatnonzero(labels == j):
                    acc = acc + z[r]
                assert np.array_equal(x_next.data[j], acc)

    def test_edge_conservation(self, rng):
        for _ in range(25):
            g = random_graph(rng, n_lo=4, n_hi=10)
            c = int(rng.integers(1, 5))
            hard = random_hard(rng, g.n, c)
            weights = [Tensor(rng.normal(size=(4, 4))) for _ in range(c)]
            _, a_mask, _, _, a_next = run_steps(g.edges, g.features, hard, weights)
            intra = int(a_mask.sum()) // 2
            assert a_next.data.sum() + 2 * intra == 2 * g.num_edges

    def test_keep_self_loops_flag(self, rng):
        g = make_graph([(0, 1)], 2, d=2)
        hard = Tensor([[1.0, 0.0], [0.0, 1.0]])
        weights = [Tensor(np.eye(2)), Tensor(np.eye(2))]
        *_, a_keep = run_steps(g.edges, g.features, hard, weights, keep_self_loops=True)
        assert np.array_equal(a_keep.data, hard.data.T @ g.adjacency.data @ hard.data)


class TestLayerAndStack:
    def test_single_node_any_cluster_count(self, rng):
        g = make_graph([], 1, features=[[1.0, 2.0, 3.0]], d=3)
        params = layer_params(rng, 3, 5)
        (a_next, x_next), trace = sshpool_layer(g.edges, g.features, params, 5)
        assert x_next.shape == (1, 3)
        assert np.array_equal(x_next.data, g.features.data @ params.local[0].data)
        assert a_next.dense().shape == (1, 1)

    def test_one_cluster_column_sum(self, rng):
        g = random_graph(rng, n_lo=4, n_hi=6)
        params = layer_params(rng, 4, 1)
        (_, x_next), _ = sshpool_layer(g.edges, g.features, params, 1)
        a_tilde = g.adjacency.data + np.eye(g.n)
        z = a_tilde @ g.features.data @ params.local[0].data
        acc = np.zeros(4)
        for r in range(g.n):
            acc = acc + z[r]
        assert np.allclose(x_next.data[0], acc, rtol=1e-12)

    def test_two_triangles_compositional_oracle(self, rng):
        g = make_graph(
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)], 6, d=4, seed=11
        )
        params = layer_params(rng, 4, 2)
        (a_next, x_next), trace = sshpool_layer(g.edges, g.features, params, 2)
        # replay the five steps by hand
        soft = soft_assign(g.features, params.assign)
        hard = harden(soft)
        *_, x_want, a_want = run_steps(g.edges, g.features, hard, params.local)
        assert np.array_equal(x_next.data, x_want.data)
        assert np.array_equal(a_next.dense(), a_want.data)
        assert np.array_equal(trace.assignment.hard.data, hard.data)

    @pytest.mark.parametrize("clusters", [3, 9])
    def test_layer_records_one_local_conv(self, rng, clusters):
        # convolution and coarsening are one record; its output is the coarse rows
        g = random_graph(rng, n_lo=6, n_hi=6)
        params = layer_params(rng, 4, clusters)
        with Tape() as tape:
            (_, x_next), _ = sshpool_layer(g.edges, g.features, params, clusters)
        assert [output for output, _ in tape._records] == [x_next]

    def test_effective_clusters_capped_at_nodes(self, rng):
        g = random_graph(rng, n_lo=3, n_hi=3)
        params = layer_params(rng, 4, 8)
        (a_next, x_next), trace = sshpool_layer(g.edges, g.features, params, 8)
        assert x_next.rows == 3
        assert a_next.dense().shape == (3, 3)
        assert trace.assignment.hard.shape == (3, 3)

    def test_stack_depth_one_equals_layer(self, rng):
        g = random_graph(rng, n_lo=5, n_hi=8)
        params = layer_params(rng, 4, 3)
        (_, x_layer), _ = sshpool_layer(g.edges, g.features, params, 3)
        x_stack, trace = sshpool_stack(g.edges, g.features, [params], (3,))
        assert np.array_equal(x_layer.data, x_stack.data)
        assert len(trace.layers) == 1

    def test_stack_two_layers_chained_oracle(self, rng):
        g = random_graph(rng, n_lo=10, n_hi=12)
        p0 = layer_params(rng, 4, 4)
        p1 = layer_params(rng, 4, 2)
        x_stack, trace = sshpool_stack(g.edges, g.features, [p0, p1], (4, 2))
        (a1, x1), _ = sshpool_layer(g.edges, g.features, p0, 4)
        (_, x2), _ = sshpool_layer(a1, x1, p1, 2)
        assert np.array_equal(x_stack.data, x2.data)
        assert x_stack.rows <= 2
        assert len(trace.layers) == 2

    def test_stack_requires_decreasing_sizes(self, rng):
        g = random_graph(rng)
        p0 = layer_params(rng, 4, 2)
        p1 = layer_params(rng, 4, 2)
        with pytest.raises(ContractError):
            sshpool_stack(g.edges, g.features, [p0, p1], (2, 2))

    def test_locality_literal_form(self, rng):
        for _ in range(10):
            g = random_graph(rng, n_lo=6, n_hi=10)
            c = int(rng.integers(2, 4))
            hard = random_hard(rng, g.n, c)
            weights = [Tensor(rng.normal(size=(4, 4))) for _ in range(c)]
            labels, _, z, x_next, _ = run_steps(g.edges, g.features, hard, weights)

            u = int(rng.integers(g.n))
            bumped = g.features.data.copy()
            bumped[u] += rng.normal(size=4)
            _, _, z_b, x_next_b, _ = run_steps(g.edges, Tensor(bumped), hard, weights)
            home = labels[u]
            for k in range(c):
                if k == home:
                    continue
                rows = labels == k
                assert np.array_equal(z[rows], z_b[rows])
                assert np.array_equal(x_next.data[k], x_next_b.data[k])

    def test_stack_gradients_match_finite_differences(self, rng):
        g = random_graph(rng, n_lo=6, n_hi=8)
        p0 = layer_params(rng, 4, 3)
        p1 = layer_params(rng, 4, 1)

        with Tape() as tape:
            x_out, trace = sshpool_stack(g.edges, g.features, [p0, p1], (3, 1))
            r = Tensor(rng.normal(size=(1, x_out.rows)))
            c = Tensor(rng.normal(size=(x_out.cols, 1)))
            objective = matmul(r, matmul(x_out, c))
        tape.backward(objective)
        frozen = trace.hard_assignments()

        def eval_loss():
            x_e, _ = sshpool_stack(
                g.edges, g.features, [p0, p1], (3, 1), frozen=frozen
            )
            return float((r.data @ x_e.data @ c.data)[0, 0])

        step = 1e-5
        for params in (p0, p1):
            for tensor in [params.assign, *params.local]:
                analytic = tensor.grad_or_zero()
                flat = tensor.data.reshape(-1)
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
    def test_global_pool_examples(self, rng):
        x = Tensor(np.eye(3))
        assert baseline_global_pool(x, "sum").data.tolist() == [[1.0, 1.0, 1.0]]
        row = Tensor([[4.0, 5.0]])
        assert baseline_global_pool(row, "mean").data.tolist() == [[4.0, 5.0]]
        y = rng.normal(size=(5, 4))
        want_sum = np.zeros(4)
        for r in range(5):
            want_sum = want_sum + y[r]
        assert np.array_equal(baseline_global_pool(Tensor(y), "sum").data[0], want_sum)
        assert np.allclose(baseline_global_pool(Tensor(y), "mean").data[0], want_sum / 5)

    def test_global_pool_bad_mode(self, rng):
        with pytest.raises(ContractError):
            baseline_global_pool(Tensor(np.ones((2, 2))), "max")

    def test_diffpool_one_hot_limit(self, rng):
        # engineer logits so extreme that softmax is numerically one-hot
        g = make_graph([(0, 1), (1, 2), (2, 3)], 4, d=2, seed=2)
        w_a = Tensor(np.array([[400.0, -400.0], [-400.0, 400.0]]))
        features = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        x = Tensor(features)
        w_e = Tensor(rng.normal(size=(2, 2)))
        a_next, x_next = baseline_diffpool_layer(g.adjacency, x, w_a, w_e)
        hard = Tensor(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
        # hard coarsening of the same inputs with the shared weight
        a_tilde = g.adjacency.data + np.eye(4)
        want_x = hard.data.T @ a_tilde @ features @ w_e.data
        want_a = hard.data.T @ g.adjacency.data @ hard.data
        assert np.allclose(x_next.data, want_x, atol=1e-12)
        assert np.allclose(a_next.data, want_a, atol=1e-12)

    def test_diffpool_single_cluster(self, rng):
        g = random_graph(rng, n_lo=4, n_hi=6)
        w_a = Tensor(rng.normal(size=(4, 1)))
        w_e = Tensor(rng.normal(size=(4, 4)))
        a_next, x_next = baseline_diffpool_layer(g.adjacency, g.features, w_a, w_e)
        a_tilde = g.adjacency.data + np.eye(g.n)
        want = np.ones((1, g.n)) @ a_tilde @ g.features.data @ w_e.data
        assert np.allclose(x_next.data, want, rtol=1e-12)
        assert a_next.shape == (1, 1)

    def test_diffpool_composition_oracle(self, rng):
        g = random_graph(rng, n_lo=5, n_hi=7)
        w_a = rng.normal(size=(4, 3))
        w_e = rng.normal(size=(4, 4))
        a_next, x_next = baseline_diffpool_layer(
            g.adjacency, g.features, Tensor(w_a), Tensor(w_e)
        )
        logits = g.features.data @ w_a
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        s = e / e.sum(axis=1, keepdims=True)
        a_tilde = g.adjacency.data + np.eye(g.n)
        assert np.allclose(x_next.data, s.T @ a_tilde @ g.features.data @ w_e, rtol=1e-10)
        assert np.allclose(a_next.data, s.T @ g.adjacency.data @ s, rtol=1e-10)


class TestPartitionProperty:
    def test_thousand_random_assignments(self, rng):
        trials = 0
        while trials < 1000:
            g = random_graph(rng, n_lo=3, n_hi=10)
            c = int(rng.integers(1, 6))
            # the layer caps its clusters at the node count
            hard = random_hard(rng, g.n, min(c, g.n))
            params = layer_params(rng, 4, c)
            _, trace = sshpool_layer(g.edges, g.features, params, c, frozen_hard=hard)
            ids = [i for members in trace.clusters for i in members]
            assert sorted(ids) == list(range(g.n))
            assert trace.cluster_sizes == [len(m) for m in trace.clusters]
            assert np.all(hard.data.sum(axis=1) == 1.0)
            trials += 1


class TestAgainstSliceReference:
    """The fused layer against the per-cluster reference in slice_reference."""

    def test_random_graphs(self, rng):
        for trial in range(200):
            g = random_graph(rng, n_lo=1, n_hi=14)
            c = int(rng.integers(1, 7))
            params = layer_params(rng, 4, c)
            keep = bool(trial % 3 == 0)
            frozen = random_hard(rng, g.n, min(c, g.n)) if trial % 2 else None
            (a_next, x_next), trace = sshpool_layer(
                g.edges, g.features, params, c, keep, frozen_hard=frozen
            )
            hard = trace.assignment.hard.data
            ref = slice_layer(
                g.adjacency.data, g.features.data, hard, [w.data for w in params.local], keep
            )
            assert np.allclose(x_next.data, ref.coarse_features, rtol=1e-12, atol=1e-12)
            for members, z_j in zip(ref.clusters, ref.local_embeddings):
                assert np.allclose(
                    trace.local_embedding[members], z_j, rtol=1e-12, atol=1e-12
                )
            assert np.array_equal(a_next.dense(), ref.coarse_adjacency)
            assert trace.clusters == ref.clusters
            assert trace.edges_kept == ref.edges_kept


class TestLayerFiniteDifferences:
    """Central differences of the fused layer w.r.t. x and every local weight."""

    def check(self, g, clusters, rng, frozen=None):
        params = layer_params(rng, g.features.cols, clusters)
        x = Tensor(g.features.data.copy(), requires_grad=True)
        with Tape() as tape:
            (_, x_next), trace = sshpool_layer(g.edges, x, params, clusters, frozen_hard=frozen)
            r = rng.normal(size=(1, x_next.rows))
            c = rng.normal(size=(x_next.cols, 1))
            objective = matmul(Tensor(r), matmul(x_next, Tensor(c)))
        tape.backward(objective)
        hard = trace.assignment.hard

        def probe():
            (_, x_e), _ = sshpool_layer(g.edges, x, params, clusters, frozen_hard=hard)
            return float((r @ x_e.data @ c)[0, 0])

        step = 1e-5
        for tensor in [x, *params.local]:
            analytic = tensor.grad_or_zero().reshape(-1)
            flat = tensor.data.reshape(-1)
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
        occupied = set(trace.labels.tolist())
        for j, w in enumerate(params.local):
            assert (w.grad is not None) == (j in occupied)
        return trace

    def test_empty_and_singleton_clusters(self, rng):
        g = make_graph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)], 5, d=4, seed=5)
        hard = np.zeros((5, 4))
        hard[np.arange(5), [0, 0, 3, 0, 2]] = 1.0
        trace = self.check(g, 4, rng, frozen=Tensor(hard))
        assert trace.cluster_sizes == [3, 0, 1, 1]

    def test_one_node(self, rng):
        g = make_graph([], 1, d=4, seed=6)
        trace = self.check(g, 3, rng)
        assert trace.cluster_sizes == [1]

    def test_fewer_nodes_than_clusters(self, rng):
        g = make_graph([(0, 1), (1, 2)], 3, d=4, seed=7)
        trace = self.check(g, 6, rng)
        assert trace.assignment.hard.shape == (3, 3)

    def test_single_column_large_cluster(self, rng):
        g = make_graph([(u, u + 1) for u in range(11)], 12, d=1, seed=8)
        hard = np.zeros((12, 3))
        hard[np.arange(12), [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0]] = 1.0
        trace = self.check(g, 3, rng, frozen=Tensor(hard))
        assert trace.cluster_sizes == [11, 1, 0]


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
                frozen.append(Tensor(np.eye(cols)[labels]))
                rows = cols
            params = [layer_params(rng, 3, size) for size in sizes]
            _, trace = sshpool_stack(g.edges, g.features, params, sizes, keep, frozen)

            for depth, entry in enumerate(trace.layers):
                a_in = entry.adjacency
                if depth:
                    assert np.array_equal(a_in, trace.layers[depth - 1].coarse_adjacency.data)
                else:
                    assert np.array_equal(a_in, a)
                labels = entry.labels
                same = labels[:, None] == labels[None, :]
                assert np.array_equal(entry.a_mask, a_in * same)
                hard = entry.assignment.hard.data
                want = hard.T @ a_in @ hard
                if not keep:
                    np.fill_diagonal(want, 0.0)
                assert np.array_equal(entry.coarse_adjacency.data, want)
                assert np.signbit(entry.coarse_adjacency.data).sum() == 0
                assert entry.edges_in == int(a_in.sum()) // 2
                assert entry.edges_kept == int((a_in * same).sum()) // 2
