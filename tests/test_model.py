import math
import os
import re

import numpy as np
import pytest

from sshpool import data, model
from sshpool.errors import ContractError, IngestError, ShapeError
from sshpool.gradcheck import check_model_gradients, fixture_graph_and_params
from sshpool.model import (
    ModelConfig,
    ModelParams,
    attention_fuse,
    classify,
    forward,
    global_conv,
    layer_sizes_from_ratio,
    loss,
    predict,
)
from sshpool.pooling import CoarseningTrace, _leading_cols, diffpool_stack, sshpool_stack
from sshpool.tensor import Tape, Tensor, mean_rows, softmax_rows, sum_rows
from sshpool.trainer import METHOD_VARIANTS

from conftest import make_graph, random_graph
from op_reference import (
    add,
    dropout,
    first_cols,
    local_conv,
    matmul,
    relu,
    row_softmax,
    scale,
    transpose,
)


def small_config(**overrides):
    base = dict(
        feature_dim_in=4,
        num_classes=2,
        hidden_dim=6,
        layer_sizes=(4, 2),
        assignment_ratio=0.5,
        depth=2,
        dropout=0.0,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestConfig:
    def test_defaults_consistent(self):
        cfg = ModelConfig(feature_dim_in=3, num_classes=2)
        assert cfg.layer_sizes == (128, 32, 8)
        assert cfg.depth == 3

    def test_any_layer_schedule_accepted(self):
        cfg = ModelConfig(feature_dim_in=3, num_classes=2, layer_sizes=(128, 10, 8), depth=3)
        assert cfg.layer_sizes == (128, 10, 8)

    @pytest.mark.parametrize("sizes", [(2, 4), (4, 4), (8, 4, 4), (8, 2, 3)])
    def test_sizes_must_strictly_decrease(self, sizes):
        with pytest.raises(ContractError, match="layer sizes must strictly decrease"):
            small_config(layer_sizes=sizes, depth=len(sizes), variant="diffpool")

    @pytest.mark.parametrize("depth", [2, 4])
    def test_depth_must_match_layer_sizes(self, depth):
        with pytest.raises(ContractError, match="number of layer sizes"):
            ModelConfig(feature_dim_in=3, num_classes=2, layer_sizes=(128, 10, 8), depth=depth)

    def test_depth_derived_from_layer_sizes(self, tmp_path):
        cfg = ModelConfig(feature_dim_in=4, num_classes=2, layer_sizes=(4, 2))
        assert cfg.depth == 2 and cfg.to_dict()["depth"] == 2
        assert ModelConfig(feature_dim_in=4, num_classes=2, layer_sizes=(4, 2), depth=2) == cfg

    def test_bad_dropout(self):
        with pytest.raises(ContractError):
            small_config(dropout=1.0)

    def test_sizes_from_ratio(self):
        assert layer_sizes_from_ratio(8, 0.5, 3) == (8, 4, 2)
        assert layer_sizes_from_ratio(128, 0.125, 3) == (128, 16, 2)
        assert layer_sizes_from_ratio(128, 0.25, 3) == (128, 32, 8)

    def test_degenerate_ratio_rejected(self):
        with pytest.raises(ContractError):
            layer_sizes_from_ratio(4, 0.1, 3)

    @pytest.mark.parametrize("ratio", [math.nan, math.inf, -math.inf])
    def test_non_finite_ratio_rejected(self, ratio):
        with pytest.raises(ContractError, match=f"assignment ratio must be finite, got {ratio}"):
            layer_sizes_from_ratio(8, ratio, 1)
        with pytest.raises(ContractError, match="assignment ratio must be finite"):
            small_config(assignment_ratio=ratio)

    @pytest.mark.parametrize(
        "field, value",
        # Beside the eval exit-3 test's checkpoint cases: numpy scalars, a string
        # or a bool as layer sizes, a bool dropout and a variant that is no string.
        [("depth", np.float64(2.0)), ("layer_sizes", (4, True)), ("layer_sizes", "42"),
         ("dropout", False), ("keep_coarse_self_loops", np.bool_(True)), ("variant", None)],
    )
    def test_wrongly_typed_field_rejected(self, field, value):
        with pytest.raises(ContractError, match=f"^{field} must be "):
            small_config(**{field: value})

    def test_numpy_integers_accepted_as_python_ints(self, tmp_path):
        cfg = small_config(feature_dim_in=np.int64(4), hidden_dim=np.int64(6),
                           layer_sizes=[np.int64(4), np.int32(2)], depth=np.int32(2),
                           dropout=np.float32(0.25), assignment_ratio=np.float32(0.5))
        assert cfg.layer_sizes == (4, 2)
        assert all(type(s) is int for s in cfg.layer_sizes)
        for name in ("feature_dim_in", "hidden_dim", "depth", "dropout", "assignment_ratio"):
            assert type(getattr(cfg, name)) in (int, float)
        params = ModelParams(cfg, seed=2)
        path = str(tmp_path / "model.ckpt")
        params.save(path)
        loaded = ModelParams.load(path)
        assert loaded.config == cfg
        assert np.array_equal(loaded.data, params.data)


def reference_init(cfg, seed):
    """Name -> value of every parameter, drawn one tensor at a time in
    checkpoint order: Glorot-uniform weights, zero biases."""
    d, k = cfg.hidden_dim, cfg.num_classes
    shapes = {}
    fan_in = cfg.feature_dim_in
    for i in range(cfg.global_conv_layers):
        shapes[f"gconv.{i}.weight"] = (fan_in, d)
        fan_in = d
    for l, size in enumerate(cfg.layer_sizes):
        if cfg.variant == "sshpool":
            shapes[f"pool.{l}.assign"] = (d, size)
            shapes.update({f"pool.{l}.local.{j}": (d, d) for j in range(size)})
        elif cfg.variant == "diffpool":
            shapes[f"pool.{l}.assign"] = (d, size)
            shapes[f"pool.{l}.embed"] = (d, d)
    for name in ("attn.query", "attn.key", "attn.value", "mlp.hidden.weight"):
        shapes[name] = (d, d)
    shapes.update({"mlp.hidden.bias": (1, d), "mlp.out.weight": (d, k), "mlp.out.bias": (1, k)})
    rng = np.random.default_rng(seed)
    values = {}
    for name, (rows, cols) in shapes.items():
        if name.endswith(".bias"):
            values[name] = np.zeros((rows, cols))
        else:
            limit = np.sqrt(6.0 / (rows + cols))
            values[name] = rng.uniform(-limit, limit, size=(rows, cols))
    return values


class TestParamsInit:
    @pytest.mark.parametrize("gconv_layers", [1, 2])
    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_matches_per_tensor_reference_bit_for_bit(self, variant, gconv_layers):
        cfg = small_config(variant=variant, global_conv_layers=gconv_layers,
                           layer_sizes=(5, 3, 1), depth=3, num_classes=3)
        for seed in (0, 7):
            params = ModelParams(cfg, seed=seed)
            want = reference_init(cfg, seed)
            assert list(params.named()) == list(want)
            for name, t in params.named().items():
                assert t.data.tobytes() == want[name].tobytes() and t.shape == want[name].shape
                assert np.shares_memory(t.data, params.data)
                assert np.shares_memory(t.grad, params.grad)
                assert t.grad.shape == t.shape and not t.grad.any()
            assert params.data.tobytes() == b"".join(v.tobytes() for v in want.values())
            for l, layer in enumerate(params.pool_layers):
                size = cfg.layer_sizes[l]
                assert layer.weights.shape == layer.grads.shape == (size, 6, 6)
                assert np.shares_memory(layer.weights, params.data)
                assert np.shares_memory(layer.grads, params.grad)
                assert layer.assign is params.named()[f"pool.{l}.assign"]
                for j in range(size):
                    local = params.named()[f"pool.{l}.local.{j}"]
                    assert np.shares_memory(layer.weights[j], local.data)
                    assert np.shares_memory(layer.grads[j], local.grad)
            assert len(params.pool_layers) == (3 if variant == "sshpool" else 0)


class TestGlobalConv:
    def test_single_node(self):
        g = make_graph([], 1, features=[[3.0, -2.0]], d=2)
        out = global_conv(g, g.features, Tensor(np.eye(2)))
        assert out.data.tolist() == [[3.0, 0.0]]

    def test_isolated_nodes_transform_independently(self, rng):
        f = rng.normal(size=(2, 3))
        g = make_graph([], 2, features=f, d=3)
        w = rng.normal(size=(3, 3))
        both = global_conv(g, g.features, Tensor(w)).data
        for i in range(2):
            gi = make_graph([], 1, features=f[i : i + 1], d=3)
            alone = global_conv(gi, gi.features, Tensor(w)).data
            assert np.allclose(both[i], alone[0], rtol=1e-12)

    def test_triangle_matches_dense_oracle(self, rng):
        g = make_graph([(0, 1), (1, 2), (0, 2)], 3, d=3, seed=5)
        w = rng.normal(size=(3, 4))
        got = global_conv(g, g.features, Tensor(w)).data
        a_tilde = g.adjacency.data + np.eye(3)
        d_inv = np.diag(1.0 / np.sqrt(a_tilde.sum(axis=1)))
        want = np.maximum(d_inv @ a_tilde @ d_inv @ g.features.data @ w, 0.0)
        assert np.allclose(got, want, rtol=1e-12)

    def test_one_tape_record(self, rng):
        g = make_graph([(0, 1), (1, 2)], 3, d=3)
        with Tape() as tape:
            out = global_conv(g, g.features, Tensor(rng.normal(size=(3, 4)), requires_grad=True))
        assert [output for output, _ in tape._records] == [out]

    @pytest.mark.parametrize("source", ["features", "stacked", "trainable", "own_trainable"])
    def test_gradients_match_op_by_op_composition_bit_for_bit(self, rng, source):
        def composed(graph, x, weight):
            return relu(matmul(matmul(Tensor(graph.gcn_norm.dense()), x), weight))

        # Past 16 rows a product's bits depend on its operands' memory order.
        n = 18
        ring = [(u, (u + 1) % n) for u in range(n)]
        g = make_graph(ring + [(0, 2), (3, 9), (5, 14)], n, d=3, seed=2)
        r, c = rng.normal(size=(1, n)), rng.normal(size=(4, 1))
        grads, outputs = [], []
        for conv in (global_conv, composed):
            seed = np.random.default_rng(3)  # about half of each ReLU's inputs are positive
            w0, w1, leaf = (
                Tensor(seed.normal(size=shape), requires_grad=True)
                for shape in ((3, 4), (4, 4), (n, 4))
            )
            if source == "own_trainable":  # the graph's own features, made trainable
                g = data.Graph(g.edges, Tensor(g.features.data, requires_grad=True), g.label)
                leaf = g.features
            with Tape() as tape:
                if source in ("features", "own_trainable"):
                    out = conv(g, g.features, w0)
                elif source == "stacked":  # as --gconv-layers 2 stacks them
                    out = conv(g, conv(g, g.features, w0), w1)
                else:
                    out = conv(g, leaf, w1)
                objective = matmul(Tensor(r), matmul(out, Tensor(c)))
            tape.backward(objective)
            if source == "own_trainable":  # a trainable input takes the dense path
                assert "propagated" not in vars(g)
            outputs.append(out.data)
            grads.append([w0.grad, w1.grad, leaf.grad])
        assert np.array_equal(outputs[0], outputs[1])
        for fused, reference in zip(*grads):
            assert np.array_equal(fused, reference)
        if source == "stacked":
            assert grads[0][0].any()  # w0's only gradient comes through the input push
        if source in ("trainable", "own_trainable"):
            assert grads[0][2].any()

    def test_propagated_features_cached_bit_for_bit_and_read_only(self, rng):
        # Past 16 rows, at width 4, a product's bits depend on the features' memory order.
        g = random_graph(rng, n_lo=18, n_hi=30, d=4)
        w = Tensor(rng.normal(size=(4, 4)))
        assert "propagated" not in vars(g)  # filled by the first forward, not before
        out = global_conv(g, g.features, w)
        ax = vars(g)["propagated"]
        assert ax.tobytes() == (g.gcn_norm.dense() @ g.features.data).tobytes()
        assert not ax.flags.writeable
        with pytest.raises(ValueError):
            ax[0, 0] = 1.0
        assert global_conv(g, g.features, w).data.tobytes() == out.data.tobytes()
        assert g.propagated is ax
        # The same graph with trainable features takes the dense path.
        dense = data.Graph(g.edges, Tensor(g.features.data, requires_grad=True), g.label)
        assert global_conv(dense, dense.features, w).data.tobytes() == out.data.tobytes()

    @pytest.mark.parametrize(
        "variant, gconv_layers, dense_calls",
        [("sshpool", 1, 1), ("global_sum", 1, 1), ("sshpool", 2, 1 + 3)],
    )
    def test_dense_operands_across_three_forwards(
        self, rng, monkeypatch, variant, gconv_layers, dense_calls
    ):
        g = random_graph(rng, n_lo=18, n_hi=24, d=4)
        calls = []
        dense = data.Edges.dense

        def counting(edges):
            calls.append(edges.n)
            return dense(edges)

        monkeypatch.setattr(data.Edges, "dense", counting)
        cfg = small_config(variant=variant, global_conv_layers=gconv_layers)
        params = ModelParams(cfg, seed=5)
        first, _ = forward(g, params)
        for _ in range(2):
            again, _ = forward(g, params)
            assert again.data.tobytes() == first.data.tobytes()
        # once to fill the cache, then once per forward for a second convolution
        assert calls == [g.n] * dense_calls


class TestAttention:
    def test_single_key(self, rng):
        x0 = Tensor(rng.normal(size=(1, 4)))
        pooled = Tensor(rng.normal(size=(3, 4)))
        wq, wk, wv = (Tensor(rng.normal(size=(4, 4))) for _ in range(3))
        out = attention_fuse(x0, pooled, wq, wk, wv).data
        want = np.repeat(x0.data @ wv.data, 3, axis=0)
        assert np.allclose(out, want, rtol=1e-12)

    def test_zero_query_key_gives_uniform(self, rng):
        x0 = Tensor(rng.normal(size=(5, 4)))
        pooled = Tensor(rng.normal(size=(2, 4)))
        zero = Tensor(np.zeros((4, 4)))
        wv = Tensor(rng.normal(size=(4, 4)))
        out = attention_fuse(x0, pooled, zero, zero, wv).data
        want = np.repeat((x0.data @ wv.data).mean(axis=0, keepdims=True), 2, axis=0)
        assert np.allclose(out, want, rtol=1e-12)
        assert np.allclose(out[0], out[1])

    def test_matches_composition_oracle(self, rng):
        x0 = rng.normal(size=(4, 8))
        pooled = rng.normal(size=(2, 8))
        wq, wk, wv = (rng.normal(size=(8, 8)) for _ in range(3))
        got = attention_fuse(
            Tensor(x0), Tensor(pooled), Tensor(wq), Tensor(wk), Tensor(wv)
        ).data
        scores = (pooled @ wq) @ (x0 @ wk).T / math.sqrt(8)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        assert np.allclose(got, attn @ (x0 @ wv), rtol=1e-10)

    def test_one_tape_record(self, rng):
        x0, pooled, wq, wk, wv = (
            Tensor(rng.normal(size=shape), requires_grad=True)
            for shape in ((5, 4), (2, 4), (4, 4), (4, 4), (4, 4))
        )
        with Tape() as tape:
            out = attention_fuse(x0, pooled, wq, wk, wv)
        assert [output for output, _ in tape._records] == [out]

    def test_gradients_match_finite_differences(self, rng):
        leaves = [
            Tensor(rng.normal(size=shape), requires_grad=True)
            for shape in ((5, 4), (3, 4), (4, 4), (4, 4), (4, 4))
        ]
        r = rng.normal(size=(1, 3))
        c = rng.normal(size=(4, 1))
        with Tape() as tape:
            out = attention_fuse(*leaves)
            objective = matmul(Tensor(r), matmul(out, Tensor(c)))
        tape.backward(objective)

        def eval_loss():
            return float((r @ attention_fuse(*leaves).data @ c)[0, 0])

        step = 1e-5
        for tensor in leaves:  # x0, pooled, W_q, W_k, W_v
            flat = tensor.data.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                up = eval_loss()
                flat[idx] = orig - step
                down = eval_loss()
                flat[idx] = orig
                numeric = (up - down) / (2 * step)
                a = tensor.grad.reshape(-1)[idx]
                assert abs(a - numeric) / max(abs(a), abs(numeric), 1e-6) <= 1e-4

    def test_gradients_match_op_by_op_composition_bit_for_bit(self, rng):
        def composed(x0, pooled, w_q, w_k, w_v):
            q = matmul(pooled, w_q)
            k = matmul(x0, w_k)
            v = matmul(x0, w_v)
            scores = scale(matmul(q, transpose(k)), 1.0 / np.sqrt(x0.cols))
            return matmul(row_softmax(scores), v)

        # Operands this large show a product's dependence on their memory
        # order: the fused record must copy the keys' transpose, as
        # ``transpose`` does, to keep every bit.
        a = Tensor(rng.normal(size=(20, 5)))
        b = Tensor(rng.normal(size=(18, 5)))
        r, c, e = rng.normal(size=(1, 18)), rng.normal(size=(16, 1)), rng.normal(size=(2, 20))
        grads, outputs = [], []
        for attend in (attention_fuse, composed):
            seed = np.random.default_rng(7)
            w0, w1, wq, wk, wv = (
                Tensor(seed.normal(size=shape), requires_grad=True)
                for shape in ((5, 16), (5, 16), (16, 16), (16, 16), (16, 16))
            )
            with Tape() as tape:
                # x0 also feeds paths recorded before and after the attention,
                # so the order of its four gradient pushes shows in the bits.
                x0 = relu(matmul(a, w0))
                before = matmul(Tensor(e[:1]), matmul(x0, Tensor(c)))
                pooled = matmul(b, w1)
                out = attend(x0, pooled, wq, wk, wv)
                after = matmul(Tensor(e[1:]), matmul(x0, Tensor(c)))
                objective = matmul(matmul(Tensor(r), matmul(out, Tensor(c))), before)
                objective = matmul(objective, after)
            tape.backward(objective)
            outputs.append(out.data)
            grads.append([w.grad for w in (w0, w1, wq, wk, wv)])
        assert np.array_equal(outputs[0], outputs[1])
        for fused, reference in zip(*grads):
            assert np.array_equal(fused, reference)

    def test_width_mismatch(self, rng):
        with pytest.raises(ShapeError):
            attention_fuse(
                Tensor(np.ones((2, 3))),
                Tensor(np.ones((2, 4))),
                Tensor(np.ones((4, 4))),
                Tensor(np.ones((4, 4))),
                Tensor(np.ones((4, 4))),
            )


class TestClassify:
    def test_zero_params_zero_logits(self):
        cfg = small_config()
        params = ModelParams(cfg, seed=0)
        for name in ("mlp.hidden.weight", "mlp.out.weight"):
            params.named()[name].data[...] = 0.0
        logits = classify(Tensor(np.ones((3, 6))), params)
        assert np.array_equal(logits.data, np.zeros((1, 2)))

    def test_hand_computed_logits(self):
        cfg = small_config(feature_dim_in=2, hidden_dim=2, layer_sizes=(2, 1), depth=2)
        params = ModelParams(cfg, seed=0)
        params.mlp_w1.data[...] = np.eye(2)
        params.mlp_b1.data[...] = np.array([[1.0, -10.0]])
        params.mlp_w2.data[...] = np.array([[2.0, 0.0], [0.0, 2.0]])
        params.mlp_b2.data[...] = np.array([[0.5, -0.5]])
        logits = classify(Tensor(np.array([[1.0, 3.0]])), params).data
        # hidden = relu([1,3] + [1,-10]) = [2, 0]; logits = [4.5, -0.5]
        assert logits.tolist() == [[4.5, -0.5]]

    def test_argmax_prediction(self):
        assert predict(Tensor([[2.0, -1.0]])) == 0

    def test_one_tape_record(self, rng):
        params = ModelParams(small_config(dropout=0.5), seed=0)
        with Tape() as tape:
            h = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
            out = classify(h, params, training=True, rng=np.random.default_rng(0))
        assert [output for output, _ in tape._records] == [out]

    @pytest.mark.parametrize("training", [True, False])
    def test_gradients_match_op_by_op_composition_bit_for_bit(self, rng, training):
        def composed(h, params, training, rng):
            hidden = relu(add(matmul(mean_rows(h), params.mlp_w1), params.mlp_b1))
            hidden = dropout(hidden, params.config.dropout, training, rng)
            return add(matmul(hidden, params.mlp_w2), params.mlp_b2)

        # Past 16 rows a product's bits depend on its operands' memory order.
        a, r = Tensor(rng.normal(size=(20, 4))), rng.normal(size=(2, 1))
        outputs, grads, draws = [], [], []
        for head in (classify, composed):
            params = ModelParams(small_config(dropout=0.5), seed=3)
            w0 = Tensor(np.random.default_rng(7).normal(size=(4, 6)), requires_grad=True)
            drops = np.random.default_rng(11)
            with Tape() as tape:
                h = matmul(a, w0)  # an op output, so its gradient flows on into w0
                out = head(h, params, training, drops)
                objective = matmul(out, Tensor(r))
            tape.backward(objective)
            outputs.append(out.data)
            grads.append([params.grad, w0.grad])
            draws.append(drops.random())
        assert np.array_equal(outputs[0], outputs[1])
        for fused, reference in zip(*grads):
            assert np.array_equal(fused, reference)
        assert draws[0] == draws[1]  # the same dropout draws, and no more


class TestLoss:
    def test_uniform(self):
        assert loss(Tensor([[0.0, 0.0]]), 0).item() == pytest.approx(math.log(2))

    def test_extreme_logits_stable(self):
        assert loss(Tensor([[1000.0, 0.0]]), 0).item() == pytest.approx(0.0, abs=1e-12)

    def test_against_softmax_oracle(self, rng):
        logits = rng.normal(size=(1, 6)) * 2
        label = 4
        soft = np.exp(logits[0]) / np.exp(logits[0]).sum()
        assert loss(Tensor(logits), label).item() == pytest.approx(
            -math.log(soft[label]), rel=1e-10
        )


class TestForward:
    def test_shape_contract_and_trace(self, rng):
        cfg = small_config()
        params = ModelParams(cfg, seed=1)
        for _ in range(10):
            g = random_graph(rng, n_lo=1, n_hi=12, d=4)
            logits, trace = forward(g, params)
            assert logits.shape == (1, 2)
            assert np.all(np.isfinite(logits.data))
            counts = [g.n] + [t.coarse_features.shape[0] for t in trace.layers]
            for a, b in zip(counts, counts[1:]):
                assert b <= a
            for size, t in zip(cfg.layer_sizes, trace.layers):
                assert t.coarse_features.shape[0] <= size

    def test_single_node_graph(self, rng):
        cfg = small_config()
        params = ModelParams(cfg, seed=2)
        g = make_graph([], 1, d=4, seed=3)
        logits, trace = forward(g, params)
        assert logits.shape == (1, 2)
        assert np.all(np.isfinite(logits.data))
        assert len(trace.layers) == 2

    def test_compositional_oracle(self, rng):
        cfg = small_config()
        params = ModelParams(cfg, seed=4)
        g = make_graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)], 6, d=4, seed=6)
        logits, _ = forward(g, params)
        x0 = global_conv(g, g.features, params.gconv[0])
        pooled, _ = sshpool_stack(g.edges, x0, params.pool_layers)
        fused = attention_fuse(x0, pooled, params.attn_q, params.attn_k, params.attn_v)
        want = classify(fused, params)
        assert np.array_equal(logits.data, want.data)

    def test_ablation_isolation(self, rng):
        g = make_graph([(0, 1), (1, 2), (0, 2), (2, 3)], 4, d=4, seed=8)
        cfg_on = small_config(attention_enabled=True)
        cfg_off = small_config(attention_enabled=False)
        p_on = ModelParams(cfg_on, seed=9)
        p_off = ModelParams(cfg_off, seed=9)
        logits_on, trace_on = forward(g, p_on)
        logits_off, trace_off = forward(g, p_off)
        # identical seeds: traces agree through pooling, logits differ after fusion
        for a, b in zip(trace_on.layers, trace_off.layers):
            assert np.array_equal(a.coarse_features, b.coarse_features)
        assert not np.array_equal(logits_on.data, logits_off.data)

    def test_attention_params_get_zero_grad_when_disabled(self, rng):
        g = make_graph([(0, 1), (1, 2)], 3, d=4, seed=10)
        cfg = small_config(attention_enabled=False)
        params = ModelParams(cfg, seed=11)
        with Tape() as tape:
            logits, _ = forward(g, params)
            objective = loss(logits, 1)
        tape.backward(objective)
        for name in ("attn.query", "attn.key", "attn.value"):
            assert np.array_equal(params.named()[name].grad, np.zeros((6, 6)))
        assert params.mlp_w2.grad is not None

    def test_assignment_weights_get_grad_only_in_diffpool(self):
        g = make_graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)], 6, d=4, seed=12)
        for variant in ("sshpool", "diffpool"):
            params = ModelParams(small_config(variant=variant), seed=13)
            with Tape() as tape:
                logits, _ = forward(g, params)
                objective = loss(logits, 1)
            tape.backward(objective)
            grad = params.named()["pool.0.assign"].grad
            if variant == "sshpool":
                # the hard assignment only separates the graph
                assert np.array_equal(grad, np.zeros_like(grad))
            else:
                assert grad is not None and np.any(grad != 0.0)

    def test_keep_coarse_self_loops_puts_kept_edges_on_the_diagonal(self):
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (1, 4), (0, 5)]
        g = make_graph(edges, 6, d=4, seed=14)
        on, off = (
            forward(g, ModelParams(small_config(keep_coarse_self_loops=keep), seed=15))[1]
            .layers[0]
            for keep in (True, False)
        )
        kept = on.kept.dense()
        kept_per_cluster = np.array([kept[np.ix_(c, c)].sum() / 2 for c in on.clusters])
        assert kept_per_cluster.sum() > 0
        a_on, a_off = on.coarse_adjacency, off.coarse_adjacency
        assert np.array_equal(np.diag(a_on), 2.0 * kept_per_cluster)
        assert np.array_equal(np.diag(a_off), np.zeros(len(kept_per_cluster)))
        assert np.array_equal(a_on - np.diag(np.diag(a_on)), a_off)

    def test_feature_dim_mismatch(self, rng):
        params = ModelParams(small_config(), seed=0)
        g = make_graph([(0, 1)], 2, d=7, seed=0)
        with pytest.raises(ShapeError):
            forward(g, params)

    def test_variants_run(self, rng):
        g = random_graph(rng, n_lo=4, n_hi=8, d=4)
        for variant in ("diffpool", "global_sum", "global_mean"):
            cfg = small_config(variant=variant, attention_enabled=False)
            params = ModelParams(cfg, seed=3)
            logits, trace = forward(g, params)
            assert logits.shape == (1, 2)
            assert np.all(np.isfinite(logits.data))
            assert trace.layers == []

    @pytest.mark.parametrize(
        "method, gconv_layers, records",
        [
            ("sshpool", 1, 5),
            ("sshpool", 2, 6),
            ("sshpool_non", 1, 4),
            ("diffpool", 1, 4),
            ("global_sum", 1, 4),
            ("global_sum", 2, 5),
            ("global_mean", 1, 4),
        ],
    )
    def test_tape_records_per_training_forward(self, rng, method, gconv_layers, records):
        # Global convolution, the whole pooling stack (either method),
        # attention, classifier head and loss are one record each.
        cfg = small_config(
            layer_sizes=(8, 4, 2), depth=3, dropout=0.5, global_conv_layers=gconv_layers,
            **METHOD_VARIANTS[method],
        )
        g = random_graph(rng, n_lo=10, n_hi=12, d=4)
        with Tape() as tape:
            logits, _ = forward(g, ModelParams(cfg, seed=1), True, np.random.default_rng(0))
            loss(logits, g.label)
        assert len(tape) == records

    @pytest.mark.parametrize("method, records", [("sshpool", 5), ("sshpool_non", 4)])
    def test_tape_records_with_coarse_self_loops(self, rng, method, records):
        cfg = small_config(
            layer_sizes=(8, 4, 2), depth=3, dropout=0.5, keep_coarse_self_loops=True,
            **METHOD_VARIANTS[method],
        )
        g = random_graph(rng, n_lo=10, n_hi=12, d=4)
        with Tape() as tape:
            logits, _ = forward(g, ModelParams(cfg, seed=1), True, np.random.default_rng(0))
            loss(logits, g.label)
        assert len(tape) == records

    @pytest.mark.parametrize("keep", [False, True])
    def test_assignment_weights_untouched_by_a_training_step(self, rng, keep):
        cfg = small_config(layer_sizes=(8, 4, 2), depth=3, dropout=0.5, keep_coarse_self_loops=keep)
        params = ModelParams(cfg, seed=2)
        g = random_graph(rng, n_lo=10, n_hi=12, d=4)
        with Tape() as tape:
            logits, _ = forward(g, params, True, np.random.default_rng(0))
            objective = loss(logits, g.label)
        tape.backward(objective)
        assert params.grad.any()
        for l in range(3):
            grad = params.named()[f"pool.{l}.assign"].grad
            assert not grad.any() and not np.signbit(grad).any()

    def test_structure_derived_once_across_forwards(self, rng, monkeypatch):
        g = random_graph(rng, n_lo=8, n_hi=12, d=4)  # more nodes than clusters
        shapes = []
        from_dense = data.Edges.from_dense

        def counting(a):
            shapes.append(a.shape)
            return from_dense(a)

        monkeypatch.setattr(data.Edges, "from_dense", counting)
        params = ModelParams(small_config(), seed=5)
        assert "gcn_norm" not in vars(g)
        first, trace = forward(g, params)
        edges, norm, ax = g.edges, vars(g)["gcn_norm"], vars(g)["propagated"]
        coarse = [entry.edges for entry in trace.layers[1:]]
        for _ in range(3):
            again, trace = forward(g, params)
            assert np.array_equal(again.data, first.data)
            assert all(a is b for a, b in zip(coarse, [e.edges for e in trace.layers[1:]]))
        # only coarse adjacencies, one per layer that reads one, on the first
        # forward: the repeats reuse each layer's partition and coarse list
        assert len(shapes) == len(params.config.layer_sizes) - 1
        assert (g.n, g.n) not in shapes
        assert g.edges is edges and g.gcn_norm is norm and g.propagated is ax

    def test_permutation_with_frozen_assignments(self, rng):
        g = make_graph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)], 5, d=4, seed=12)
        cfg = small_config(layer_sizes=(2,), depth=1, assignment_ratio=0.5)
        params = ModelParams(cfg, seed=13)
        logits, trace = forward(g, params)
        labels = trace.layers[0].labels

        perm = rng.permutation(5)
        p = np.zeros((5, 5))
        p[np.arange(5), perm] = 1.0  # row i of P x puts old node i at position perm[i]
        adj_p = p.T @ g.adjacency.data @ p
        feat_p = np.zeros_like(g.features.data)
        feat_p[perm] = g.features.data
        g_p = make_graph(list(zip(*np.nonzero(adj_p))), 5, features=feat_p, d=4)
        assert np.array_equal(g_p.adjacency.data, adj_p)
        labels_p = np.zeros_like(labels)
        labels_p[perm] = labels
        logits_p, _ = forward(g_p, params, frozen_assignments=[labels_p])
        assert np.allclose(logits.data, logits_p.data, atol=1e-9)


def composed_diffpool(adjacency, x0, layers):
    """``diffpool_stack`` as the op-by-op composition, one tape record per op."""
    a, x = Tensor(adjacency), x0
    for w_a, w_e in layers:
        s = row_softmax(matmul(x, first_cols(w_a, x.rows)))
        a_self = add(a, Tensor(np.eye(a.rows)))
        st = transpose(s)
        x = matmul(st, matmul(matmul(a_self, x), w_e))
        a = matmul(matmul(st, a), s)
    return x, a.data


class TestDiffpoolStack:
    def test_matches_op_by_op_composition_bit_for_bit(self, rng, monkeypatch):
        narrowed = 0
        for trial in range(200):
            # Past 16 rows a product's bits depend on its operands' memory order.
            n = int(rng.integers(1, 21))
            depth = int(rng.integers(1, 4))
            sizes = sorted(rng.choice(np.arange(1, 13), size=depth, replace=False))[::-1]
            narrowed += n < sizes[0]
            cfg = small_config(
                variant="diffpool", layer_sizes=tuple(sizes), depth=depth, dropout=0.5,
                attention_enabled=trial % 2 == 0, global_conv_layers=1 + trial // 2 % 2,
            )
            g = random_graph(rng, n_lo=n, n_hi=n, d=4)
            runs = []
            for stack in (diffpool_stack, composed_diffpool):
                monkeypatch.setattr(model, "diffpool_stack", stack)
                params = ModelParams(cfg, seed=trial)
                with Tape() as tape:
                    logits, _ = forward(g, params, True, np.random.default_rng(trial))
                    objective = loss(logits, g.label)
                tape.backward(objective)
                runs.append((logits.data, params.grad))
            (fused_logits, fused_grad), (logits, grad) = runs
            assert fused_logits.tobytes() == logits.tobytes()
            assert fused_grad.tobytes() == grad.tobytes()
        assert narrowed > 20  # c_eff < clusters on the first layer

        graph, params = fixture_graph_and_params("diffpool")  # two layers, attention on
        records = []
        for stack in (diffpool_stack, composed_diffpool):
            monkeypatch.setattr(model, "diffpool_stack", stack)
            with Tape() as tape:
                loss(forward(graph, params)[0], graph.label)
            records.append(len(tape))
        assert records == [5, 22]


def composed_sshpool(adjacency, x, layers, keep_self_loops=False, frozen=None):
    """``sshpool_stack`` as one ``local_conv`` record per layer."""
    for depth, params in enumerate(layers):
        c = min(len(params.weights), x.rows)
        soft = softmax_rows(x.data @ _leading_cols(params.assign.data, c))
        labels = soft.argmax(axis=1) if frozen is None else frozen[depth]
        ends = labels[adjacency.dst], labels[adjacency.src]
        a_mask = adjacency.select(ends[0] == ends[1])
        x = local_conv(x, a_mask, labels, params.weights[:c], params.grads[:c])
        a_next = np.bincount(ends[0] * c + ends[1], weights=adjacency.weight, minlength=c * c)
        if not keep_self_loops:
            a_next[:: c + 1] = 0.0
        adjacency = data.Edges.from_dense(a_next.reshape(c, c))
    return x, CoarseningTrace(layers=[])


class TestSshpoolStack:
    def test_matches_per_layer_records_bit_for_bit(self, rng, monkeypatch):
        narrowed = 0
        for trial in range(200):
            # Past 16 rows a product's bits depend on its operands' memory order.
            n = int(rng.integers(17, 41))
            sizes = tuple(int(s) for s in sorted(rng.choice(np.arange(1, 33), 3, False))[::-1])
            narrowed += n < sizes[0]
            keep = trial % 2 == 0
            cfg = small_config(
                layer_sizes=sizes, depth=3, dropout=0.5, keep_coarse_self_loops=keep,
                attention_enabled=trial // 2 % 2 == 0, global_conv_layers=1 + trial // 4 % 2,
            )
            g = random_graph(rng, n_lo=n, n_hi=n, d=4)
            e = rng.normal(size=(2, n))
            c = Tensor(rng.normal(size=(6, 1)))
            runs = []
            for stack in (sshpool_stack, composed_sshpool):
                monkeypatch.setattr(model, "sshpool_stack", stack)
                params = ModelParams(cfg, seed=trial)
                with Tape() as tape:
                    logits, _ = forward(g, params, True, np.random.default_rng(trial))
                    objective = loss(logits, g.label)
                tape.backward(objective)
                model_grad = params.grad.copy()
                # A trainable input, also read before and after the stack, so
                # the order of its gradient pushes shows in the bits.
                params.zero_grad()
                x = Tensor(np.random.default_rng(trial).normal(size=(n, 6)), requires_grad=True)
                with Tape() as tape:
                    before = matmul(Tensor(e[:1]), matmul(x, c))
                    pooled, _ = stack(g.edges, x, params.pool_layers, keep)
                    after = matmul(Tensor(e[1:]), matmul(x, c))
                    objective = matmul(matmul(matmul(sum_rows(pooled), c), before), after)
                tape.backward(objective)
                runs.append((logits.data, model_grad, pooled.data, params.grad, x.grad))
            for fused, reference in zip(*runs):
                assert fused.tobytes() == reference.tobytes()
        assert narrowed > 20  # c_eff < clusters on the first layer


class TestGradCheckSmall:
    def test_full_model_gradients(self):
        graph, params = fixture_graph_and_params()
        report = check_model_gradients(graph, params)
        assert report.passed, report.worst

    def test_report_covers_every_parameter(self):
        graph, params = fixture_graph_and_params()
        report = check_model_gradients(graph, params)
        assert set(report.worst) == set(params.named())

    @pytest.mark.parametrize("variant", ["sshpool", "diffpool"])
    def test_narrowed_assignment_gradients(self, variant):
        # Nine clusters on six nodes: the first layer uses a six-column view
        # of its assignment weight, which is on diffpool's gradient path.
        graph, params = fixture_graph_and_params(variant)
        config = ModelConfig.from_dict({**params.config.to_dict(), "layer_sizes": [9, 3]})
        params = ModelParams(config, seed=7)
        with Tape() as tape:
            logits, _ = forward(graph, params)
            objective = loss(logits, graph.label)
        tape.backward(objective)
        assign = params.named()["pool.0.assign"].grad
        past = assign[:, graph.n :]
        assert not past.any() and not np.signbit(past).any()
        assert assign[:, : graph.n].any() == (variant == "diffpool")
        report = check_model_gradients(graph, params)
        assert report.passed, report.worst

    @pytest.mark.parametrize("variant", ["sshpool", "global_sum"])
    def test_two_global_conv_layers(self, variant):
        # The second convolution's input is the first one's output, so the
        # gradient it pushes into its input is the only one gconv.0 gets.
        graph, params = fixture_graph_and_params(variant)
        config = ModelConfig.from_dict({**params.config.to_dict(), "global_conv_layers": 2})
        params = ModelParams(config, seed=7)
        with Tape() as tape:
            logits, _ = forward(graph, params)
            objective = loss(logits, graph.label)
        tape.backward(objective)
        assert params.named()["gconv.0.weight"].grad.any()
        report = check_model_gradients(graph, params)
        assert report.passed, report.worst

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"step": 0.0}, "step must be positive and finite"),
            ({"step": -1e-5}, "step must be positive and finite"),
            ({"step": math.nan}, "step must be positive and finite"),
            ({"step": math.inf}, "step must be positive and finite"),
            ({"tolerance": math.nan}, "tolerance must be finite and >= 0"),
            ({"tolerance": -1.0}, "tolerance must be finite and >= 0"),
            ({"tolerance": math.inf}, "tolerance must be finite and >= 0"),
        ],
    )
    def test_bad_step_or_tolerance_rejected(self, kwargs, message):
        graph, params = fixture_graph_and_params()
        with pytest.raises(ContractError, match=message):
            check_model_gradients(graph, params, **kwargs)


class TestPoolWeightStack:
    """Each pooling layer's c x d x d local weights view the model's flat buffers."""

    def test_write_to_data_shows_in_the_stack(self):
        params = ModelParams(small_config(), seed=4)
        params.data[:] = np.arange(params.data.size)
        stored = dict(zip(params.named(), params.split(params.data)))
        for l, (layer, size) in enumerate(zip(params.pool_layers, (4, 2))):
            assert layer.weights.shape == layer.grads.shape == (size, 6, 6)
            for j, w in enumerate(layer.weights):
                assert np.array_equal(w.reshape(-1), stored[f"pool.{l}.local.{j}"])
                named = params.named()[f"pool.{l}.local.{j}"]
                assert np.shares_memory(named.data, w)
                assert np.shares_memory(named.grad, layer.grads[j])

    def test_cluster_gradient_lands_under_its_name(self, rng):
        params = ModelParams(small_config(attention_enabled=False), seed=4)
        g = random_graph(rng, n_lo=6, n_hi=6, d=4)
        with Tape() as tape:
            logits, trace = forward(g, params)
            objective = loss(logits, 1)
        tape.backward(objective)
        grads = dict(zip(params.named(), params.split(params.grad)))
        for l, entry in enumerate(trace.layers):
            occupied = set(entry.labels.tolist())
            layer = params.pool_layers[l]
            for j in range(len(layer.weights)):
                got = grads[f"pool.{l}.local.{j}"]
                assert np.array_equal(got, layer.grads[j].reshape(-1))
                assert got.any() == (j in occupied)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, rng):
        cfg = small_config()
        params = ModelParams(cfg, seed=21)
        path = str(tmp_path / "model.ckpt")
        params.save(path)
        loaded = ModelParams.load(path)
        assert loaded.config == cfg
        for name, t in params.named().items():
            assert np.array_equal(t.data, loaded.named()[name].data)
        g = random_graph(rng, d=4)
        a, _ = forward(g, params)
        b, _ = forward(g, loaded)
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_load_draws_no_weights(self, tmp_path, monkeypatch, variant):
        # load allocates the structure and fills it from the file; it never
        # draws a Glorot weight only to overwrite it.
        params = ModelParams(small_config(variant=variant), seed=21)
        path = str(tmp_path / "model.ckpt")
        params.save(path)

        def no_draw(*args):
            raise AssertionError("load drew Glorot weights")

        monkeypatch.setattr(model, "_glorot", no_draw)
        loaded = ModelParams.load(path)
        assert loaded.data.tobytes() == params.data.tobytes()
        assert list(loaded.named()) == list(params.named())
        assert not loaded.grad.any()
        assert len(loaded.pool_layers) == len(params.pool_layers)
        assert len(loaded.diff_layers) == len(params.diff_layers)

    def test_config_with_mlp_hidden_dim_loads(self, tmp_path, rng):
        import json

        params = ModelParams(small_config(), seed=21)
        path = str(tmp_path / "model.ckpt")
        params.save(path)
        payload = json.loads(open(path).read())
        assert "mlp_hidden_dim" not in payload["config"]
        payload["config"]["mlp_hidden_dim"] = payload["config"]["hidden_dim"]
        open(path, "w").write(json.dumps(payload))
        loaded = ModelParams.load(path)
        g = random_graph(rng, d=4)
        a, _ = forward(g, params)
        b, _ = forward(g, loaded)
        assert np.array_equal(a.data, b.data)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        import json

        path = tmp_path / "model.ckpt"
        ModelParams(small_config(), seed=1).save(str(path))
        before = path.read_bytes()

        def half_then_fail(payload, fh, **kwargs):
            fh.write('{"config": ')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", half_then_fail)
        with pytest.raises(OSError):
            ModelParams(small_config(), seed=2).save(str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_version_checked(self, tmp_path):
        cfg = small_config()
        params = ModelParams(cfg, seed=0)
        path = str(tmp_path / "model.ckpt")
        params.save(path)
        import json

        payload = json.loads(open(path).read())
        payload["version"] = "other"
        open(path, "w").write(json.dumps(payload))
        with pytest.raises(ContractError, match=f"checkpoint {re.escape(path)}: version 'other'"):
            ModelParams.load(path)

    @pytest.mark.parametrize("text", ["[]", '{"config": {}}'], ids=["list", "no-version"])
    def test_payload_without_version_is_ingest_error_naming_the_path(self, tmp_path, text):
        path = tmp_path / "model.ckpt"
        path.write_text(text)
        with pytest.raises(IngestError, match=f"checkpoint {re.escape(str(path))}: missing "
                                              "'version'"):
            ModelParams.load(str(path))

    @pytest.mark.parametrize(
        "damage",
        [
            lambda p: p.pop("config"),
            lambda p: p.pop("params"),
            lambda p: p["params"]["attn.query"].pop("shape"),
            lambda p: p["params"]["attn.query"].pop("data"),
            lambda p: p["params"]["attn.query"]["data"].pop(),
            lambda p: p["params"]["attn.query"].update(shape=[1, 36]),
            lambda p: p["config"].pop("layer_sizes"),
            lambda p: p["config"].update(no_such_field=1),
            lambda p: p["params"]["attn.query"].update(shape=6),
            lambda p: p["params"]["attn.query"].update(data=1.5),
            lambda p: p["params"]["attn.query"]["data"].__setitem__(0, "x"),
            lambda p: p["params"]["attn.query"]["data"].__setitem__(0, [0.0, 1.0]),
            lambda p: p["params"].pop("attn.query"),
            lambda p: p["params"].update(extra={"shape": [1, 1], "data": [0.0]}),
            lambda p: p["params"]["attn.query"]["data"].__setitem__(0, float("nan")),
        ],
        ids=[
            "no-config", "no-params", "no-shape", "no-data", "short-data",
            "wrong-shape", "config-missing-field", "config-unknown-field",
            "shape-not-list", "data-not-list", "data-string", "data-ragged", "missing-param",
            "extra-param", "nan-value",
        ],
    )
    def test_malformed_payload_is_ingest_error(self, tmp_path, damage):
        import json

        path = str(tmp_path / "model.ckpt")
        ModelParams(small_config(), seed=0).save(path)
        payload = json.loads(open(path).read())
        damage(payload)
        open(path, "w").write(json.dumps(payload))
        with pytest.raises(IngestError):
            ModelParams.load(path)

    @pytest.mark.parametrize("entry", [(False, "mlp.out.bias", 0), (True, "attn.query", 3)],
                             ids=["false", "true"])
    def test_boolean_data_entry_is_ingest_error(self, tmp_path, entry):
        # numpy would read true as 1.0 and false as 0.0 and load silently.
        import json

        value, name, index = entry
        path = str(tmp_path / "model.ckpt")
        ModelParams(small_config(), seed=0).save(path)
        payload = json.loads(open(path).read())
        payload["params"][name]["data"][index] = value
        open(path, "w").write(json.dumps(payload))
        with pytest.raises(IngestError, match=f"{name}: 'data' entry {index} is a boolean"):
            ModelParams.load(path)

    @pytest.mark.parametrize(
        "cut, why",
        [(lambda b: b[:300], "truncated or malformed JSON"), (lambda b: b"", "it is empty"),
         (lambda b: b"\xff" + b[1:], "not UTF-8 text")],
        ids=["truncated", "empty", "not-utf8"],
    )
    def test_unreadable_file_is_ingest_error_naming_the_path(self, tmp_path, cut, why):
        path = tmp_path / "model.ckpt"
        ModelParams(small_config(), seed=0).save(str(path))
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(IngestError, match=f"checkpoint {re.escape(str(path))} cannot be "
                                              f"read: {why}"):
            ModelParams.load(str(path))
