import math
import os

import numpy as np
import pytest

from sshpool import data
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
from sshpool.pooling import sshpool_stack
from sshpool.tensor import Tape, Tensor, matmul, relu, row_softmax, scale, transpose

from conftest import make_graph, random_graph


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

    def test_ratio_consistency_enforced(self):
        with pytest.raises(ContractError):
            ModelConfig(
                feature_dim_in=3,
                num_classes=2,
                layer_sizes=(128, 10, 8),
                depth=3,
            )

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

        a = Tensor(rng.normal(size=(6, 5)))
        b = Tensor(rng.normal(size=(3, 5)))
        r, c, e = rng.normal(size=(1, 3)), rng.normal(size=(8, 1)), rng.normal(size=(2, 6))
        grads, outputs = [], []
        for attend in (attention_fuse, composed):
            seed = np.random.default_rng(7)
            w0, w1, wq, wk, wv = (
                Tensor(seed.normal(size=shape), requires_grad=True)
                for shape in ((5, 8), (5, 8), (8, 8), (8, 8), (8, 8))
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
            params.named()[name].data = np.zeros_like(params.named()[name].data)
        logits = classify(Tensor(np.ones((3, 6))), params)
        assert np.array_equal(logits.data, np.zeros((1, 2)))

    def test_hand_computed_logits(self):
        cfg = small_config(feature_dim_in=2, hidden_dim=2, layer_sizes=(2, 1), depth=2)
        params = ModelParams(cfg, seed=0)
        params.mlp_w1.data = np.eye(2)
        params.mlp_b1.data = np.array([[1.0, -10.0]])
        params.mlp_w2.data = np.array([[2.0, 0.0], [0.0, 2.0]])
        params.mlp_b2.data = np.array([[0.5, -0.5]])
        logits = classify(Tensor(np.array([[1.0, 3.0]])), params).data
        # hidden = relu([1,3] + [1,-10]) = [2, 0]; logits = [4.5, -0.5]
        assert logits.tolist() == [[4.5, -0.5]]

    def test_argmax_prediction(self):
        assert predict(Tensor([[2.0, -1.0]])) == 0


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
            counts = [g.n] + [t.coarse_features.rows for t in trace.layers]
            for a, b in zip(counts, counts[1:]):
                assert b <= a
            for size, t in zip(cfg.layer_sizes, trace.layers):
                assert t.coarse_features.rows <= size

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
        pooled, _ = sshpool_stack(g.edges, x0, params.pool_layers, cfg.layer_sizes)
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
            assert np.array_equal(a.coarse_features.data, b.coarse_features.data)
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
            assert np.array_equal(params.named()[name].grad_or_zero(), np.zeros((6, 6)))
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
                assert grad is None
            else:
                assert grad is not None and np.any(grad != 0.0)

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

    def test_structure_derived_once_across_forwards(self, rng, monkeypatch):
        g = random_graph(rng, n_lo=8, n_hi=12, d=4)
        derived = []
        from_dense = data.Edges.from_dense

        def counting(a):
            derived.append(a is g.adjacency.data)
            return from_dense(a)

        monkeypatch.setattr(data.Edges, "from_dense", counting)
        params = ModelParams(small_config(), seed=5)
        first, _ = forward(g, params)
        edges, norm = g.edges, g.gcn_norm
        for _ in range(3):
            again, _ = forward(g, params)
            assert np.array_equal(again.data, first.data)
        assert derived.count(True) == 1
        assert g.edges is edges and g.gcn_norm is norm

    def test_permutation_with_frozen_assignments(self, rng):
        g = make_graph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)], 5, d=4, seed=12)
        cfg = small_config(layer_sizes=(2,), depth=1, assignment_ratio=0.5)
        params = ModelParams(cfg, seed=13)
        logits, trace = forward(g, params)
        hard = trace.layers[0].assignment.hard.data

        perm = rng.permutation(5)
        p = np.zeros((5, 5))
        p[np.arange(5), perm] = 1.0  # row i of P x puts old node i at position perm[i]
        adj_p = p.T @ g.adjacency.data @ p
        feat_p = np.zeros_like(g.features.data)
        feat_p[perm] = g.features.data
        g_p = make_graph(list(zip(*np.nonzero(adj_p))), 5, features=feat_p, d=4)
        assert np.array_equal(g_p.adjacency.data, adj_p)
        hard_p = np.zeros_like(hard)
        hard_p[perm] = hard
        logits_p, _ = forward(g_p, params, frozen_assignments=[Tensor(hard_p)])
        assert np.allclose(logits.data, logits_p.data, atol=1e-9)


class TestGradCheckSmall:
    def test_full_model_gradients(self):
        graph, params = fixture_graph_and_params()
        report = check_model_gradients(graph, params)
        assert report.passed, report.worst

    def test_report_covers_every_parameter(self):
        graph, params = fixture_graph_and_params()
        report = check_model_gradients(graph, params)
        assert set(report.worst) == set(params.named())


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
        with pytest.raises(ContractError):
            ModelParams.load(path)

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
