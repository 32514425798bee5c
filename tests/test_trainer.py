import os

import numpy as np
import pytest

from sshpool.data import make_folds
from sshpool.errors import ContractError
from sshpool.model import ModelConfig, ModelParams
from sshpool.synth import triangle_dataset
from sshpool.trainer import (
    AdamState,
    FoldResult,
    TrainConfig,
    _mean_curve,
    adam_step,
    cross_validate,
    mean_and_std_error,
    train_graphs,
)

from conftest import make_graph

DESK_CORPUS = os.path.join(os.path.dirname(__file__), "_desk_corpus")


def tiny_model_config(ds, **overrides):
    base = dict(
        feature_dim_in=ds.feature_dim,
        num_classes=ds.num_classes,
        hidden_dim=8,
        layer_sizes=(4, 2),
        assignment_ratio=0.5,
        depth=2,
        dropout=0.0,
    )
    base.update(overrides)
    return ModelConfig(**base)


class ScalarAdamOracle:
    """Hand-rolled Adam on one scalar, matching the published update rule."""

    def __init__(self, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps
        self.m = self.v = 0.0
        self.t = 0

    def step(self, theta, grad):
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * grad
        self.v = self.b2 * self.v + (1 - self.b2) * grad * grad
        m_hat = self.m / (1 - self.b1**self.t)
        v_hat = self.v / (1 - self.b2**self.t)
        return theta - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class FlatParams:
    """Minimal stand-in exposing the flat ``data``/``grad`` vectors adam_step needs."""

    def __init__(self, data):
        self.data = np.array(data, dtype=np.float64).reshape(-1)
        self.grad = np.zeros_like(self.data)


class TestAdam:
    def test_zero_grads_leave_params(self):
        params = FlatParams(np.ones(4))
        state = AdamState(4)
        cfg = TrainConfig(epochs=1, repeats=1, folds=2)
        adam_step(params, state, cfg)
        assert np.array_equal(params.data, np.ones(4))
        assert state.t == 1

    def test_first_step_is_lr_sign(self):
        for g in (3.7, -0.002):
            params = FlatParams([1.0])
            params.grad[0] = g
            state = AdamState(1)
            cfg = TrainConfig(lr=1e-3, epochs=1, repeats=1, folds=2)
            adam_step(params, state, cfg)
            update = params.data[0] - 1.0
            assert update == pytest.approx(-1e-3 * np.sign(g), rel=1e-4)

    def test_five_steps_match_scalar_oracle(self):
        params = FlatParams([2.0])
        state = AdamState(1)
        cfg = TrainConfig(lr=0.05, epochs=1, repeats=1, folds=2)
        oracle = ScalarAdamOracle(lr=0.05)
        theta = 2.0
        for _ in range(5):
            params.grad[0] = 2.0 * params.data[0]  # quadratic objective w^2
            adam_step(params, state, cfg)
            theta = oracle.step(theta, 2.0 * theta)
            assert params.data[0] == pytest.approx(theta, rel=1e-12)

    def test_flat_step_matches_per_parameter_eager_oracle_bit_for_bit(self):
        def eager_step(data, grads, m, v, t, lr):
            """Adam per parameter, as one numpy expression each, with zero
            moments from the start and a zero matrix for a missing gradient."""
            b1, b2, eps = 0.9, 0.999, 1e-8
            for name in data:
                g = grads.get(name, np.zeros_like(data[name]))
                m[name] = b1 * m[name] + (1.0 - b1) * g
                v[name] = b2 * v[name] + (1.0 - b2) * g * g
                data[name] = data[name] - lr * (m[name] / (1.0 - b1**t)) / (
                    np.sqrt(v[name] / (1.0 - b2**t)) + eps
                )

        rng = np.random.default_rng(3)
        ds = triangle_dataset(4, seed=0)
        params = ModelParams(tiny_model_config(ds), seed=5)
        named = params.named()
        start = {n: t.data.copy() for n, t in named.items()}
        state = AdamState(params.data.size)
        cfg = TrainConfig(lr=0.01, epochs=1, repeats=1, folds=2)
        data = {n: d.copy() for n, d in start.items()}
        m = {n: np.zeros_like(d) for n, d in start.items()}
        v = {n: np.zeros_like(d) for n, d in start.items()}
        late, never, first_late = "pool.0.local.1", "pool.1.local.0", 7
        for step in range(1, 21):
            params.zero_grad()
            grads = {
                n: rng.normal(size=t.shape)
                for n, t in named.items()
                if n not in (late, never) and rng.random() < 0.6
            }
            if step >= first_late and rng.random() < 0.6:
                grads[late] = rng.normal(size=named[late].shape)
            for name, g in grads.items():
                named[name].grad[...] = g
            adam_step(params, state, cfg)
            eager_step(data, grads, m, v, step, cfg.lr)
            for name, t in named.items():
                assert np.array_equal(t.data, data[name]), (name, step)
        assert not np.array_equal(named[late].data, start[late])
        assert named[never].data.tobytes() == start[never].tobytes()


class TestFlatBuffers:
    @staticmethod
    def assert_views(params):
        for name, t in params.named().items():
            assert np.shares_memory(t.data, params.data), name
            assert np.shares_memory(t.grad, params.grad), name

    def test_tensors_stay_views_through_training_load_and_gradcheck(self, tmp_path):
        from sshpool.gradcheck import check_model_gradients, fixture_graph_and_params

        ds = triangle_dataset(8, seed=0)
        tc = TrainConfig(epochs=2, batch_size=3, folds=2, repeats=1, seed=1)
        result = train_graphs(ds, list(range(6)), [6, 7], tiny_model_config(ds), tc)
        self.assert_views(result.params)
        path = str(tmp_path / "model.ckpt")
        result.params.save(path)
        loaded = ModelParams.load(path)
        self.assert_views(loaded)
        assert np.array_equal(loaded.data, result.params.data)

        graph, params = fixture_graph_and_params()
        before = params.data.tobytes()
        check_model_gradients(graph, params)
        self.assert_views(params)
        assert params.data.tobytes() == before


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ContractError):
            TrainConfig(epochs=0)
        with pytest.raises(ContractError):
            TrainConfig(lr=0.0)
        with pytest.raises(ContractError):
            TrainConfig(batch_size=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ContractError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)


class TestTrainFold:
    def test_single_class_dataset_trivial_accuracy(self):
        from sshpool.data import Dataset

        graphs = [make_graph([(0, 1)], 2, d=4, seed=i) for i in range(6)]
        ds = Dataset(
            name="one-class", graphs=graphs, num_classes=1, feature_dim=4,
            feature_mode="constant",
        )
        cfg = tiny_model_config(ds)
        tc = TrainConfig(epochs=2, folds=2, repeats=1, seed=0)
        plan = make_folds(ds, 2, seed=0)
        result = train_graphs(ds, plan.train_indices(0), plan.test_indices(0), cfg, tc)
        assert result.final_accuracy == 1.0

    def test_deterministic_loss_curves(self):
        ds = triangle_dataset(8, seed=0)
        cfg = tiny_model_config(ds, dropout=0.3)
        tc = TrainConfig(epochs=3, folds=2, repeats=1, seed=11)
        plan = make_folds(ds, 2, seed=11)
        a = train_graphs(ds, plan.train_indices(0), plan.test_indices(0), cfg, tc)
        b = train_graphs(ds, plan.train_indices(0), plan.test_indices(0), cfg, tc)
        assert a.curve == b.curve

    def test_partitions_left_by_another_run_keep_every_bit(self):
        # Each pooling layer keeps its last partition on the graph's edge
        # lists. A run on graphs warmed by a run at another seed must give
        # the bits of the same run on freshly loaded graphs.
        from sshpool.data import load_tu_dataset, stratified_subset

        def load():
            return stratified_subset(load_tu_dataset(DESK_CORPUS, "chordal"), 30, seed=2)

        warm, fresh = load(), load()
        cfg = tiny_model_config(warm, layer_sizes=(6, 3, 2), depth=3, dropout=0.3)
        plan = make_folds(warm, 2, seed=2)
        split = plan.train_indices(0), plan.test_indices(0)
        train_graphs(warm, *split, cfg, TrainConfig(epochs=2, folds=2, repeats=1, seed=5))
        assert all(g.edges.partition is not None for g in warm.graphs)
        assert all(g.edges.partition is None for g in fresh.graphs)
        tc = TrainConfig(epochs=3, folds=2, repeats=1, seed=0)
        got = train_graphs(warm, *split, cfg, tc)
        want = train_graphs(fresh, *split, cfg, tc)
        assert got.curve == want.curve
        assert got.params.data.tobytes() == want.params.data.tobytes()

    def test_no_test_fold_leakage(self, monkeypatch):
        # Every epoch trains on each train-fold graph once, then evaluates
        # each test-fold graph once; no test graph reaches a training forward.
        import sshpool.trainer as trainer_module

        calls = []
        real_forward = trainer_module.forward

        def forward(graph, params, training=False, rng=None):
            calls.append((training, graph))
            return real_forward(graph, params, training=training, rng=rng)

        monkeypatch.setattr(trainer_module, "forward", forward)
        ds = triangle_dataset(10, seed=0)
        cfg = tiny_model_config(ds)
        tc = TrainConfig(epochs=3, batch_size=2, folds=2, repeats=1, seed=5)
        plan = make_folds(ds, 2, seed=5)
        train_idx, test_idx = plan.train_indices(0), plan.test_indices(0)
        train_graphs(ds, train_idx, test_idx, cfg, tc)
        index = {id(g): i for i, g in enumerate(ds.graphs)}
        per_epoch = len(train_idx) + len(test_idx)
        assert len(calls) == tc.epochs * per_epoch
        for start in range(0, len(calls), per_epoch):
            epoch = calls[start : start + per_epoch]
            trained = [(t, index[id(g)]) for t, g in epoch[: len(train_idx)]]
            evaluated = [(t, index[id(g)]) for t, g in epoch[len(train_idx) :]]
            assert sorted(trained) == [(True, i) for i in sorted(train_idx)]
            assert evaluated == [(False, i) for i in test_idx]

    def test_loss_trend_on_overfit_fixture(self):
        ds = triangle_dataset(8, seed=2)
        cfg = tiny_model_config(ds)
        tc = TrainConfig(epochs=40, folds=2, repeats=1, seed=1, batch_size=8)
        result = train_graphs(ds, list(range(8)), [], cfg, tc)
        train_rows = [r for r in result.curve if r["split"] == "train"]
        assert train_rows[-1]["loss"] < train_rows[0]["loss"]


    def test_non_finite_loss_names_epoch_and_graph(self):
        # NaN features reach the loss through ReLU; training stops at graph 5
        ds = triangle_dataset(8, seed=0)
        ds.graphs[5].features.data[0, 0] = np.nan
        tc = TrainConfig(epochs=2, batch_size=8, folds=2, repeats=1, seed=0)
        with pytest.raises(ContractError, match="epoch 1, graph 5"):
            train_graphs(ds, list(range(8)), [], tiny_model_config(ds), tc)

    def test_diverged_run_raises_instead_of_finite_losses(self):
        from sshpool.data import load_tu_dataset, stratified_subset

        ds = stratified_subset(load_tu_dataset(DESK_CORPUS, "chordal"), 24, seed=0)
        cfg = tiny_model_config(ds, hidden_dim=16, layer_sizes=(8, 2), assignment_ratio=0.25)
        tc = TrainConfig(lr=1e300, epochs=3, batch_size=8, folds=2, repeats=1, seed=0)
        with np.errstate(all="ignore"), pytest.raises(ContractError, match="non-finite"):
            train_graphs(ds, list(range(24)), [], cfg, tc)

    def test_forward_once_per_graph_and_adam_step_once_per_batch(self, monkeypatch):
        # The benchmark counts graphs and optimiser steps by wrapping
        # ``forward`` and ``adam_step``; this pins the call structure it reads.
        import sshpool.trainer as trainer_module

        calls = {"train": 0, "eval": 0, "steps": 0}
        real_forward, real_step = trainer_module.forward, trainer_module.adam_step

        def forward(graph, params, training=False, rng=None):
            calls["train" if training else "eval"] += 1
            return real_forward(graph, params, training=training, rng=rng)

        def adam_step(*args):
            calls["steps"] += 1
            return real_step(*args)

        monkeypatch.setattr(trainer_module, "forward", forward)
        monkeypatch.setattr(trainer_module, "adam_step", adam_step)
        ds = triangle_dataset(10, seed=0)
        train_idx, test_idx = list(range(7)), [7, 8, 9]
        tc = TrainConfig(epochs=3, batch_size=3, folds=2, repeats=1, seed=2)
        train_graphs(ds, train_idx, test_idx, tiny_model_config(ds, dropout=0.3), tc)
        assert calls == {"train": 3 * 7, "eval": 3 * 3, "steps": 3 * 3}


class TestCrossValidate:
    def test_report_shape(self):
        ds = triangle_dataset(4, seed=0)
        cfg = tiny_model_config(ds)
        tc = TrainConfig(epochs=1, folds=2, repeats=2, seed=0)
        report = cross_validate(ds, cfg, tc)
        assert len(report.results) == 4  # 2 folds x 2 repeats
        assert 0.0 <= report.mean_accuracy <= 1.0
        assert {r["split"] for r in report.curve} == {"train", "test"}

    def test_standard_error_formula(self):
        assert mean_and_std_error([0.8, 0.8]) == (pytest.approx(0.8), pytest.approx(0.0))
        mean, se = mean_and_std_error([0.7, 0.9])
        assert mean == pytest.approx(0.8)
        assert se == pytest.approx(0.1)

    def test_mean_curve_matches_filter_scan(self):
        # The former mean: rescan every fold curve for each (epoch, split).
        def filter_scan(results):
            epochs = max(row["epoch"] for row in results[0].curve)
            out = []
            for epoch in range(1, epochs + 1):
                for split in ("train", "test"):
                    rows = [row for r in results for row in r.curve
                            if row["epoch"] == epoch and row["split"] == split]
                    out.append({
                        "epoch": epoch,
                        "split": split,
                        "loss": float(np.mean([row["loss"] for row in rows])),
                        "accuracy": float(np.mean([row["accuracy"] for row in rows])),
                    })
            return out

        def bits(curve):
            return [(r["epoch"], r["split"], r["loss"].hex(), r["accuracy"].hex()) for r in curve]

        rng = np.random.default_rng(3)
        for count in (2, 3, 7):
            results = []
            for fold in range(count):
                curve = [
                    {"epoch": e, "split": s, "loss": float(rng.exponential()),
                     "accuracy": float(rng.integers(0, 9)) / float(rng.integers(1, 9))}
                    for e in range(1, 6) for s in ("train", "test")
                ]
                results.append(FoldResult(0, fold, 0.0, 0.0, curve=curve))
            assert bits(_mean_curve(results)) == bits(filter_scan(results))
        ds = triangle_dataset(6, seed=0)
        report = cross_validate(ds, tiny_model_config(ds), TrainConfig(epochs=3, folds=3,
                                                                         repeats=2, seed=4))
        assert bits(report.curve) == bits(filter_scan(report.results))

    def test_deterministic_report(self):
        ds = triangle_dataset(6, seed=0)
        cfg = tiny_model_config(ds, dropout=0.2)
        tc = TrainConfig(epochs=2, folds=2, repeats=1, seed=9)
        a = cross_validate(ds, cfg, tc)
        b = cross_validate(ds, cfg, tc)
        assert a.to_dict() == b.to_dict()



class TestSweeps:
    """`sshpool sweep` on a small slice of the desk corpus: one row per (value, method)."""

    def sweep(self, kind, values, *extra):
        from sshpool.cli import main

        return main(
            ["sweep", kind, "--data", DESK_CORPUS, "--name", "chordal", "--limit-graphs", "12",
             f"--{kind}s", values, "--hidden-dim", "8", *extra,
             "--epochs", "1", "--folds", "2", "--repeats", "1", "--seed", "0"]
        )

    def rows(self, capsys):
        lines = capsys.readouterr().out.splitlines()
        return [line.split(",") for line in lines[1:]]

    def test_depth_single_row_per_method(self, capsys):
        assert self.sweep("depth", "1", "--layer-base", "4", "--ratio", "0.5") == 0
        rows = self.rows(capsys)
        assert [(r[0], r[1]) for r in rows] == [
            ("1", method) for method in ("sshpool", "sshpool_non", "diffpool")
        ]
        for r in rows:
            assert 0.0 <= float(r[2]) <= 1.0

    def test_ratio_rows_and_range(self, capsys):
        assert self.sweep("ratio", "0.5,0.25", "--layer-base", "8", "--depth", "2") == 0
        rows = self.rows(capsys)
        assert [float(r[0]) for r in rows] == [0.5] * 3 + [0.25] * 3
        for r in rows:
            assert 0.0 <= float(r[2]) <= 1.0

    def test_increasing_schedule_rejected_before_training(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr("sshpool.cli.cross_validate", lambda *args: calls.append(args))
        assert self.sweep("ratio", "0.5,2.0", "--layer-base", "8", "--depth", "2") == 2
        assert "strictly decrease, got (8, 16)" in capsys.readouterr().err
        assert calls == []
