import math

import numpy as np
import pytest

from sshpool.diagnostics import (
    certify_locality,
    compare_smoothing,
    smoothing_profile,
)
from sshpool.errors import ContractError
from sshpool.model import ModelConfig, ModelParams
from sshpool.pooling import local_conv, sshpool_layer

from conftest import make_graph, random_graph


def probe_config(d_in=4, clusters=(3,), hidden=6):
    return ModelConfig(
        feature_dim_in=d_in,
        num_classes=2,
        hidden_dim=hidden,
        layer_sizes=clusters,
        assignment_ratio=0.5,
        depth=len(clusters),
        dropout=0.0,
    )


class TestSmoothingProfile:
    def test_identical_rows_give_one(self):
        mat = np.tile([1.0, 2.0, 3.0], (4, 1))
        prof = smoothing_profile([mat])
        assert prof.layers[0].mean_cosine == pytest.approx(1.0)

    def test_orthogonal_rows_give_zero(self):
        prof = smoothing_profile([np.eye(3)])
        assert prof.layers[0].mean_cosine == pytest.approx(0.0, abs=1e-12)

    def test_known_pair(self):
        mat = np.array([[1.0, 0.0], [1.0, 1.0]])
        prof = smoothing_profile([mat])
        assert prof.layers[0].mean_cosine == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_undefined_below_two_rows(self):
        prof = smoothing_profile([np.ones((1, 3))])
        assert prof.layers[0].mean_cosine is None
        assert prof.layers[0].nodes == 1

    def test_zero_norm_rows_skipped_and_counted(self):
        mat = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        prof = smoothing_profile([mat])
        entry = prof.layers[0]
        assert entry.skipped_pairs == 2
        assert entry.mean_cosine == pytest.approx(1.0)

    def test_matches_pair_loop(self, rng):
        def loop_profile(mat):
            norms = np.linalg.norm(mat, axis=1)
            total, pairs, skipped = 0.0, 0, 0
            for i in range(len(mat)):
                for j in range(i + 1, len(mat)):
                    if norms[i] == 0.0 or norms[j] == 0.0:
                        skipped += 1
                        continue
                    total += float(mat[i] @ mat[j] / (norms[i] * norms[j]))
                    pairs += 1
            return (total / pairs if pairs else None), skipped

        mats = []
        for _ in range(30):
            mat = rng.normal(size=(int(rng.integers(2, 40)), int(rng.integers(1, 6))))
            mat[rng.random(len(mat)) < 0.2] = 0.0
            mats.append(mat)
        mats += [np.zeros((3, 2)), np.array([[0.0, 0.0], [1.0, 2.0]])]
        for mat, entry in zip(mats, smoothing_profile(mats).layers):
            mean, skipped = loop_profile(mat)
            assert entry.skipped_pairs == skipped
            assert entry.nodes == len(mat)
            if mean is None:
                assert entry.mean_cosine is None
            else:
                assert abs(entry.mean_cosine - mean) <= 1e-12

    def test_values_in_range(self, rng):
        mats = [rng.normal(size=(int(rng.integers(2, 9)), 5)) for _ in range(6)]
        for entry in smoothing_profile(mats).layers:
            assert entry.mean_cosine is None or -1.0 <= entry.mean_cosine <= 1.0 + 1e-12


class TestCertifyLocality:
    def test_single_cluster_vacuous_pass(self, rng):
        g = random_graph(rng, d=4)
        params = ModelParams(probe_config(clusters=(1,)), seed=0)
        report = certify_locality(g, params, trials=10, rng=rng)
        assert report.passed and report.passes == 10

    def test_two_cluster_fixture_hundred_trials(self, rng):
        g = make_graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)], 6, d=4)
        params = ModelParams(probe_config(clusters=(2,)), seed=3)
        report = certify_locality(g, params, trials=100, rng=rng)
        assert report.passes == 100
        assert report.violations == []

    def test_corrupted_coarsen_detected(self, rng):
        # leak: convolve over the unmasked adjacency, so edges that cross a
        # cluster boundary carry information into foreign embeddings
        def leaky_layer(adjacency, x, params, clusters, keep_self_loops=False, frozen_hard=None):
            (a_next, _), trace = sshpool_layer(
                adjacency, x, params, clusters, keep_self_loops, frozen_hard
            )
            x_next, trace.local_embedding = local_conv(
                x, adjacency, trace.labels, params.local, trace.assignment.hard.cols
            )
            return (a_next, x_next), trace

        # seed 0 assigns {0, 5} vs {1, 2, 3, 4}: both clusters non-empty and
        # the path edges 0-1 and 4-5 cross the boundary, so the leak shows
        g = make_graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], 6, d=4)
        params = ModelParams(probe_config(clusters=(2,)), seed=0)
        report = certify_locality(g, params, trials=50, rng=rng, layer_impl=leaky_layer)
        assert not report.passed
        assert report.violations
        first = report.violations[0]
        assert {"node", "cluster", "kind"} <= set(first)

    def test_trials_contract(self, rng):
        g = random_graph(rng, d=4)
        params = ModelParams(probe_config(), seed=0)
        with pytest.raises(ContractError):
            certify_locality(g, params, trials=0, rng=rng)

    def test_many_random_graphs_and_configs(self, rng):
        for _ in range(20):
            g = random_graph(rng, n_lo=3, n_hi=10, d=4)
            clusters = int(rng.integers(1, 5))
            params = ModelParams(probe_config(clusters=(clusters,)), seed=int(rng.integers(1000)))
            report = certify_locality(g, params, trials=5, rng=rng)
            assert report.passed, report.violations


class TestCompareSmoothing:
    def test_identical_model_profiles_match_themselves(self, rng):
        graphs = [random_graph(rng, d=4) for _ in range(3)]
        params = ModelParams(probe_config(clusters=(4, 2)), seed=1)
        a = compare_smoothing(graphs, params, seed=0)
        b = compare_smoothing(graphs, params, seed=0)
        assert a == b

    def test_initial_convolution_runs_once_per_graph(self, rng, monkeypatch):
        from sshpool import diagnostics, model

        calls = []
        conv = model.global_conv

        def counting(graph, x, weight):
            calls.append(weight)
            return conv(graph, x, weight)

        monkeypatch.setattr(model, "global_conv", counting)
        monkeypatch.setattr(diagnostics, "global_conv", counting)
        graphs = [random_graph(rng, d=4) for _ in range(3)]
        params = ModelParams(probe_config(clusters=(4, 2)), seed=1)
        compare_smoothing(graphs, params, seed=0)
        # one forward convolution plus one per reference layer, per graph
        assert len(calls) == 3 * (1 + 2)
        assert sum(w is params.gconv[0] for w in calls) == 3

    def test_single_node_graphs_give_undefined_entries(self, rng):
        graphs = [make_graph([], 1, d=4, seed=i) for i in range(2)]
        params = ModelParams(probe_config(clusters=(2,)), seed=2)
        out = compare_smoothing(graphs, params, seed=0)
        assert out["pooled"][0]["mean_cosine"] is None

    def test_random_set_profiles_in_range(self, rng):
        graphs = [random_graph(rng, n_lo=4, n_hi=9, d=4) for _ in range(10)]
        params = ModelParams(probe_config(clusters=(4, 2)), seed=3)
        out = compare_smoothing(graphs, params, seed=0)
        assert set(out) == {"pooled", "stacked_conv"}
        for rows in out.values():
            assert rows
            for row in rows:
                if row["mean_cosine"] is not None:
                    assert -1.0 - 1e-9 <= row["mean_cosine"] <= 1.0 + 1e-9
