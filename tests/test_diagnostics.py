import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sshpool.diagnostics import (
    certify_locality,
    compare_smoothing,
    smoothing_profile,
)
from sshpool.errors import ContractError
from sshpool.gradcheck import fixture_graph_and_params
from sshpool.model import ModelConfig, ModelParams
from sshpool.pooling import sshpool_layer

from conftest import make_graph, random_graph
from slice_reference import slice_layer


def probe_config(d_in=4, clusters=(3,), hidden=6, variant="sshpool"):
    return ModelConfig(
        feature_dim_in=d_in,
        num_classes=2,
        hidden_dim=hidden,
        layer_sizes=clusters,
        assignment_ratio=0.5,
        depth=len(clusters),
        dropout=0.0,
        variant=variant,
    )


class TestSmoothingProfile:
    def test_identical_rows_give_one(self):
        mat = np.tile([1.0, 2.0, 3.0], (4, 1))
        prof = smoothing_profile([mat])
        assert prof[0]["mean_cosine"] == pytest.approx(1.0)

    def test_orthogonal_rows_give_zero(self):
        prof = smoothing_profile([np.eye(3)])
        assert prof[0]["mean_cosine"] == pytest.approx(0.0, abs=1e-12)

    def test_known_pair(self):
        mat = np.array([[1.0, 0.0], [1.0, 1.0]])
        prof = smoothing_profile([mat])
        assert prof[0]["mean_cosine"] == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_undefined_below_two_rows(self):
        prof = smoothing_profile([np.ones((1, 3))])
        assert prof[0]["mean_cosine"] is None
        assert prof[0]["nodes"] == 1

    def test_zero_norm_rows_skipped_and_counted(self):
        mat = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        prof = smoothing_profile([mat])
        entry = prof[0]
        assert entry["skipped_pairs"] == 2
        assert entry["mean_cosine"] == pytest.approx(1.0)

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
        for n in (150, 220, 300):  # full-width layer-0 sizes of the large corpus
            mat = rng.normal(size=(n, 8))
            mat[rng.random(n) < 0.3] = 0.0
            mats.append(mat)
        mats += [
            np.zeros((3, 2)),
            np.array([[0.0, 0.0], [1.0, 2.0]]),
            np.array([[0.0, 0.0], [0.0, 0.0], [3.0, -1.0], [0.0, 0.0]]),
            np.tile(rng.normal(size=8), (200, 1)),
        ]
        for mat, entry in zip(mats, smoothing_profile(mats)):
            mean, skipped = loop_profile(mat)
            assert entry["skipped_pairs"] == skipped
            assert entry["nodes"] == len(mat)
            if mean is None:
                assert entry["mean_cosine"] is None
            else:
                assert abs(entry["mean_cosine"] - mean) <= 1e-12

    def test_builds_no_pair_sized_array(self, rng):
        mat = rng.normal(size=(2000, 8))
        tracemalloc.start()
        try:
            smoothing_profile([mat])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # An n x n float matrix alone would be 32 MB.
        assert peak < 2**20

    def test_values_in_range(self, rng):
        mats = [rng.normal(size=(int(rng.integers(2, 9)), 5)) for _ in range(6)]
        for entry in smoothing_profile(mats):
            assert entry["mean_cosine"] is None or -1.0 <= entry["mean_cosine"] <= 1.0 + 1e-12


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
        # leak: the slice reference convolved over the unmasked adjacency, so
        # edges that cross a cluster boundary carry information into foreign
        # embeddings; the labels are the real layer's
        def leaky_layer(adjacency, x, params, keep_self_loops=False, frozen_labels=None):
            _, trace = sshpool_layer(adjacency, x, params, keep_self_loops, frozen_labels)
            ref = slice_layer(
                adjacency.dense(), x, trace.labels, trace.assignment.logits.shape[1],
                params.weights, keep_self_loops, masked=False,
            )
            z = np.empty((x.shape[0], params.weights.shape[2]))
            for members, z_j in zip(ref.clusters, ref.local_embeddings):
                z[members] = z_j
            leak = SimpleNamespace(labels=trace.labels, local_embedding=z)
            return ref.coarse_features, leak

        # seed 0 assigns {0, 5} vs {1, 2, 3, 4}: both clusters non-empty and
        # the path edges 0-1 and 4-5 cross the boundary, so the leak shows
        g = make_graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], 6, d=4)
        params = ModelParams(probe_config(clusters=(2,)), seed=0)
        report = certify_locality(g, params, trials=50, rng=rng, layer_impl=leaky_layer)
        assert not report.passed
        assert report.violations
        first = report.violations[0]
        assert {"node", "cluster", "kind"} <= set(first)

    def test_violations_match_per_cluster_loop_in_order(self, rng):
        # The certifier's list, entry for entry, is what a loop over the
        # clusters finds: cluster by cluster, the local embedding before the
        # coarse row, node u's own cluster skipped.
        def per_cluster_violations(u, labels, base_z, new_z, base_xn, new_xn):
            bad = []
            for k in range(base_xn.shape[0]):
                if k == labels[u]:
                    continue
                rows = labels == k
                if not np.array_equal(base_z[rows], new_z[rows]):
                    bad.append({"node": u, "cluster": k, "kind": "local_embedding"})
                if not np.array_equal(base_xn[k], new_xn[k]):
                    bad.append({"node": u, "cluster": k, "kind": "coarse_row"})
            return bad

        # Five clusters of two nodes and an empty sixth. The sum of the input
        # leaks into the Z rows of clusters 0, 1, 2, 4 and into coarse rows
        # 0, 1, 2, 3, 5: whatever node is bumped, at least two foreign
        # clusters leak in both kinds, one in Z only and two in coarse rows only.
        fixed = np.arange(10) // 2
        z_leak = np.isin(fixed, [0, 1, 2, 4])[:, None]
        coarse_leak = np.isin(np.arange(6), [0, 1, 2, 3, 5])[:, None]
        calls = []

        def leaky_layer(adjacency, x, params, keep_self_loops=False, frozen_labels=None):
            labels = fixed if frozen_labels is None else frozen_labels
            xn, trace = sshpool_layer(adjacency, x, params, keep_self_loops, labels)
            z = trace.local_embedding + x.sum() * z_leak
            xn = xn + x.sum() * coarse_leak
            calls.append((x, z, xn))
            return xn, SimpleNamespace(labels=labels, local_embedding=z)

        g = make_graph([(k, k + 1) for k in range(9)], 10, d=4)
        params = ModelParams(probe_config(clusters=(6,)), seed=0)
        report = certify_locality(g, params, trials=30, rng=rng, layer_impl=leaky_layer)

        (base_x, base_z, base_xn), *trials = calls
        want = []
        for x, z, xn in trials:
            (u,) = np.flatnonzero((x != base_x).any(axis=1)).tolist()
            bad = per_cluster_violations(u, fixed, base_z, z, base_xn, xn)
            both = {v["cluster"] for v in bad if v["kind"] == "local_embedding"} & {
                v["cluster"] for v in bad if v["kind"] == "coarse_row"}
            assert len(both) >= 2
            want += bad
        assert len(trials) == 30 and report.passes == 0
        assert report.violations == want

    def test_trials_contract(self, rng):
        g = random_graph(rng, d=4)
        params = ModelParams(probe_config(), seed=0)
        with pytest.raises(ContractError):
            certify_locality(g, params, trials=0, rng=rng)

    @pytest.mark.parametrize("variant", ["global_sum", "global_mean", "diffpool"])
    def test_variant_without_hard_clusters_rejected(self, rng, variant):
        g, params = fixture_graph_and_params(variant=variant)
        with pytest.raises(ContractError, match=f"got variant '{variant}'"):
            certify_locality(g, params, trials=3, rng=rng)

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

    @pytest.mark.parametrize("variant", ["diffpool", "global_sum"])
    def test_other_variants_rejected(self, rng, variant):
        graphs = [random_graph(rng, d=4)]
        params = ModelParams(probe_config(clusters=(4, 2), variant=variant), seed=1)
        with pytest.raises(ContractError, match=f"got variant '{variant}'"):
            compare_smoothing(graphs, params, seed=0)

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
