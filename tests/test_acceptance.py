"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The desk-scale
comparison uses the bundled synthetic corpus unless TU_DATA_DIR points at
a directory containing PTC/ or PROTEINS/ in standard TU layout.
"""

import os
import time
import warnings

import numpy as np
import pytest

from sshpool.cli import main
from sshpool.data import Edges, load_tu_dataset, stratified_subset
from sshpool.diagnostics import certify_locality
from sshpool.gradcheck import check_model_gradients, fixture_graph_and_params
from sshpool.model import ModelConfig, ModelParams
from sshpool.pooling import coarsen, extract_subgraphs, harden, local_conv, soft_assign
from sshpool.synth import triangle_dataset, write_tu_corpus
from sshpool.tensor import Tensor
from sshpool.trainer import TrainConfig, cross_validate, train_graphs, _config_for

TU_DATA_DIR = os.environ.get(
    "TU_DATA_DIR", os.path.join(os.path.dirname(__file__), "..", "data")
)

# Reference numbers from the full-scale comparison table, printed for
# context only; no numeric tolerance is claimed against them at desk scale.
REFERENCE_FULL_SCALE = {
    "PROTEINS": {"sshpool": "79.38±0.28", "sshpool_non": "77.18±0.43", "diffpool": "74.86±0.35"},
    "PTC": {"sshpool": "67.74±1.43", "sshpool_non": "63.91±1.35", "diffpool": "63.39±1.03"},
}


def emit(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def random_graph_arrays(rng, n_max=10):
    n = int(rng.integers(2, n_max + 1))
    upper = np.triu((rng.random((n, n)) < 0.45).astype(float), k=1)
    adj = upper + upper.T
    feats = rng.normal(size=(n, 4))
    return adj, feats


def random_hard(rng, n, c):
    hard = np.zeros((n, c))
    hard[np.arange(n), rng.integers(0, c, size=n)] = 1.0
    return hard


class TestGradientCorrectness:
    def test_full_model_finite_differences(self):
        start = time.time()
        graph, params = fixture_graph_and_params()
        report = check_model_gradients(graph, params, step=1e-5, tolerance=1e-4)
        elapsed = time.time() - start
        ok = report.passed and elapsed < 10.0
        emit(
            "gradient correctness",
            ok,
            f"max rel err {report.max_error:.2e} over {len(report.worst)} "
            f"parameter tensors, {elapsed:.1f}s",
        )
        assert report.passed, report.worst
        assert elapsed < 10.0


class TestCoarseningOracle:
    def test_exact_match_on_200_random_graphs(self):
        start = time.time()
        rng = np.random.default_rng(2024)
        for _ in range(200):
            adj, feats = random_graph_arrays(rng)
            n = adj.shape[0]
            c = int(rng.integers(1, 5))
            hard = random_hard(rng, n, c)
            weights = [Tensor(rng.normal(size=(4, 4))) for _ in range(c)]

            a_e, x_t, h_t = Edges.from_dense(adj), Tensor(feats), Tensor(hard)
            labels, a_mask = extract_subgraphs(a_e, h_t)
            x_next, z = local_conv(x_t, a_mask, labels, weights, c)
            a_next = coarsen(labels, a_e, c)

            # brute force: per-cluster embedding sums, ascending node order
            for j in range(c):
                acc = np.zeros(4)
                for r in range(n):
                    if labels[r] == j:
                        acc = acc + z[r]
                assert np.array_equal(x_next.data[j], acc)

            # brute force: pairwise inter-cluster edge counting
            cluster_of = hard.argmax(axis=1)
            want = np.zeros((c, c))
            for u in range(n):
                for v in range(n):
                    if adj[u, v] == 1.0 and cluster_of[u] != cluster_of[v]:
                        want[cluster_of[u], cluster_of[v]] += 1.0
            assert np.array_equal(a_next.data, want)
        elapsed = time.time() - start
        emit("coarsening oracle equivalence", elapsed < 5.0,
             f"200 graphs exact in 64-bit, {elapsed:.1f}s")
        assert elapsed < 5.0


class TestLocalityCertification:
    def test_hundred_trials_over_fifty_graphs(self):
        start = time.time()
        rng = np.random.default_rng(77)
        passes = trials = 0
        for _ in range(50):
            d_in = int(rng.integers(3, 8))
            n = int(rng.integers(3, 13))
            upper = np.triu((rng.random((n, n)) < 0.4).astype(float), k=1)
            from sshpool.data import Graph

            graph = Graph(
                adjacency=Tensor(upper + upper.T),
                features=Tensor(rng.normal(size=(n, d_in))),
                label=0,
            )
            clusters = int(rng.integers(1, 7))
            config = ModelConfig(
                feature_dim_in=d_in,
                num_classes=2,
                hidden_dim=int(rng.integers(4, 10)),
                layer_sizes=(clusters,),
                assignment_ratio=0.5,
                depth=1,
                dropout=0.0,
            )
            params = ModelParams(config, seed=int(rng.integers(2**31)))
            report = certify_locality(graph, params, trials=2, rng=rng)
            passes += report.passes
            trials += report.trials
        elapsed = time.time() - start
        ok = passes == trials == 100 and elapsed < 10.0
        emit("locality certification", ok, f"{passes}/{trials} trials, {elapsed:.1f}s")
        assert passes == trials == 100
        assert elapsed < 10.0


class TestPartitionAndIdentityInvariants:
    def test_thousand_assignments(self):
        rng = np.random.default_rng(5150)
        checked = 0
        while checked < 1000:
            adj, feats = random_graph_arrays(rng)
            n = adj.shape[0]
            c = int(rng.integers(1, 6))
            hard = random_hard(rng, n, c)
            a_e, x_t, h_t = Edges.from_dense(adj), Tensor(feats), Tensor(hard)

            assert np.all(hard.sum(axis=1) == 1.0)
            assert np.all((hard == 0.0) | (hard == 1.0))

            labels, a_mask = extract_subgraphs(a_e, h_t)
            members = [[u for u in range(n) if labels[u] == j] for j in range(c)]
            ids = [i for m in members for i in m]
            assert sorted(ids) == list(range(n))

            _, z = local_conv(x_t, a_mask, labels, [Tensor(np.eye(4))] * c, c)
            for m in members:
                a_m = adj[np.ix_(m, m)] + np.eye(len(m))
                assert np.allclose(z[m], a_m @ feats[m], rtol=1e-12, atol=1e-12)
            a_next = coarsen(labels, a_e, c)
            intra = sum(int(adj[np.ix_(m, m)].sum()) // 2 for m in members)
            assert a_next.data.sum() + 2 * intra == adj.sum()
            checked += 1

        # identity coarsening: c = n, permutation assignment, identity weights
        for _ in range(50):
            adj, feats = random_graph_arrays(rng)
            n = adj.shape[0]
            perm = rng.permutation(n)
            hard = np.zeros((n, n))
            hard[np.arange(n), perm] = 1.0
            a_e, x_t, h_t = Edges.from_dense(adj), Tensor(feats), Tensor(hard)
            labels, a_mask = extract_subgraphs(a_e, h_t)
            x_next, _ = local_conv(x_t, a_mask, labels, [Tensor(np.eye(4))] * n, n)
            a_next = coarsen(labels, a_e, n)
            assert np.array_equal(x_next.data, hard.T @ feats)
            assert np.array_equal(a_next.data, hard.T @ adj @ hard)
        emit("partition/identity invariants", True,
             "1000 assignments + 50 identity-coarsening cases")


class TestOverfitSmoke:
    def test_triangle_density_set(self):
        start = time.time()
        ds = triangle_dataset(20, seed=0)
        config = ModelConfig(feature_dim_in=ds.feature_dim, num_classes=2)
        train_config = TrainConfig(seed=0, epochs=200, folds=2, repeats=1)
        result = train_graphs(ds, list(range(20)), [], config, train_config)
        elapsed = time.time() - start
        train_rows = [r for r in result.curve if r["split"] == "train"]
        best = max(r["accuracy"] for r in train_rows)
        first_hit = next(
            (r["epoch"] for r in train_rows if r["accuracy"] >= 0.95), None
        )
        ok = best >= 0.95 and elapsed < 120.0
        emit("overfit smoke", ok,
             f"train acc {best:.2f} (>=0.95 at epoch {first_hit}), {elapsed:.0f}s")
        assert best >= 0.95
        assert elapsed < 120.0
        # loss trend, not per-step monotonicity
        assert train_rows[-1]["loss"] < train_rows[0]["loss"]


def desk_dataset():
    """PTC or PROTEINS when provided, else the bundled synthetic corpus."""
    for name in ("PTC", "PROTEINS"):
        directory = os.path.join(TU_DATA_DIR, name)
        if os.path.isfile(os.path.join(directory, f"{name}_A.txt")):
            return load_tu_dataset(directory, name), name
    directory = os.path.join(os.path.dirname(__file__), "_desk_corpus")
    if not os.path.isfile(os.path.join(directory, "chordal_A.txt")):
        write_tu_corpus(directory, "chordal", num_graphs=344, seed=101)
    return load_tu_dataset(directory, "chordal"), "synthetic-chordal"


@pytest.fixture(scope="module")
def desk_results():
    start = time.time()
    full, corpus_name = desk_dataset()
    subset = stratified_subset(full, 200, seed=0)
    base = ModelConfig(
        feature_dim_in=subset.feature_dim,
        num_classes=subset.num_classes,
        hidden_dim=32,
        layer_sizes=(32, 8, 2),
        assignment_ratio=0.25,
        depth=3,
        dropout=0.5,
    )
    means = {}
    for method in ("sshpool", "sshpool_non", "global_sum", "diffpool"):
        config = _config_for(base, method, base.layer_sizes)
        accs = []
        for seed in (1, 2, 3):
            tc = TrainConfig(epochs=30, folds=3, repeats=1, seed=seed, batch_size=8)
            accs.append(cross_validate(subset, config, tc).mean_accuracy)
        means[method] = float(np.mean(accs))
    return {
        "corpus": corpus_name,
        "graphs": len(subset.graphs),
        "means": means,
        "elapsed": time.time() - start,
    }


class TestDeskScaleDirection:
    def test_sshpool_beats_both_baselines(self, desk_results):
        m = desk_results["means"]
        elapsed = desk_results["elapsed"]
        ref = REFERENCE_FULL_SCALE["PROTEINS"]
        ok = (
            m["sshpool"] >= m["global_sum"]
            and m["sshpool"] >= m["diffpool"]
            and elapsed < 900.0
        )
        emit(
            "desk-scale directional check",
            ok,
            f"corpus={desk_results['corpus']} ({desk_results['graphs']} graphs, "
            f"3-fold, 30 epochs, 3 seeds): sshpool {m['sshpool']:.3f} vs "
            f"global_sum {m['global_sum']:.3f} vs diffpool {m['diffpool']:.3f}, "
            f"{elapsed:.0f}s; full-scale PROTEINS reference (context only): "
            f"sshpool {ref['sshpool']}, diffpool {ref['diffpool']}",
        )
        assert m["sshpool"] >= m["global_sum"]
        assert m["sshpool"] >= m["diffpool"]
        assert elapsed < 900.0


class TestAblationDirection:
    def test_attention_helps(self, desk_results):
        m = desk_results["means"]
        ref = REFERENCE_FULL_SCALE["PROTEINS"]
        ok = m["sshpool"] >= m["sshpool_non"]
        emit(
            "ablation direction (expected, non-binding)",
            ok,
            f"attention {m['sshpool']:.3f} vs no-attention {m['sshpool_non']:.3f}; "
            f"full-scale PROTEINS reference (context only): {ref['sshpool']} vs "
            f"{ref['sshpool_non']}",
        )
        if not ok:
            warnings.warn(
                "attention ablation direction not observed at desk scale "
                f"({m['sshpool']:.3f} < {m['sshpool_non']:.3f}); stochastic at "
                "this scale, reported as a warning per the acceptance contract"
            )


class TestDeterminism:
    def test_byte_identical_train_artifacts(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_tu_corpus(str(corpus), "det", num_graphs=12, seed=9)
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            args = [
                "train",
                "--data", str(corpus),
                "--name", "det",
                "--out", str(out),
                "--hidden-dim", "8",
                "--layer-sizes", "4,2",
                "--ratio", "0.5",
                "--depth", "2",
                "--epochs", "2",
                "--folds", "2",
                "--repeats", "1",
                "--seed", "13",
            ]
            assert main(args) == 0
            outs.append(out)
        same = all(
            (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            for name in ("report.json", "curves.csv")
        )
        emit("determinism", same,
             "two identical-flag runs, byte-identical report.json and curves.csv")
        assert same
