"""Tests of the benchmark itself: run with ``python -m pytest bench``."""

import filecmp
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import corpora
import measure
import reference
import run
import speed
import tracing
from sshpool import data, model, pooling, trainer

ROOT = run.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


class TestPercentileRule:
    def test_median_needs_ten_samples_beyond_it(self):
        assert measure.percentile(list(range(20)), 50) == 9
        assert measure.percentile(list(range(19)), 50) is None

    def test_p90_needs_a_hundred_samples(self):
        assert measure.percentile(list(range(100)), 90) == 89
        assert measure.percentile(list(range(99)), 90) is None

    def test_order_of_samples_does_not_matter(self):
        samples = list(np.random.default_rng(0).permutation(200))
        assert measure.percentile(samples, 90) == 179

    def test_end_to_end_reports_sample_counts(self):
        def recorder_with(n):
            r = run.Recorder()
            r.repeat("pass")
            for k in range(n):
                r.add(run.EVAL, 1, float(k), (k + 1) / 1000.0)
            r.close()
            return r

        loop = {"train_loss_final": None, "eval_loss_final": 0.5}
        short = recorder_with(99).values(loop)
        assert short["eval_graph_ms.p90"] == (None, 99)
        assert short["eval_graph_ms.p50"] == (pytest.approx(50.0), 99)
        assert short["train_step_ms.p50"] == (None, 0)
        full = recorder_with(100).values(loop)
        assert full["eval_graph_ms.p90"] == (pytest.approx(90.0), 100)
        assert full["ops_per_s"] == (pytest.approx(100 / 5.05), 100)


def _timed(yardstick, timings):
    """Yardstick timings of the given seconds, one per second from t=0."""
    for k, seconds in enumerate(timings):
        yardstick.at.append(float(k))
        yardstick.seconds.append(seconds)
    return yardstick


class TestRepetitions:
    LOOP = {"train_loss_final": None, "eval_loss_final": 0.5}

    def test_a_stall_in_one_repetition_does_not_count(self):
        r = run.Recorder()
        for stalled in (False, True, False):
            r.repeat("pass")
            for k in range(20):
                r.add(run.EVAL, 1, float(k), 0.030 if stalled and k == 3 else 0.002)
            r.close()
        values = r.values(self.LOOP)
        assert values["ops_per_s"] == (pytest.approx(500.0), 20)
        assert values["eval_graph_ms.p90"] == (None, 20)

    def test_repetitions_that_differ_are_reported(self):
        r = run.Recorder()
        for ops in (1, 2):
            r.repeat("pass")
            r.add(run.EVAL, ops, 0.0, 0.001)
        r.close()
        assert "pass" in r.mismatch


class TestYardstick:
    def test_scale_follows_a_change_of_host_speed(self):
        y = _timed(speed.Yardstick([], None, nominal_ms=1.0), [0.001] * 10 + [0.002] * 10)
        scale = y.scale(np.array([2.5, 16.5]))
        assert scale == pytest.approx([1.0, 0.5])

    def test_local_speed_is_a_median_of_nearest_timings(self):
        y = _timed(speed.Yardstick([], None, nominal_ms=2.0), [0.002] * 4 + [0.1] + [0.002] * 4)
        assert y.scale(np.array([4.0, 4.5])) == pytest.approx([1.0, 1.0])

    def test_recorder_reports_scaled_and_wall_times(self):
        y = _timed(speed.Yardstick([], None, nominal_ms=1.0), [0.001] * 10 + [0.002] * 10)
        r = run.Recorder(y)
        # The same pass in a fast spell and in a slow one.
        for start, seconds in ((1.0, 0.005), (12.0, 0.010)):
            r.repeat("pass")
            for k in range(20):
                r.add(run.EVAL, 1, start + 0.25 * k, seconds)
        r.close()
        values = r.values(TestRepetitions.LOOP)
        assert values["ops_per_s"] == (pytest.approx(200.0), 20)
        assert values["ops_per_s.wall"] == (pytest.approx(20 / 0.15), 20)
        assert values["eval_graph_ms.p50"] == (pytest.approx(5.0), 20)

    def test_yardstick_does_not_depend_on_the_run_seed(self, tmp_path):
        a = run.Bench("desk-sshpool-train", 1, str(tmp_path / "a")).yardstick()
        b = run.Bench("desk-sshpool-train", 2, str(tmp_path / "b")).yardstick()
        assert len(a.inputs) == run.WORKLOADS["desk-sshpool-train"].yardstick_graphs
        for (adj_a, x_a), (adj_b, x_b) in zip(a.inputs, b.inputs):
            assert np.array_equal(adj_a, adj_b) and np.array_equal(x_a, x_b)
        for name, t in a.params.named().items():
            assert np.array_equal(t.data, b.params.named()[name].data)
        a.time()
        assert len(a.seconds) == 1 and a.seconds[0] > 0


class TestCorpora:
    def test_seed_101_reproduces_the_acceptance_corpus(self, tmp_path):
        corpora.write_chordal_corpus(str(tmp_path), "chordal", 344, 101)
        bundled = os.path.join(ROOT, "tests", "_desk_corpus")
        files = [f"chordal_{s}.txt" for s in ("A", "graph_indicator", "graph_labels")]
        match, mismatch, errors = filecmp.cmpfiles(tmp_path, bundled, files, shallow=False)
        assert match == files and not mismatch and not errors

    def test_other_seeds_give_fresh_corpora(self, tmp_path):
        corpora.write_chordal_corpus(str(tmp_path / "a"), "chordal", 40, 1)
        corpora.write_chordal_corpus(str(tmp_path / "b"), "chordal", 40, 2)
        corpora.write_chordal_corpus(str(tmp_path / "c"), "chordal", 40, 1)
        a, b, c = ((tmp_path / d / "chordal_A.txt").read_bytes() for d in "abc")
        assert a == c and a != b

    def test_large_corpus_has_node_labels_and_large_graphs(self, tmp_path):
        corpora.write_large_corpus(str(tmp_path), "large", 6, 3)
        ds = data.load_tu_dataset(str(tmp_path), "large")
        assert ds.feature_mode == "node-label-one-hot"
        assert ds.feature_dim == corpora.LABEL_ALPHABET
        assert ds.num_classes == 2
        assert all(150 <= g.n <= 300 for g in ds.graphs)


def _params(tmp_path, method, seed=0):
    corpora.write_chordal_corpus(str(tmp_path), "chordal", 12, seed)
    ds = data.load_tu_dataset(str(tmp_path), "chordal")
    config = model.ModelConfig(
        feature_dim_in=ds.feature_dim, num_classes=ds.num_classes, hidden_dim=16,
        layer_sizes=(8, 2), assignment_ratio=0.25, depth=2,
        **trainer.METHOD_VARIANTS[method],
    )
    return ds, model.ModelParams(config, seed=seed)


class TestReferenceForward:
    @pytest.mark.parametrize("method", ["sshpool", "sshpool_non", "global_sum"])
    def test_agrees_with_model_forward(self, tmp_path, method):
        ds, params = _params(tmp_path, method)
        for g in ds.graphs:
            logits, _ = model.forward(g, params)
            ref = reference.reference_logits(g.adjacency.data, g.features.data, params)
            assert reference.logits_agree(logits.data, ref)

    def test_catches_a_perturbed_logit(self, tmp_path):
        ds, params = _params(tmp_path, "sshpool")
        g = ds.graphs[0]
        logits, _ = model.forward(g, params)
        ref = reference.reference_logits(g.adjacency.data, g.features.data, params)
        bumped = logits.data.copy()
        bumped[0, 1] += 1e-6
        assert not reference.logits_agree(bumped, ref)
        assert not reference.logits_agree(np.full_like(ref, np.nan), ref)

    def test_command_fails_when_the_check_fails(self, monkeypatch, capsys):
        true_logits = reference.reference_logits

        def perturbed(*args):
            out = true_logits(*args)
            out[0, 0] += 1e-6
            return out

        monkeypatch.setattr(reference, "reference_logits", perturbed)
        code = run.main(["--workload", "desk-global_sum-train", "--seed", "3",
                         "--seconds", "0.2"])
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 1
        assert result["correct"] is False
        assert 0 < result["failed"] <= result["attempted"]


class TestTracer:
    def test_self_time_subtracts_children(self):
        t = tracing.Tracer()
        for name, parent, start, end in (("a", -1, 0.0, 10.0), ("b", 0, 1.0, 4.0),
                                         ("c", 0, 5.0, 6.0), ("d", 1, 2.0, 3.0)):
            s = tracing.Span(name, parent)
            s.start, s.end = start, end
            t.spans.append(s)
        assert t.self_times() == [6.0, 2.0, 1.0, 1.0]

    def test_wrappers_record_nested_spans_and_uninstall(self, tmp_path):
        ds, params = _params(tmp_path, "sshpool")
        originals = (model.forward, trainer.forward, pooling.sshpool_layer, model.global_conv)
        t = tracing.Tracer()
        tracing.instrument(t)
        try:
            assert model.forward is not originals[0] and trainer.forward is model.forward
            model.forward(ds.graphs[0], params)
        finally:
            t.uninstall()
        assert (model.forward, trainer.forward, pooling.sshpool_layer, model.global_conv) == originals
        names = [s.name for s in t.spans]
        root = names.index("model.forward")
        layers = [s for s in t.spans if s.name == "pooling.sshpool_layer"]
        assert len(layers) == 2
        assert all(t.spans[s.parent].name == "pooling.sshpool_stack" for s in layers)
        assert t.spans[root].parent == -1

    def test_per_layer_metrics_match_benchmark_json(self, tmp_path):
        ds, params = _params(tmp_path, "sshpool")
        t = tracing.Tracer()
        tracing.instrument(t)
        try:
            model.forward(ds.graphs[0], params)
        finally:
            t.uninstall()
        metrics = tracing.layer_metrics(t)
        overhead = {f"trace.overhead.{k}" for k in ("ops_per_s", "eval_graph_ms.p50")}
        assert set(metrics) | overhead == {m["name"] for m in SPEC["per_layer"]}
        assert metrics["pooling.layer0.fwd_ms"] > 0
        assert 0 < metrics["pooling.layer0.occupied_share"] <= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "large-sshpool-eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
