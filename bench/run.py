"""sshpool benchmark: training and evaluation throughput on small and large graphs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload desk-sshpool-train --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``desk-sshpool-train``: train ``sshpool`` with attention on a 200-graph
  stratified subset of the chordal-ring corpus (8-20 nodes), hidden 32,
  layers 32/8/2, batch 8, dropout 0.5, fold 0 of a 3-fold plan, evaluating
  the held-out fold every epoch. Training runs of ``EPOCHS`` epochs repeat
  until ``--seconds`` have passed; every run must be bit-identical.
* ``desk-global_sum-train``: the same inputs and loop with ``global_sum``.
* ``large-sshpool-eval``: eval-mode ``forward`` over a 104-graph subset of
  150-300-node graphs with node labels, params initialised from the seed,
  in full passes until ``--seconds`` have passed; then ``compare_smoothing``
  once on each of ``DIAGNOSE_GRAPHS`` graphs.

The shared host's speed changes by up to half and it stalls now and then, so
``Recorder`` cuts the program's time into segments (steps, eval forwards,
diagnoses, the gaps between them), takes each segment's median over the
repetitions of the same work, and scales it to one host speed: a yardstick
of fixed plain-numpy work (``speed.py``) is timed every 0.1 s between the
segments, and each segment is scaled by the yardstick's nominal time over
its local time. The unscaled medians are printed too, under ``.wall``.

Every run checks its outputs: ``model.forward`` logits must match a
plain-numpy reference (``reference.py``), losses and parameters must be
finite, and repeated work must repeat exactly. Any failure prints
``"correct": false`` and exits 1.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the workload
twice in one process, once with only the end-to-end spans and once with the
per-layer spans of ``tracing.py``, and prints the per-layer metrics plus the
tracing overhead (traced minus untraced wall figures). The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads, so every run does the same
# single-threaded work on a 2-core host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import filecmp
import json
import math
import shutil
import statistics
import sys
import time
from array import array
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import numpy as np  # noqa: E402

import corpora  # noqa: E402
import measure  # noqa: E402
import reference  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

EPOCHS = 6  # epochs per training run: 102 optimiser steps, enough for a p90
SETUP_REPEATS = 15  # set-ups per run; setup_s is their median
SETUP_PROBES = 3  # yardstick timings before and after each set-up
REFERENCE_SAMPLE = 8  # graphs whose logits are checked against the reference
DIAGNOSE_GRAPHS = 4  # graphs diagnosed once after the forward loop of large-sshpool-eval
ACCEPTANCE_SEED = 101  # the seed that writes tests/_desk_corpus


@dataclass(frozen=True)
class Workload:
    corpus: str  # "chordal" or "large"
    method: str  # a key of trainer.METHOD_VARIANTS
    train: bool
    corpus_graphs: int
    subset: int
    yardstick_graphs: int  # graphs of the SEED corpus one yardstick timing runs
    yardstick_ms: float  # its nominal time: the reference host's fast speed


# Each yardstick runs the workload's own model variant on its own kind of
# graph and takes 2-5 ms. The nominal times are about the yardsticks' lower
# decile on a 2-vCPU Intel Xeon VM (Python 3.11, numpy with OpenBLAS, one
# BLAS thread).
WORKLOADS = {
    "desk-sshpool-train": Workload("chordal", "sshpool", True, 344, 200, 4, 2.0),
    "desk-global_sum-train": Workload("chordal", "global_sum", True, 344, 200, 48, 1.9),
    "large-sshpool-eval": Workload("large", "sshpool", False, 130, 104, 2, 3.9),
}

# Printed after the end-to-end metrics of BENCHMARK.json but kept off the
# result line: the ``.wall`` figures (unscaled) and ``yardstick_ms`` (the
# median yardstick timing) are there for comparison; the train and diagnose
# figures exist on some workloads only, the losses change with the seed's
# corpus more than any bound could allow
# (they repeat exactly for a given seed), and failed_share is 0 when all is well.
PRINTED_ONLY = {
    "setup_s.wall": "s",
    "ops_per_s.wall": "1/s",
    "eval_graph_ms.p50.wall": "ms",
    "yardstick_ms": "ms",
    "train_graphs_per_s": "1/s",
    "train_step_ms.p50": "ms",
    "train_step_ms.p90": "ms",
    "train_loss_final": "nats",
    "eval_loss_final": "nats",
    "diagnose_graphs_per_s": "1/s",
    "failed_share": "share",
}


class Outcome:
    """Attempted and failed operations, with a reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, attempted: int, failed: int, reason: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.reasons.append(reason)


def _finite_params(params) -> bool:
    return all(np.isfinite(t.data).all() for t in params.named().values())


class Bench:
    """One workload at one seed: its inputs, set-up, measured loop and checks."""

    def __init__(self, name: str, seed: int, workdir: str):
        from sshpool import data, diagnostics, model, trainer

        self.data, self.diagnostics, self.model, self.trainer = data, diagnostics, model, trainer
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.outcome = Outcome()
        self.model_options = dict(
            hidden_dim=32,
            layer_sizes=(32, 8, 2),
            assignment_ratio=0.25,
            depth=3,
            dropout=0.5,
            **trainer.METHOD_VARIANTS[self.spec.method],
        )
        self.train_config = trainer.TrainConfig(
            epochs=EPOCHS, batch_size=8, folds=3, repeats=1, seed=seed
        )

    def write_corpus(self) -> None:
        """Write the seed's corpus; at the acceptance seed it must match the
        bundled acceptance corpus byte for byte."""
        spec = self.spec
        if spec.corpus == "large":
            corpora.write_large_corpus(self.workdir, "large", spec.corpus_graphs, self.seed)
            return
        corpora.write_chordal_corpus(self.workdir, "chordal", spec.corpus_graphs, self.seed)
        bundled = os.path.join(ROOT, "tests", "_desk_corpus")
        if self.seed == ACCEPTANCE_SEED and os.path.isdir(bundled):
            files = [f"chordal_{s}.txt" for s in ("A", "graph_indicator", "graph_labels")]
            _, mismatch, errors = filecmp.cmpfiles(self.workdir, bundled, files, shallow=False)
            bad = mismatch + errors
            self.outcome.record(1, int(bool(bad)), f"corpus differs from tests/_desk_corpus: {bad}")

    def yardstick(self) -> speed.Yardstick:
        """The workload's yardstick, on a corpus written with ``speed.SEED``."""
        spec = self.spec
        directory = os.path.join(self.workdir, "yardstick")
        write = {"large": corpora.write_large_corpus, "chordal": corpora.write_chordal_corpus}
        # At least two graphs, so that both classes occur.
        write[spec.corpus](directory, spec.corpus, max(2, spec.yardstick_graphs), speed.SEED)
        fixed = self.data.load_tu_dataset(directory, spec.corpus)
        config = self.model.ModelConfig(
            feature_dim_in=fixed.feature_dim, num_classes=fixed.num_classes, **self.model_options
        )
        graphs = fixed.graphs[: spec.yardstick_graphs]
        inputs = [(g.adjacency.data, g.features.data) for g in graphs]
        params = self.model.ModelParams(config, seed=speed.SEED)
        return speed.Yardstick(inputs, params, spec.yardstick_ms)

    def setup(self) -> float:
        """Ingest, subset, folds and parameter init; returns their wall time."""
        start = time.perf_counter()
        full = self.data.load_tu_dataset(self.workdir, self.spec.corpus)
        self.dataset = self.data.stratified_subset(full, self.spec.subset, seed=self.seed)
        plan = self.data.make_folds(self.dataset, 3, seed=self.seed)
        self.config = self.model.ModelConfig(
            feature_dim_in=self.dataset.feature_dim,
            num_classes=self.dataset.num_classes,
            **self.model_options,
        )
        self.params = self.model.ModelParams(self.config, seed=self.seed)
        elapsed = time.perf_counter() - start
        self.train_idx = plan.train_indices(0)
        # Nothing trains on the eval workload, so it evaluates the whole
        # subset: more graphs make its figures depend less on the seed.
        everything = list(range(len(self.dataset.graphs)))
        self.eval_idx = plan.test_indices(0) if self.spec.train else everything
        return elapsed

    def check_reference(self, params, when: str) -> None:
        """``model.forward`` logits against the plain-numpy reference."""
        for i in self.eval_idx[:REFERENCE_SAMPLE]:
            g = self.dataset.graphs[i]
            try:
                logits, _ = self.model.forward(g, params, training=False)
                ref = reference.reference_logits(g.adjacency.data, g.features.data, params)
                ok = reference.logits_agree(logits.data, ref)
                detail = "" if ok else f"logits {logits.data.tolist()} vs reference {ref.tolist()}"
            except Exception as exc:  # a crash fails the check; the run goes on
                ok, detail = False, repr(exc)
            self.outcome.record(1, int(not ok), f"reference mismatch ({when}), graph {i}: {detail}")

    def measure(self, seconds: float, repeat) -> dict:
        """Run the workload's loop for ``seconds``, calling ``repeat(label)``
        before each repetition of the same work; returns the final losses and
        parameters. Call ``verify`` on the result afterwards."""
        return self._train(seconds, repeat) if self.spec.train else self._evaluate(seconds, repeat)

    def _train(self, seconds: float, repeat) -> dict:
        ops_per_run = EPOCHS * (len(self.train_idx) + len(self.eval_idx))
        first, result, runs = None, None, 0
        start = time.perf_counter()
        while runs == 0 or time.perf_counter() - start < seconds:
            runs += 1
            repeat("train_graphs")
            try:
                result = self.trainer.train_graphs(
                    self.dataset, self.train_idx, self.eval_idx, self.config, self.train_config
                )
                losses = [row["loss"] for row in result.curve]
                first = first or result.curve
                ok = (all(map(math.isfinite, losses)) and _finite_params(result.params)
                      and result.curve == first)
                reason = f"training run {runs}: non-finite or non-repeating losses or params"
            except Exception as exc:  # counted as failed ops; the loop goes on
                ok, reason = False, f"training run {runs} raised {exc!r}"
            self.outcome.record(ops_per_run, 0 if ok else ops_per_run, reason)
        return {
            "params": result.params if result is not None else None,
            "train_loss_final": first[-2]["loss"] if first else None,
            "eval_loss_final": first[-1]["loss"] if first else None,
        }

    def _evaluate(self, seconds: float, repeat) -> dict:
        graphs = [self.dataset.graphs[i] for i in self.eval_idx]
        first_loss, passes = None, 0
        start = time.perf_counter()
        while passes == 0 or time.perf_counter() - start < seconds:
            passes += 1
            repeat("eval_pass")
            total, bad, reason = 0.0, 0, ""
            for g in graphs:
                try:
                    logits, _ = self.model.forward(g, self.params, training=False)
                    value = self.model.loss(logits, g.label).item()
                except Exception as exc:
                    value, reason = float("nan"), f"forward raised {exc!r}"
                if not math.isfinite(value):
                    bad, reason = bad + 1, reason or "non-finite eval loss"
                total += value
            mean_loss = total / len(graphs)
            first_loss = mean_loss if first_loss is None else first_loss
            if not bad and mean_loss != first_loss:
                bad, reason = len(graphs), f"eval pass {passes} mean loss changed"
            self.outcome.record(len(graphs), bad, reason)

        # One diagnosis pass of fixed size: each graph takes a large share of
        # a second, so a time-bounded loop would end on a coarse boundary.
        for k, g in enumerate(graphs[:DIAGNOSE_GRAPHS]):
            repeat(f"diagnose.{k}")
            try:
                profile = self.diagnostics.compare_smoothing([g], self.params, seed=self.seed)
                cosines = [row["mean_cosine"] for rows in profile.values() for row in rows]
                ok = all(v is None or math.isfinite(v) for v in cosines)
                reason = "non-finite smoothing profile"
            except Exception as exc:
                ok, reason = False, f"compare_smoothing raised {exc!r}"
            self.outcome.record(1, int(not ok), reason)
        return {
            "params": self.params,
            "train_loss_final": None,
            "eval_loss_final": first_loss,
        }

    def verify(self, loop: dict) -> None:
        """Checks run after a measured loop, outside its timing and tracing."""
        if loop["params"] is not None:
            self.check_reference(loop["params"], "after the loop")
        if not self.spec.train:
            # The trainer's own evaluation of the same fold must agree exactly.
            loss, _ = self.trainer.evaluate(self.dataset, self.eval_idx, self.params)
            ok = loss == loop["eval_loss_final"]
            self.outcome.record(1, int(not ok), f"trainer.evaluate loss {loss!r} != "
                                                f"{loop['eval_loss_final']!r}")


STEP, EVAL, DIAGNOSE, GAP = range(4)  # kinds of timed segment


class Recorder:
    """End-to-end timings, taken by wrappers around the calls that bound them.

    A measured loop repeats the same work: a whole training run, an eval pass
    over the graphs, a diagnosis of one graph. ``repeat(label)`` opens one
    such repetition. Inside it the wrappers cut the program's time into
    consecutive segments: an optimiser step (from the previous boundary to
    the end of ``adam_step``), an eval-mode forward, a ``compare_smoothing``
    call, and the gap between them (losses, ``zero_grad``, shuffling).
    Repetitions of one label run the same segments in the same order, since
    the program is deterministic; a label whose repetitions differ is
    reported in ``mismatch``.

    With a yardstick, the recorder times it between segments every
    ``speed.EVERY`` seconds and scales each segment to the yardstick's
    nominal speed. A segment's time is then its median over the repetitions,
    so that a stall of the host (the hypervisor taking the CPU away for
    10-30 ms) in a few of them does not count.
    """

    def __init__(self, yardstick: speed.Yardstick | None = None):
        self.yardstick = yardstick
        self.layout: dict[str, tuple[list[int], list[int]]] = {}  # label -> kinds, graphs
        self.timings: dict[str, list[tuple[array, array]]] = {}  # label -> midpoints, seconds
        self.mismatch = ""
        self._label = None
        self._boundary = self._last_timing = time.perf_counter()
        self._pending = 0  # training forwards since the last step
        self._training = self._evaluating = self._diagnosing = 0
        self._undo: list = []

    def repeat(self, label: str) -> None:
        """Close the current repetition and open one of ``label``."""
        self.close()
        self._label = label
        self._kinds, self._ops = [], []
        self._mids, self._seconds = array("d"), array("d")
        self._pending = 0
        self._boundary = time.perf_counter()

    def add(self, kind: int, ops: int, middle: float, seconds: float) -> None:
        """Record a segment of the open repetition."""
        self._kinds.append(kind)
        self._ops.append(ops)
        self._mids.append(middle)
        self._seconds.append(seconds)

    def close(self) -> None:
        label = self._label
        if label is None:
            return
        self._label = None
        layout = self.layout.setdefault(label, (self._kinds, self._ops))
        if layout != (self._kinds, self._ops):
            self.mismatch = f"repetitions of {label!r} ran different segments"
            return
        self.timings.setdefault(label, []).append((self._mids, self._seconds))

    def _segment(self, kind: int, ops: int) -> None:
        if self._label is None:
            return
        now = time.perf_counter()
        self.add(kind, ops, 0.5 * (self._boundary + now), now - self._boundary)
        self._boundary = now
        if self.yardstick is not None and now - self._last_timing >= speed.EVERY:
            self._boundary = self._last_timing = self.yardstick.time()

    def install(self) -> None:
        from sshpool import diagnostics, model, trainer

        def train_graphs(fn):
            def wrapper(*args, **kwargs):
                self._training += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._training -= 1

            return wrapper

        def adam_step(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self._segment(STEP, self._pending)
                self._pending = 0
                return result

            return wrapper

        def evaluate(fn):
            def wrapper(*args, **kwargs):
                self._evaluating += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._evaluating -= 1
                    self._segment(GAP, 0)

            return wrapper

        def forward(fn):
            def wrapper(*args, **kwargs):
                if self._diagnosing:
                    return fn(*args, **kwargs)
                if self._training and not self._evaluating:
                    self._pending += 1
                    return fn(*args, **kwargs)
                self._segment(GAP, 0)
                result = fn(*args, **kwargs)
                self._segment(EVAL, 1)
                return result

            return wrapper

        def compare_smoothing(fn):
            def wrapper(*args, **kwargs):
                self._segment(GAP, 0)
                self._diagnosing += 1
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._diagnosing -= 1
                self._segment(DIAGNOSE, len(args[0]))
                return result

            return wrapper

        for owner, attr, make in (
            (trainer, "train_graphs", train_graphs),
            (trainer, "adam_step", adam_step),
            (trainer, "evaluate", evaluate),
            (model, "forward", forward),
            (diagnostics, "compare_smoothing", compare_smoothing),
        ):
            self._undo.extend(tracing.replace(owner, attr, make))

    def uninstall(self) -> None:
        tracing.restore(self._undo)
        self.close()

    def segments(self, scaled: bool) -> tuple[np.ndarray, ...]:
        """Kind, graphs, median seconds and repetition count of every segment
        of one repetition of each label; scaled by the yardstick when
        ``scaled``."""
        kinds, ops, seconds, repeats = [], [], [], []
        for label, timings in self.timings.items():
            mids = np.array([m for m, _ in timings]).reshape(len(timings), -1)
            times = np.array([t for _, t in timings]).reshape(mids.shape)
            if scaled and self.yardstick is not None and times.size:
                times = times * self.yardstick.scale(mids.ravel()).reshape(times.shape)
            kinds.extend(self.layout[label][0])
            ops.extend(self.layout[label][1])
            seconds.append(np.median(times, axis=0))
            repeats.extend([len(timings)] * times.shape[1])
        return (np.array(kinds, dtype=int), np.array(ops, dtype=int),
                np.concatenate(seconds or [[]]), np.array(repeats, dtype=int))

    def values(self, loop: dict) -> dict[str, tuple[float | None, int]]:
        """End-to-end values with their sample counts (segments per metric):
        scaled by the yardstick when there is one, and as measured under
        ``.wall``."""
        kinds, ops, scaled, repeats = self.segments(scaled=True)
        wall = self.segments(scaled=False)[2]

        def rate(times, *of: int):
            # Graphs over time of the whole loop, each segment counted as
            # often as it ran, at its median time.
            mask = np.isin(kinds, of)
            total = float((repeats * times)[mask].sum())
            count = int((repeats * ops)[mask].sum())
            return (count / total if count and total > 0 else None), int(mask.sum())

        def ms(times, kind: int) -> list[float]:
            return (1000.0 * times[kinds == kind]).tolist()

        eval_ms, step_ms, eval_wall = ms(scaled, EVAL), ms(scaled, STEP), ms(wall, EVAL)
        every = (STEP, EVAL, DIAGNOSE, GAP)
        return {
            "ops_per_s": rate(scaled, *every),
            "ops_per_s.wall": rate(wall, *every),
            "eval_graphs_per_s": rate(scaled, EVAL),
            "eval_graph_ms.p50": (measure.percentile(eval_ms, 50), len(eval_ms)),
            "eval_graph_ms.p50.wall": (measure.percentile(eval_wall, 50), len(eval_wall)),
            "eval_graph_ms.p90": (measure.percentile(eval_ms, 90), len(eval_ms)),
            "eval_loss_final": (loop["eval_loss_final"], 1),
            "train_graphs_per_s": rate(scaled, STEP),
            "train_step_ms.p50": (measure.percentile(step_ms, 50), len(step_ms)),
            "train_step_ms.p90": (measure.percentile(step_ms, 90), len(step_ms)),
            "train_loss_final": (loop["train_loss_final"], 1),
            "diagnose_graphs_per_s": rate(scaled, DIAGNOSE),
        }


def _loop(bench: Bench, seconds: float, yardstick=None, tracer=None) -> dict:
    """One measured loop, scaled when a yardstick is given and traced when a
    tracer is given; returns end-to-end values."""
    if tracer is not None:
        tracing.instrument(tracer)
    recorder = Recorder(yardstick)
    recorder.install()
    try:
        loop = bench.measure(seconds, recorder.repeat)
    finally:
        recorder.uninstall()
        if tracer is not None:
            tracer.uninstall()
    bench.verify(loop)
    bench.outcome.record(1, int(bool(recorder.mismatch)), recorder.mismatch)
    return recorder.values(loop)


def _setups(bench: Bench, yardstick: speed.Yardstick) -> tuple[list[float], list[float]]:
    """``SETUP_REPEATS`` set-ups, each between ``SETUP_PROBES`` yardstick
    timings on either side; returns their scaled and their wall times."""
    wall, middle = [], []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_PROBES):
            yardstick.time()
        start = time.perf_counter()
        wall.append(bench.setup())
        middle.append(start + 0.5 * wall[-1])
        for _ in range(SETUP_PROBES):
            yardstick.time()
    scaled = np.asarray(wall) * yardstick.scale(np.asarray(middle))
    return scaled.tolist(), wall


def run(name: str, seed: int, seconds: float, trace: bool):
    """One benchmark run. Returns the outcome, the end-to-end values (with
    sample counts) and, with ``trace``, the per-layer metrics."""
    workdir = os.path.join(ROOT, ".bench_work", f"{name}-{seed}-{os.getpid()}")
    bench = Bench(name, seed, workdir)
    try:
        bench.write_corpus()
        yardstick = bench.yardstick()
        layer_tracer = tracing.Tracer()
        if trace:
            tracing.instrument(layer_tracer)
        try:
            setups, setups_wall = _setups(bench, yardstick)
        finally:
            layer_tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bench.check_reference(bench.params, "initial")

    values = _loop(bench, seconds, yardstick)
    values["setup_s"] = (statistics.median(setups), len(setups))
    values["setup_s.wall"] = (statistics.median(setups_wall), len(setups_wall))
    values["yardstick_ms"] = (yardstick.median_ms(), len(yardstick.seconds))
    values["peak_rss_mb"] = (measure.peak_rss_mb(), 1)
    per_layer = None
    if trace:
        # The traced loop runs without the yardstick, whose timings would land
        # inside the program's spans; the overhead compares wall figures.
        traced = _loop(bench, seconds, tracer=layer_tracer)
        per_layer = tracing.layer_metrics(layer_tracer)
        for key in ("ops_per_s", "eval_graph_ms.p50"):
            per_layer[f"trace.overhead.{key}"] = traced[key][0] - values[key + ".wall"][0]
    failed = bench.outcome.failed
    attempted = bench.outcome.attempted
    values["failed_share"] = (failed / attempted if attempted else None, attempted)
    return bench.outcome, values, per_layer


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "sshpool", "__init__.py")):
        print(f"error: the sshpool sources are not at {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)

    outcome, values, per_layer = run(args.workload, args.seed, args.seconds, bool(args.trace))

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    section = "end_to_end" if per_layer is None else "per_layer"
    names = {m["name"]: m["unit"] for m in spec[section]}

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("environment " + json.dumps(measure.environment(ROOT), sort_keys=True))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for key, unit in {**units, **PRINTED_ONLY}.items():
        value, n = values[key]
        print(f"  {key:<40} {_fmt(value):>12} {unit:<6} n={n}")
    report = {key: value for key, (value, _) in values.items()}
    if per_layer is not None:
        for key, unit in names.items():
            print(f"  {key:<40} {_fmt(per_layer.get(key)):>12} {unit}")
        report = per_layer
    for key in names:
        if report.get(key) is None:
            outcome.record(0, 1, f"metric {key} was not measured (too few samples?)")
    for reason in outcome.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {key: {"value": report.get(key), "unit": unit} for key, unit in names.items()},
    }
    print(json.dumps(result))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
