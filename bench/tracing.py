"""Per-layer tracing of sshpool, installed from outside the program.

``Tracer`` replaces the module attributes and class methods the program
looks up at call time with wrappers that record one span per call (name,
start, end, parent) and keep every span in memory until the run ends. A
span's self time is its duration minus the time its child spans cover.
Nothing under ``src/`` changes; ``uninstall`` puts every original back.

``instrument`` decides what is wrapped, and ``layer_metrics`` turns the
spans into the per-layer numbers of ``BENCHMARK.json``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from functools import wraps

import numpy as np

PACKAGE = "sshpool"

# Forward stages whose tape-record deltas are reported per taped graph.
STAGES = {
    "model.global_conv": "gconv",
    "pooling.sshpool_stack": "pool",
    "model.attention_fuse": "attn",
    "model.classify": "mlp",
}
POOL_STEPS = ("soft_assign", "harden", "extract_subgraphs", "local_conv", "coarsen")
POOL_DEPTH = 3

# The tracer's own work after a call runs inside a span of this name, so it
# is not charged to the program's self times.
BOOKKEEPING = "tracer.bookkeeping"


def replace(owner, attr: str, make) -> list[tuple[object, str, object]]:
    """Swap ``owner.attr`` for ``make(original)`` everywhere the program can
    look it up, and return what ``restore`` needs to undo it.

    For a class that is the class attribute; for a module function it is
    every ``sshpool`` module that imported the same object by name.
    """
    original = getattr(owner, attr)
    wrapper = make(original)
    if isinstance(owner, type):
        holders = [(owner, attr)]
    else:
        holders = [
            (mod, key)
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
            for key, value in list(vars(mod).items())
            if value is original
        ]
    for holder, key in holders:
        setattr(holder, key, wrapper)
    return [(holder, key, original) for holder, key in holders]


def restore(undo: list[tuple[object, str, object]]) -> None:
    """Put back, newest first, what ``replace`` swapped out."""
    while undo:
        holder, key, original = undo.pop()
        setattr(holder, key, original)


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.tape = None
        self.tensors = 0
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Record a span per call; ``before(span, args)`` runs inside it and
        ``after(span, args, result)`` runs afterwards as bookkeeping."""
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def make(fn):
            @wraps(fn)
            def wrapper(*args, **kwargs):
                parent = stack[-1] if stack else -1
                s = Span(name, parent)
                stack.append(len(spans))
                spans.append(s)
                s.start = clock()
                try:
                    if before is not None:
                        before(s, args)
                    result = fn(*args, **kwargs)
                finally:
                    s.end = clock()
                    stack.pop()
                if after is not None:
                    b = Span(BOOKKEEPING, parent)
                    b.start = clock()
                    after(s, args, result)
                    b.end = clock()
                    spans.append(b)
                return result

            return wrapper

        self._undo.extend(replace(owner, attr, make))

    def tap(self, owner, attr: str, hook) -> None:
        """Call ``hook(args)`` before every call, without recording a span."""

        def make(fn):
            @wraps(fn)
            def wrapper(*args, **kwargs):
                hook(args)
                return fn(*args, **kwargs)

            return wrapper

        self._undo.extend(replace(owner, attr, make))

    def uninstall(self) -> None:
        restore(self._undo)

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of data, model, pooling, tensor, trainer and
    diagnostics that a training, evaluation or diagnosis run calls."""
    from sshpool import data, diagnostics, model, pooling, tensor, trainer

    def graph_count(position):
        def before(s, args):
            s.info = len(args[position])

        return before

    def set_tape(args):
        tracer.tape = args[0]

    def clear_tape(args):
        tracer.tape = None

    def count_tensor(args):
        tracer.tensors += 1

    tracer.tap(tensor.Tape, "__enter__", set_tape)
    tracer.tap(tensor.Tape, "__exit__", clear_tape)
    tracer.tap(tensor.Tensor, "__init__", count_tensor)

    def tape_start(s, args):
        s.info = len(tracer.tape) if tracer.tape is not None else None

    def tape_delta(s, args, result):
        if s.info is not None:
            s.info = len(tracer.tape) - s.info

    def tape_length(s, args):
        s.info = len(args[0])

    def tensors_start(s, args):
        s.info = tracer.tensors

    def forward_done(s, args, result):
        pooled = [
            (int(np.count_nonzero(e.assignment.hard.data.any(axis=0))),
             e.assignment.hard.cols, e.edges_in, e.edges_dropped)
            for e in result[1].layers
        ]
        s.info = (tracer.tensors - s.info, pooled)

    for fn in ("load_tu_dataset", "stratified_subset", "make_folds"):
        tracer.span(data, fn, f"data.{fn}")
    tracer.span(model.ModelParams, "__init__", "model.ModelParams_init")
    tracer.span(model, "forward", "model.forward", tensors_start, forward_done)
    for owner, fn in ((model, "global_conv"), (model, "attention_fuse"),
                      (model, "classify"), (pooling, "sshpool_stack")):
        name = f"{owner.__name__.split('.')[-1]}.{fn}"
        tracer.span(owner, fn, name, tape_start, tape_delta)
    tracer.span(pooling, "sshpool_layer", "pooling.sshpool_layer")
    for fn in POOL_STEPS:
        tracer.span(pooling, fn, f"pooling.{fn}")
    tracer.span(tensor.Tape, "backward", "tensor.backward", tape_length)
    tracer.span(trainer, "train_graphs", "trainer.train_graphs")
    tracer.span(trainer, "adam_step", "trainer.adam_step")
    tracer.span(trainer, "evaluate", "trainer.evaluate", graph_count(1))
    tracer.span(diagnostics, "smoothing_profile", "diagnostics.smoothing_profile")
    tracer.span(diagnostics, "compare_smoothing", "diagnostics.compare_smoothing", graph_count(0))


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers from the spans; times are per call unless noted."""
    spans = tracer.spans
    selfs = tracer.self_times()
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    for s, t in zip(spans, selfs):
        total[s.name] += s.end - s.start
        own[s.name] += t
        calls[s.name] += 1

    # Depth of each sshpool_layer call = its rank among its siblings.
    layer_self = [0.0] * POOL_DEPTH
    layer_calls = [0] * POOL_DEPTH
    rank: dict[int, int] = defaultdict(int)
    for s, t in zip(spans, selfs):
        if s.name == "pooling.sshpool_layer":
            depth = rank[s.parent]
            rank[s.parent] += 1
            if depth < POOL_DEPTH:
                layer_self[depth] += t
                layer_calls[depth] += 1

    # Integer infos are counts to sum by span name: tape records per stage or
    # per backward, graphs per evaluate or compare_smoothing call.
    counted = defaultdict(int)
    occupied = [[0, 0, 0, 0] for _ in range(POOL_DEPTH)]
    forward_tensors = 0
    for s in spans:
        if isinstance(s.info, int):
            counted[s.name] += s.info
        elif s.name == "model.forward":
            forward_tensors += s.info[0]
            for depth, counts in enumerate(s.info[1][:POOL_DEPTH]):
                for k, v in enumerate(counts):
                    occupied[depth][k] += v

    backward = calls["tensor.backward"]
    stacks = calls["pooling.sshpool_stack"]
    steps = calls["trainer.adam_step"]
    ms = 1000.0
    out: dict[str, float] = {}
    for fn in ("load_tu_dataset", "stratified_subset", "make_folds"):
        out[f"data.{fn}_s"] = _per(total[f"data.{fn}"], calls[f"data.{fn}"])
    out["model.ModelParams_init_s"] = _per(
        total["model.ModelParams_init"], calls["model.ModelParams_init"]
    )
    for fn in ("global_conv", "attention_fuse", "classify"):
        out[f"model.{fn}.fwd_ms"] = ms * _per(total[f"model.{fn}"], calls[f"model.{fn}"])
    out["model.forward.self_ms"] = ms * _per(own["model.forward"], calls["model.forward"])
    for depth in range(POOL_DEPTH):
        out[f"pooling.layer{depth}.fwd_ms"] = ms * _per(layer_self[depth], layer_calls[depth])
    for fn in POOL_STEPS:
        out[f"pooling.{fn}.ms"] = ms * _per(total[f"pooling.{fn}"], stacks)
    for depth, (occ, eff, e_in, e_drop) in enumerate(occupied):
        out[f"pooling.layer{depth}.occupied_share"] = _per(occ, eff)
        out[f"pooling.layer{depth}.edges_dropped_share"] = _per(e_drop, e_in)
    out["tensor.backward.ms"] = ms * _per(total["tensor.backward"], backward)
    out["tensor.records_per_graph"] = _per(counted["tensor.backward"], backward)
    for name, stage in STAGES.items():
        out[f"tensor.records.{stage}"] = _per(counted[name], backward)
    out["tensor.tensors_per_graph"] = _per(forward_tensors, calls["model.forward"])
    out["trainer.adam_step.ms"] = ms * _per(total["trainer.adam_step"], steps)
    out["trainer.train_graphs.self_ms"] = ms * _per(own["trainer.train_graphs"], steps)
    out["trainer.evaluate.ms_per_graph"] = ms * _per(
        total["trainer.evaluate"], counted["trainer.evaluate"]
    )
    out["diagnostics.smoothing_profile.ms"] = ms * _per(
        total["diagnostics.smoothing_profile"], calls["diagnostics.smoothing_profile"]
    )
    out["diagnostics.compare_smoothing.self_ms"] = ms * _per(
        own["diagnostics.compare_smoothing"], counted["diagnostics.compare_smoothing"]
    )
    return out
