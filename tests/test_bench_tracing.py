"""The benchmark's tracer still finds every attribute it wraps in ``src``,
and puts every one back: a rename that breaks ``bench/run.py --trace 1``
fails here too."""

import sys

import numpy as np

from sshpool import data, diagnostics, model, pooling, tensor, trainer  # noqa: F401, all it wraps
from sshpool.model import ModelConfig, ModelParams, forward

from conftest import load_bench_module, random_graph


def program_attributes(tracing):
    """(holder, name) -> object for every attribute the tracer could swap:
    those of each ``sshpool`` module and of the classes it wraps methods of."""
    holders = [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == tracing.PACKAGE or name.startswith(tracing.PACKAGE + "."))
    ]
    holders += [tensor.Tape, tensor.Tensor, model.ModelParams]
    return {(holder, key): value for holder in holders for key, value in list(vars(holder).items())}


def test_instrument_wraps_and_uninstall_restores(rng):
    tracing = load_bench_module("tracing")
    before = program_attributes(tracing)
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        wrapped = list(tracer._undo)
        for holder, key, original in wrapped:
            assert getattr(holder, key) is not original, key
        params = ModelParams(ModelConfig(feature_dim_in=4, num_classes=2, hidden_dim=8,
                                         layer_sizes=(4, 2, 1)))
        logits, _ = forward(random_graph(rng, n_lo=6, n_hi=6), params)
        assert np.isfinite(logits.data).all()
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {f"pooling.{step}" for step in tracing.POOL_STEPS} - {"pooling.soft_assign"} <= names
    assert wrapped
    for holder, key, original in wrapped:
        assert getattr(holder, key) is original, key
    after = program_attributes(tracing)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
