"""Command-line entry point.

Commands: train, eval, pool-trace, gradcheck, sweep depth|ratio, stats,
diagnose smoothing|locality. Every option can also come from a flat
``key = value`` config file (``#`` comments allowed); precedence is
command-line flag, then config file, then built-in default. All randomness
funnels through the single ``seed`` option.

Exit codes: 0 success, 1 check failure, 2 usage or config error,
3 I/O or ingest error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .data import Dataset, Graph, atomic_open, graph_stats, load_tu_dataset, stratified_subset
from .diagnostics import certify_locality, compare_smoothing
from .errors import ContractError, IngestError
from .gradcheck import check_model_gradients, fixture_graph_and_params
from .model import ModelConfig, ModelParams, forward, layer_sizes_from_ratio
from .tensor import Tensor
from .trainer import (
    TrainConfig,
    cross_validate,
    evaluate,
    sweep_depth,
    sweep_ratio,
    train_graphs,
)

_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _to_bool(text: str) -> bool:
    word = text.strip().lower()
    if word not in _BOOL_WORDS:
        raise ContractError(f"expected a boolean, got {text!r}")
    return _BOOL_WORDS[word]


def _to_int_list(text: str) -> list[int]:
    return [int(tok) for tok in str(text).split(",") if tok.strip()]


def _to_float_list(text: str) -> list[float]:
    return [float(tok) for tok in str(text).split(",") if tok.strip()]


# One row per option: config-file key (the argparse dest) -> (type
# converter, default). A default of None means "unset".
_OPTIONS = {
    "data": (str, None),
    "name": (str, None),
    "feature_mode": (str, None),
    "out": (str, None),
    "ckpt": (str, None),
    "hidden_dim": (int, 128),
    "layer_sizes": (_to_int_list, None),
    "layer_base": (int, 128),
    "ratio": (float, 0.25),
    "depth": (int, 3),
    "dropout": (float, 0.5),
    "variant": (str, "sshpool"),
    "attention": (_to_bool, True),
    "gconv_layers": (int, 1),
    "keep_coarse_self_loops": (_to_bool, False),
    "lr": (float, 1e-3),
    "epochs": (int, 100),
    "batch_size": (int, 32),
    "folds": (int, 10),
    "repeats": (int, 10),
    "seed": (int, 0),
    "limit_graphs": (int, None),
    "graph_index": (int, 0),
    "trials": (int, 100),
    "graphs": (int, 50),
    "tolerance": (float, 1e-4),
    "step": (float, 1e-5),
    "depths": (_to_int_list, [1, 2, 3]),
    "ratios": (_to_float_list, [0.5, 0.25, 0.125]),
}


def read_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` file; unknown keys are an error."""
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IngestError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _OPTIONS:
            raise ContractError(f"{path}:{lineno}: unknown option {key!r}")
        try:
            values[key] = _OPTIONS[key][0](value.strip())
        except (ValueError, TypeError):
            raise ContractError(
                f"{path}:{lineno}: bad value {value.strip()!r} for {key!r}"
            ) from None
    return values


def _resolve(ns: argparse.Namespace) -> argparse.Namespace:
    """Apply flag > config file > default precedence to every option."""
    file_values = read_config_file(ns.config) if getattr(ns, "config", None) else {}
    for key, (_, default) in _OPTIONS.items():
        if not hasattr(ns, key):
            continue
        if getattr(ns, key) is None:
            setattr(ns, key, file_values.get(key, default))
    return ns


def _require(ns: argparse.Namespace, *keys: str) -> None:
    """Reject options still unset after ``_resolve``; flags are not marked
    required, so a config file can supply them."""
    for key in keys:
        if getattr(ns, key) is None:
            flag = "--" + key.replace("_", "-")
            raise ContractError(f"{flag} is required: pass {flag} or set {key!r} in --config")


def _add_dataset_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="dataset directory (TU layout)")
    p.add_argument("--name", help="dataset name prefix")
    p.add_argument("--feature-mode", dest="feature_mode", default=None,
                   choices=["node-label-one-hot", "degree-one-hot", "constant"])
    p.add_argument("--limit-graphs", dest="limit_graphs", type=int, default=None,
                   help="stratified subsample to this many graphs")


def _add_model_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hidden-dim", dest="hidden_dim", type=int, default=None)
    p.add_argument("--layer-sizes", dest="layer_sizes", type=_to_int_list, default=None,
                   help="explicit cluster counts, e.g. 128,32,8")
    p.add_argument("--layer-base", dest="layer_base", type=int, default=None,
                   help="first-layer cluster count when --layer-sizes is absent")
    p.add_argument("--ratio", type=float, default=None, help="assignment ratio")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--variant", default=None,
                   choices=["sshpool", "diffpool", "global_sum", "global_mean"])
    p.add_argument("--attention", dest="attention", default=None,
                   action=argparse.BooleanOptionalAction)
    p.add_argument("--gconv-layers", dest="gconv_layers", type=int, default=None)
    p.add_argument("--keep-coarse-self-loops", dest="keep_coarse_self_loops",
                   default=None, action=argparse.BooleanOptionalAction)


def _add_train_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--repeats", type=int, default=None)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.add_argument("--out", default=None, help="output directory")


def _load_dataset(ns: argparse.Namespace) -> Dataset:
    _require(ns, "data", "name")
    if not os.path.isdir(ns.data):
        raise IngestError(f"missing dataset directory: {ns.data}")
    dataset = load_tu_dataset(ns.data, ns.name, ns.feature_mode)
    if ns.limit_graphs is not None:
        dataset = stratified_subset(dataset, ns.limit_graphs, seed=ns.seed)
    return dataset


def _model_config(ns: argparse.Namespace, dataset: Dataset) -> ModelConfig:
    sizes = (
        tuple(ns.layer_sizes)
        if ns.layer_sizes
        else layer_sizes_from_ratio(ns.layer_base, ns.ratio, ns.depth)
    )
    return ModelConfig(
        feature_dim_in=dataset.feature_dim,
        num_classes=dataset.num_classes,
        hidden_dim=ns.hidden_dim,
        layer_sizes=sizes,
        assignment_ratio=ns.ratio,
        depth=len(sizes),
        dropout=ns.dropout,
        attention_enabled=ns.attention,
        variant=ns.variant,
        global_conv_layers=ns.gconv_layers,
        keep_coarse_self_loops=ns.keep_coarse_self_loops,
    )


def _train_config(ns: argparse.Namespace) -> TrainConfig:
    return TrainConfig(
        lr=ns.lr,
        epochs=ns.epochs,
        batch_size=ns.batch_size,
        seed=ns.seed,
        folds=ns.folds,
        repeats=ns.repeats,
    )


def _write_json(path: str, payload) -> None:
    with atomic_open(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: str, header: list[str], rows: list[dict]) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def cmd_train(ns: argparse.Namespace) -> int:
    dataset = _load_dataset(ns)
    model_config = _model_config(ns, dataset)
    train_config = _train_config(ns)
    out = ns.out or "out"
    os.makedirs(out, exist_ok=True)

    report = cross_validate(dataset, model_config, train_config)
    _write_json(os.path.join(out, "report.json"), report.to_dict())
    _write_csv(
        os.path.join(out, "curves.csv"),
        ["epoch", "split", "loss", "accuracy"],
        report.curve,
    )
    # Checkpoint: one model trained on the full corpus with the same budget.
    final = train_graphs(
        dataset,
        list(range(len(dataset.graphs))),
        [],
        model_config,
        train_config,
        repeat=train_config.repeats,
        fold=0,
    )
    final.params.save(os.path.join(out, "model.ckpt"))
    print(
        json.dumps(
            {"mean_accuracy": report.mean_accuracy, "std_error": report.std_error},
            sort_keys=True,
        )
    )
    return 0


def cmd_eval(ns: argparse.Namespace) -> int:
    _require(ns, "ckpt")
    params = ModelParams.load(ns.ckpt)
    dataset = _load_dataset(ns)
    count = len(dataset.graphs)
    mean_loss, accuracy = evaluate(dataset, list(range(count)), params)
    print(
        json.dumps(
            {"accuracy": accuracy, "mean_loss": mean_loss, "graphs": count},
            sort_keys=True,
        )
    )
    return 0


def cmd_pool_trace(ns: argparse.Namespace) -> int:
    _require(ns, "ckpt")
    params = ModelParams.load(ns.ckpt)
    if params.config.variant != "sshpool":
        raise ContractError(
            f"pool-trace needs an sshpool checkpoint, got variant {params.config.variant!r}"
        )
    dataset = _load_dataset(ns)
    if not 0 <= ns.graph_index < len(dataset.graphs):
        raise ContractError(
            f"graph index {ns.graph_index} outside [0, {len(dataset.graphs)})"
        )
    graph = dataset.graphs[ns.graph_index]
    _, trace = forward(graph, params, training=False)
    for depth, entry in enumerate(trace.layers):
        record = {
            "layer": depth,
            "cluster_sizes": entry.cluster_sizes,
            "dropped_edges": entry.edges_dropped,
            "coarse_adjacency": [
                [int(v) for v in row] for row in entry.coarse_adjacency.data
            ],
            "clusters": entry.clusters,
        }
        print(json.dumps(record, sort_keys=True))
    return 0


def cmd_gradcheck(ns: argparse.Namespace) -> int:
    graph, params = fixture_graph_and_params(variant=ns.variant, seed=ns.seed)
    report = check_model_gradients(graph, params, step=ns.step, tolerance=ns.tolerance)
    for name in sorted(report.worst):
        print(f"{name}: {report.worst[name]:.3e}")
    if report.passed:
        print(f"gradcheck passed: max relative error {report.max_error:.3e}")
        return 0
    offenders = [n for n, e in report.worst.items() if e > report.tolerance]
    print(f"gradcheck FAILED for: {', '.join(sorted(offenders))}")
    return 1


def cmd_sweep(ns: argparse.Namespace) -> int:
    dataset = _load_dataset(ns)
    model_config = _model_config(ns, dataset)
    train_config = _train_config(ns)
    if ns.kind == "depth":
        rows = sweep_depth(dataset, ns.depths, model_config, train_config)
    else:
        rows = sweep_ratio(dataset, ns.ratios, model_config, train_config)
    header = [ns.kind, "method", "mean_accuracy", "std_error"]
    if ns.out:
        os.makedirs(ns.out, exist_ok=True)
        _write_csv(os.path.join(ns.out, f"sweep_{ns.kind}.csv"), header, rows)
    writer = csv.DictWriter(sys.stdout, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return 0


def cmd_stats(ns: argparse.Namespace) -> int:
    dataset = _load_dataset(ns)
    print(json.dumps(graph_stats(dataset), sort_keys=True))
    return 0


def _random_graph(rng: np.random.Generator, d: int) -> Graph:
    n = int(rng.integers(4, 13))
    adj = (rng.random((n, n)) < 0.4).astype(float)
    adj = np.triu(adj, k=1)
    adj = adj + adj.T
    return Graph(
        adjacency=Tensor(adj),
        features=Tensor(rng.normal(size=(n, d))),
        label=0,
    )


def cmd_diagnose(ns: argparse.Namespace) -> int:
    rng = np.random.default_rng(ns.seed)
    if ns.kind == "locality":
        graphs_checked, passes, trials_run = 0, 0, 0
        violations = []
        per_graph = max(1, ns.trials // ns.graphs)
        for _ in range(ns.graphs):
            d_in = int(rng.integers(3, 8))
            graph = _random_graph(rng, d_in)
            hidden = int(rng.integers(4, 10))
            clusters = int(rng.integers(1, 7))
            config = ModelConfig(
                feature_dim_in=d_in,
                num_classes=2,
                hidden_dim=hidden,
                layer_sizes=(clusters,),
                assignment_ratio=0.5,
                depth=1,
                dropout=0.0,
            )
            params = ModelParams(config, seed=int(rng.integers(2**31)))
            report = certify_locality(graph, params, trials=per_graph, rng=rng)
            graphs_checked += 1
            passes += report.passes
            trials_run += report.trials
            violations.extend(report.violations)
        print(
            json.dumps(
                {
                    "graphs": graphs_checked,
                    "trials": trials_run,
                    "passes": passes,
                    "violations": violations,
                },
                sort_keys=True,
            )
        )
        return 0 if passes == trials_run else 1

    # smoothing: compare the pooled pipeline against a stacked convolution
    if ns.data:
        dataset = _load_dataset(ns)
    else:
        from .synth import triangle_dataset

        dataset = triangle_dataset(num_graphs=20, seed=ns.seed)
    if ns.ckpt:
        params = ModelParams.load(ns.ckpt)
    else:
        params = ModelParams(_model_config(ns, dataset), seed=ns.seed)
    graphs = dataset.graphs[: ns.graphs]
    profiles = compare_smoothing(graphs, params, seed=ns.seed)
    print(json.dumps(profiles, sort_keys=True))
    if ns.out:
        os.makedirs(ns.out, exist_ok=True)
        for key, rows in profiles.items():
            _write_csv(
                os.path.join(ns.out, f"smoothing_{key}.csv"),
                ["layer", "mean_cosine", "nodes", "skipped_pairs"],
                rows,
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sshpool",
        description="Hierarchical graph pooling: training, tracing, diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="cross-validated training run")
    _add_dataset_opts(p_train)
    _add_model_opts(p_train)
    _add_train_opts(p_train)
    _add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--ckpt")
    _add_dataset_opts(p_eval)
    _add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_trace = sub.add_parser("pool-trace", help="per-layer coarsening trace as JSON lines")
    p_trace.add_argument("--ckpt")
    p_trace.add_argument("--graph-index", dest="graph_index", type=int, default=None)
    _add_dataset_opts(p_trace)
    _add_common(p_trace)
    p_trace.set_defaults(func=cmd_pool_trace)

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of the full model")
    p_grad.add_argument("--variant", default=None,
                        choices=["sshpool", "diffpool", "global_sum", "global_mean"])
    p_grad.add_argument("--tolerance", type=float, default=None)
    p_grad.add_argument("--step", type=float, default=None)
    _add_common(p_grad)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_sweep = sub.add_parser("sweep", help="depth or assignment-ratio sensitivity table")
    p_sweep.add_argument("kind", choices=["depth", "ratio"])
    p_sweep.add_argument("--depths", type=_to_int_list, default=None)
    p_sweep.add_argument("--ratios", type=_to_float_list, default=None)
    _add_dataset_opts(p_sweep)
    _add_model_opts(p_sweep)
    _add_train_opts(p_sweep)
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_stats = sub.add_parser("stats", help="dataset summary as JSON")
    _add_dataset_opts(p_stats)
    _add_common(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_diag = sub.add_parser("diagnose", help="smoothing profiles or locality certification")
    p_diag.add_argument("kind", choices=["smoothing", "locality"])
    p_diag.add_argument("--ckpt", default=None)
    p_diag.add_argument("--trials", type=int, default=None)
    p_diag.add_argument("--graphs", type=int, default=None)
    _add_dataset_opts(p_diag)
    _add_model_opts(p_diag)
    _add_common(p_diag)
    p_diag.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    try:
        ns = _resolve(ns)
        return ns.func(ns)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
