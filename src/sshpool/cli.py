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
from typing import Callable, NamedTuple

import numpy as np

from .data import (
    FEATURE_MODES,
    Dataset,
    Graph,
    atomic_open,
    graph_stats,
    load_tu_dataset,
    stratified_subset,
)
from .diagnostics import certify_locality, compare_smoothing
from .errors import ContractError, IngestError
from .gradcheck import check_model_gradients, fixture_graph_and_params
from .model import VARIANTS, ModelConfig, ModelParams, forward, layer_sizes_from_ratio
from .trainer import TrainConfig, cross_validate, evaluate, sweep, train_graphs

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


class _Option(NamedTuple):
    convert: Callable[[str], object]
    default: object  # None means "unset"
    help: str
    choices: tuple[str, ...] | None = None


# The one declaration of every option: config-file key (the argparse dest,
# and the flag with "_" written "-") -> converter, default, help. Rows whose
# converter is ``_to_bool`` become --flag/--no-flag switches.
_OPTIONS = {
    "data": _Option(str, None, "dataset directory (TU layout)"),
    "name": _Option(str, None, "dataset name prefix"),
    "feature_mode": _Option(str, None, "node features (default: node-label one-hots "
                            "when the corpus has node labels, else degree one-hots)",
                            FEATURE_MODES),
    "limit_graphs": _Option(int, None, "stratified subsample to this many graphs"),
    "out": _Option(str, None, "output directory (train writes to out/ without it)"),
    "ckpt": _Option(str, None, "checkpoint file"),
    "hidden_dim": _Option(int, 128, "hidden width"),
    "layer_sizes": _Option(_to_int_list, None, "cluster counts per layer, any schedule, "
                           "e.g. 128,10,8 (default: from --layer-base, --ratio, --depth)"),
    "layer_base": _Option(int, 128, "first-layer cluster count without --layer-sizes"),
    "ratio": _Option(float, 0.25, "assignment ratio: each layer has round(ratio * "
                     "previous) clusters"),
    "depth": _Option(int, 3, "pooling layers without --layer-sizes"),
    "dropout": _Option(float, 0.5, "dropout rate"),
    "variant": _Option(str, "sshpool", "model variant", VARIANTS),
    "attention": _Option(_to_bool, True, "attention fusion of the layer readouts"),
    "gconv_layers": _Option(int, 1, "global convolution layers"),
    "keep_coarse_self_loops": _Option(_to_bool, False, "keep self-loops in coarse adjacencies"),
    "lr": _Option(float, 1e-3, "Adam learning rate"),
    "epochs": _Option(int, 100, "training epochs"),
    "batch_size": _Option(int, 32, "graphs per Adam step"),
    "folds": _Option(int, 10, "cross-validation folds"),
    "repeats": _Option(int, 10, "cross-validation repeats"),
    "seed": _Option(int, 0, "the single source of randomness"),
    "graph_index": _Option(int, 0, "graph to trace"),
    "trials": _Option(int, 100, "perturbation trials in total, at least --graphs"),
    "graphs": _Option(int, 50, "graphs to use"),
    "tolerance": _Option(float, 1e-4, "largest relative error that passes"),
    "step": _Option(float, 1e-5, "central-difference step"),
    "depths": _Option(_to_int_list, [1, 2, 3], "depths to sweep"),
    "ratios": _Option(_to_float_list, [0.5, 0.25, 0.125], "assignment ratios to sweep"),
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
            values[key] = _OPTIONS[key].convert(value.strip())
        except (ValueError, TypeError):
            raise ContractError(
                f"{path}:{lineno}: bad value {value.strip()!r} for {key!r}"
            ) from None
    return values


def _resolve(ns: argparse.Namespace) -> argparse.Namespace:
    """Flag > config file > default for the command's options; defaults for the rest."""
    file_values = read_config_file(ns.config) if getattr(ns, "config", None) else {}
    for key, option in _OPTIONS.items():
        if not hasattr(ns, key):
            setattr(ns, key, option.default)
        elif getattr(ns, key) is None:
            setattr(ns, key, file_values.get(key, option.default))
    return ns


def _require(ns: argparse.Namespace, *keys: str) -> None:
    """Reject options still unset after ``_resolve``; flags are not marked
    required, so a config file can supply them."""
    for key in keys:
        if getattr(ns, key) is None:
            flag = "--" + key.replace("_", "-")
            raise ContractError(f"{flag} is required: pass {flag} or set {key!r} in --config")


def _load_dataset(ns: argparse.Namespace) -> Dataset:
    _require(ns, "data", "name")
    if not os.path.isdir(ns.data):
        raise IngestError(f"missing dataset directory: {ns.data}")
    dataset = load_tu_dataset(ns.data, ns.name, ns.feature_mode)
    if ns.limit_graphs is not None:
        dataset = stratified_subset(dataset, ns.limit_graphs, seed=ns.seed)
    return dataset


def _check_feature_width(params: ModelParams, dataset: Dataset) -> None:
    if dataset.feature_dim != params.config.feature_dim_in:
        raise ContractError(
            f"checkpoint takes {params.config.feature_dim_in} input features; dataset "
            f"{dataset.name!r} has {dataset.feature_dim} ({dataset.feature_mode})"
        )


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
    _check_feature_width(params, dataset)
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
    _check_feature_width(params, dataset)
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
    # Swept schedules replace this one, which (unlike a geometric one) cannot degenerate.
    ns.layer_sizes = [ns.layer_base] * ns.depth
    model_config = _model_config(ns, dataset)
    train_config = _train_config(ns)
    values = getattr(ns, ns.kind + "s")  # --depths or --ratios
    rows = sweep(dataset, ns.kind, values, model_config, train_config)
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
    return Graph.from_dense(adj, rng.normal(size=(n, d)), label=0)


def _require_graphs(ns: argparse.Namespace) -> None:
    if ns.graphs < 1:
        raise ContractError(f"--graphs must be >= 1, got {ns.graphs}")


def cmd_locality(ns: argparse.Namespace) -> int:
    _require_graphs(ns)
    if ns.trials < ns.graphs:
        raise ContractError(f"--trials must be >= --graphs ({ns.graphs}), got {ns.trials}")
    rng = np.random.default_rng(ns.seed)
    passes, trials_run = 0, 0
    violations = []
    # The first trials % graphs graphs take one extra trial.
    per_graph, extra = divmod(ns.trials, ns.graphs)
    for g in range(ns.graphs):
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
        report = certify_locality(graph, params, trials=per_graph + (g < extra), rng=rng)
        passes += report.passes
        trials_run += report.trials
        violations.extend(report.violations)
    print(
        json.dumps(
            {
                "graphs": ns.graphs,
                "trials": trials_run,
                "passes": passes,
                "violations": violations,
            },
            sort_keys=True,
        )
    )
    return 0 if passes == trials_run else 1


def cmd_smoothing(ns: argparse.Namespace) -> int:
    """Compare the pooled pipeline against a stacked convolution."""
    _require_graphs(ns)
    if ns.data:
        dataset = _load_dataset(ns)
    else:
        from .synth import triangle_dataset

        dataset = triangle_dataset(num_graphs=20, seed=ns.seed)
    if ns.ckpt:
        params = ModelParams.load(ns.ckpt)
        _check_feature_width(params, dataset)
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


_DATASET = ("data", "name", "feature_mode", "limit_graphs")
_MODEL = ("hidden_dim", "layer_base", "dropout", "gconv_layers", "keep_coarse_self_loops")
_TRAINING = _DATASET + _MODEL + ("lr", "epochs", "batch_size", "folds", "repeats", "out")
# A sweep sets each method's variant and attention, and builds the schedule
# from --layer-base, the swept value and the other of --ratio/--depth.
_SCHEDULE = ("layer_sizes", "ratio", "depth", "variant", "attention")

# Per command: help, then its handler and the options the handler reads,
# or, for a command with kinds, a table of its kinds in the same form.
# Every command also takes --seed and --config.
_COMMANDS = {
    "train": ("cross-validated training run", cmd_train, _TRAINING + _SCHEDULE),
    "eval": ("evaluate a checkpoint on a dataset", cmd_eval, ("ckpt",) + _DATASET),
    "pool-trace": ("per-layer coarsening trace as JSON lines", cmd_pool_trace,
                   ("ckpt", "graph_index") + _DATASET),
    "gradcheck": ("finite-difference check of the full model", cmd_gradcheck,
                  ("variant", "tolerance", "step")),
    "sweep": ("depth or assignment-ratio sensitivity table", {
        "depth": ("accuracy versus depth", cmd_sweep, ("depths", "ratio") + _TRAINING),
        "ratio": ("accuracy versus assignment ratio", cmd_sweep, ("ratios", "depth") + _TRAINING),
    }),
    "stats": ("dataset summary as JSON", cmd_stats, _DATASET),
    "diagnose": ("smoothing profiles or locality certification", {
        "smoothing": ("pooled versus stacked-convolution smoothing profiles", cmd_smoothing,
                      ("graphs", "ckpt", "out") + _DATASET + _MODEL + _SCHEDULE),
        "locality": ("certify that no information crosses a cluster boundary",
                     cmd_locality, ("trials", "graphs")),
    }),
}


def _add_commands(sub, table: dict) -> None:
    for name, (help_text, *target) in table.items():
        # No abbreviations: "--depth" must not stand for "--depths".
        p = sub.add_parser(name, help=help_text, description=help_text, allow_abbrev=False)
        if isinstance(target[0], dict):
            _add_commands(p.add_subparsers(dest="kind", required=True), target[0])
            continue
        func, keys = target
        for key in (*keys, "seed"):
            option = _OPTIONS[key]
            flag = "--" + key.replace("_", "-")
            text = option.help
            if option.default is not None:
                shown = option.default
                if isinstance(shown, list):
                    shown = ",".join(map(str, shown))
                text += f" (default: {shown})"
            # Every argparse default stays None, so _resolve can tell a flag
            # from an absent one.
            if option.convert is _to_bool:
                p.add_argument(flag, action=argparse.BooleanOptionalAction, help=text)
            else:
                p.add_argument(flag, type=option.convert, choices=option.choices, help=text)
        p.add_argument("--config", help="flat key = value config file")
        p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sshpool",
        description="Hierarchical graph pooling: training, tracing, diagnostics.",
    )
    _add_commands(parser.add_subparsers(dest="command", required=True), _COMMANDS)
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
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
