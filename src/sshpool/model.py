"""End-to-end classifier: global convolution, pooling, attention fusion, MLP.

The forward pipeline is global_conv -> pooling stack -> attention fusion
(optional) -> mean readout -> two-layer MLP. Variants swap the pooling
stage: ``sshpool`` (the hierarchical hard-assignment method), ``diffpool``
(soft-assignment baseline), and ``global_sum`` / ``global_mean`` readouts.
Turning ``attention_enabled`` off gives the no-fusion ablation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .data import Graph, atomic_open
from .errors import ContractError, IngestError, ShapeError
from .pooling import (
    CoarseningTrace,
    PoolLayerParams,
    baseline_diffpool_layer,
    sshpool_stack,
)
from .tensor import (
    Tensor,
    _record,
    add,
    cross_entropy_with_logits,
    dropout,
    matmul,
    mean_rows,
    relu,
    softmax_rows,
    sum_rows,
    take_cols,
)

VARIANTS = ("sshpool", "diffpool", "global_sum", "global_mean")

CHECKPOINT_VERSION = "sshpool-ckpt-v1"


def layer_sizes_from_ratio(base: int, ratio: float, depth: int) -> tuple[int, ...]:
    """Geometric cluster-count schedule: next = round(ratio * current).

    Rejects schedules that hit zero clusters.
    """
    if depth < 1:
        raise ContractError(f"depth must be >= 1, got {depth}")
    sizes = [base]
    for _ in range(depth - 1):
        sizes.append(round(ratio * sizes[-1]))
    if any(s < 1 for s in sizes):
        raise ContractError(
            f"ratio {ratio} from base {base} degenerates to {tuple(sizes)}"
        )
    return tuple(sizes)


@dataclass
class ModelConfig:
    feature_dim_in: int
    num_classes: int
    hidden_dim: int = 128
    layer_sizes: tuple[int, ...] = (128, 32, 8)
    assignment_ratio: float = 0.25
    depth: int = 3
    dropout: float = 0.5
    attention_enabled: bool = True
    variant: str = "sshpool"
    global_conv_layers: int = 1
    keep_coarse_self_loops: bool = False

    def __post_init__(self):
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        if self.feature_dim_in < 1:
            raise ContractError(f"feature_dim_in must be positive, got {self.feature_dim_in}")
        if self.hidden_dim < 1:
            raise ContractError(f"hidden_dim must be positive, got {self.hidden_dim}")
        if self.num_classes < 1:
            raise ContractError(f"num_classes must be >= 1, got {self.num_classes}")
        if not 0.0 <= self.dropout < 1.0:
            raise ContractError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.variant not in VARIANTS:
            raise ContractError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.global_conv_layers < 1:
            raise ContractError("at least one global convolution layer is required")
        if self.depth != len(self.layer_sizes):
            raise ContractError(
                f"depth {self.depth} != number of layer sizes {len(self.layer_sizes)}"
            )
        if any(s < 1 for s in self.layer_sizes):
            raise ContractError(f"layer sizes must be >= 1, got {self.layer_sizes}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["layer_sizes"] = list(self.layer_sizes)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["layer_sizes"] = tuple(d["layer_sizes"])
        d.pop("mlp_hidden_dim", None)  # always hidden_dim; older checkpoints carry it
        return cls(**d)


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    limit = np.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-limit, limit, size=(rows, cols)), requires_grad=True)


class ModelParams:
    """All trainable tensors, enumerated in a fixed, documented order.

    Order: global convolution weights, then per pooling layer the assignment
    projection followed by that layer's local (or shared embed) weights,
    then attention query/key/value, then the MLP weights and biases. The
    Adam optimizer and the checkpoint format both rely on this order.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self._named: dict[str, Tensor] = {}
        self.gconv: list[Tensor] = []
        self.pool_layers: list[PoolLayerParams] = []
        self.diff_layers: list[tuple[Tensor, Tensor]] = []
        rng = np.random.default_rng(seed)
        d = config.hidden_dim
        fan_in = config.feature_dim_in
        for i in range(config.global_conv_layers):
            self.gconv.append(self._add(f"gconv.{i}.weight", _glorot(rng, fan_in, d)))
            fan_in = d
        if config.variant == "sshpool":
            for l, size in enumerate(config.layer_sizes):
                assign = self._add(f"pool.{l}.assign", _glorot(rng, d, size))
                local = [
                    self._add(f"pool.{l}.local.{j}", _glorot(rng, d, d))
                    for j in range(size)
                ]
                self.pool_layers.append(PoolLayerParams(assign=assign, local=local))
        elif config.variant == "diffpool":
            for l, size in enumerate(config.layer_sizes):
                assign = self._add(f"pool.{l}.assign", _glorot(rng, d, size))
                embed = self._add(f"pool.{l}.embed", _glorot(rng, d, d))
                self.diff_layers.append((assign, embed))
        self.attn_q = self._add("attn.query", _glorot(rng, d, d))
        self.attn_k = self._add("attn.key", _glorot(rng, d, d))
        self.attn_v = self._add("attn.value", _glorot(rng, d, d))
        self.mlp_w1 = self._add("mlp.hidden.weight", _glorot(rng, d, d))
        self.mlp_b1 = self._add("mlp.hidden.bias", Tensor(np.zeros((1, d)), requires_grad=True))
        self.mlp_w2 = self._add("mlp.out.weight", _glorot(rng, d, config.num_classes))
        self.mlp_b2 = self._add(
            "mlp.out.bias", Tensor(np.zeros((1, config.num_classes)), requires_grad=True)
        )

    def _add(self, name: str, tensor: Tensor) -> Tensor:
        self._named[name] = tensor
        return tensor

    def named(self) -> dict[str, Tensor]:
        return self._named

    def zero_grad(self) -> None:
        for t in self._named.values():
            t.zero_grad()

    def save(self, path: str) -> None:
        payload = {
            "version": CHECKPOINT_VERSION,
            "config": self.config.to_dict(),
            "params": {
                name: {"shape": list(t.shape), "data": t.data.reshape(-1).tolist()}
                for name, t in self._named.items()
            },
        }
        with atomic_open(path) as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "ModelParams":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        version = payload.get("version") if isinstance(payload, dict) else None
        if version != CHECKPOINT_VERSION:
            raise ContractError(
                f"checkpoint version {version!r} unsupported, want {CHECKPOINT_VERSION!r}"
            )
        try:
            config = ModelConfig.from_dict(_field(payload, "config", path))
        except (KeyError, TypeError, ValueError) as exc:  # ContractError is a ValueError
            raise IngestError(f"checkpoint {path}: bad config: {exc!r}") from None
        params = cls(config, seed=0)  # structure only; values overwritten below
        stored = _field(payload, "params", path)
        if not isinstance(stored, dict) or set(stored) != set(params._named):
            raise IngestError(f"checkpoint {path}: parameter names do not match the config")
        for name, t in params._named.items():
            where = f"{path}: {name}"
            shape = _field(stored[name], "shape", where)
            values = _field(stored[name], "data", where)
            if not isinstance(shape, list) or tuple(shape) != t.shape:
                raise IngestError(f"checkpoint {where}: shape {shape!r} != expected {t.shape}")
            try:
                arr = np.asarray(values) if isinstance(values, list) else None
            except ValueError:  # ragged nesting
                arr = None
            if arr is None or arr.dtype.kind not in "fi" or arr.shape != (t.data.size,):
                raise IngestError(
                    f"checkpoint {where}: 'data' is not a list of {t.data.size} numbers"
                )
            if not np.isfinite(arr).all():
                raise IngestError(f"checkpoint {where}: non-finite value")
            t.data = arr.astype(np.float64).reshape(t.shape)
        return params


def _field(entry, key: str, where: str):
    """``entry[key]`` of a checkpoint payload, or ``IngestError`` if absent."""
    if not isinstance(entry, dict) or key not in entry:
        raise IngestError(f"checkpoint {where}: missing {key!r}")
    return entry[key]


def global_conv(graph: Graph, x: Tensor, weight: Tensor) -> Tensor:
    """One symmetric-normalised convolution: ReLU(D^-1/2 (A+I) D^-1/2 X W).

    The self-loop keeps every degree >= 1, so the normaliser always exists;
    its nonzeros are cached on the graph and scattered into a dense operand.
    """
    return relu(matmul(matmul(Tensor(graph.gcn_norm.dense()), x), weight))


def attention_fuse(
    x0: Tensor, pooled: Tensor, w_q: Tensor, w_k: Tensor, w_v: Tensor
) -> Tensor:
    """Scaled dot-product attention with queries from the pooled feature.

    Keys and values come from the initial embedding, so the fused output
    re-reads the pre-pooling representation:
    softmax(P W_q (X0 W_k)^T / sqrt(d)) X0 W_v, as one tape record.

    The backward runs the rules of the op-by-op composition (``matmul``,
    ``transpose``, ``scale``, ``row_softmax``) on the same operands, and
    pushes the v branch, then k, then q, as that composition's tape would;
    so gradients, and their accumulation into ``x0``, keep their bits.
    """
    if x0.cols != pooled.cols:
        raise ShapeError(f"attention: widths differ, {x0.shape} vs {pooled.shape}")
    c = 1.0 / np.sqrt(x0.cols)
    q = pooled.data @ w_q.data
    # A contiguous copy, as ``transpose`` makes: the product's rounding
    # depends on the operand's memory order.
    k_t = (x0.data @ w_k.data).T.copy()
    v = x0.data @ w_v.data
    s = softmax_rows(q @ k_t * c)
    out = Tensor(s @ v)

    def rule(g, push):
        ds = g @ v.T
        dv = s.T @ g
        dot = (ds * s).sum(axis=1, keepdims=True)
        d_scores = s * (ds - dot) * c
        dq = d_scores @ k_t.T
        dk = (q.T @ d_scores).T
        push(x0, dv @ w_v.data.T)
        push(w_v, x0.data.T @ dv)
        push(x0, dk @ w_k.data.T)
        push(w_k, x0.data.T @ dk)
        push(pooled, dq @ w_q.data.T)
        push(w_q, pooled.data.T @ dq)

    return _record(out, rule)


def classify(
    h: Tensor,
    params: ModelParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Mean-pool the rows, then Linear -> ReLU -> dropout -> Linear."""
    pooled = mean_rows(h)
    hidden = relu(add(matmul(pooled, params.mlp_w1), params.mlp_b1))
    p = params.config.dropout
    if training and p > 0.0:
        if rng is None:
            raise ContractError("training with dropout needs an explicit rng")
        hidden = dropout(hidden, p, True, rng)
    return add(matmul(hidden, params.mlp_w2), params.mlp_b2)


def forward(
    graph: Graph,
    params: ModelParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
    frozen_assignments: list[Tensor] | None = None,
) -> tuple[Tensor, CoarseningTrace]:
    """Full pipeline for one graph; returns 1 x num_classes logits and the trace.

    The trace's ``x0`` is the global convolution's output, the pooling input.

    ``frozen_assignments`` replaces the per-layer hard assignments (used by
    gradient checks, which must not let the argmax flip mid-perturbation).
    """
    config = params.config
    if graph.features.cols != config.feature_dim_in:
        raise ShapeError(
            f"graph feature dim {graph.features.cols} != configured "
            f"{config.feature_dim_in}"
        )
    x = graph.features
    for w in params.gconv:
        x = global_conv(graph, x, w)
    x0 = x

    trace = CoarseningTrace(layers=[])
    if config.variant == "sshpool":
        pooled, trace = sshpool_stack(
            graph.edges,
            x0,
            params.pool_layers,
            config.layer_sizes,
            config.keep_coarse_self_loops,
            frozen_assignments,
        )
    elif config.variant == "diffpool":
        a_cur, x_cur = graph.adjacency, x0
        for assign, embed in params.diff_layers:
            c_eff = min(assign.cols, x_cur.rows)
            w_assign = take_cols(assign, range(c_eff)) if c_eff < assign.cols else assign
            a_cur, x_cur = baseline_diffpool_layer(a_cur, x_cur, w_assign, embed)
        pooled = x_cur
    elif config.variant == "global_sum":
        pooled = sum_rows(x0)
    else:
        pooled = mean_rows(x0)

    fused = (
        attention_fuse(x0, pooled, params.attn_q, params.attn_k, params.attn_v)
        if config.attention_enabled
        else pooled
    )
    logits = classify(fused, params, training, rng)
    trace.x0 = x0.data
    return logits, trace


def loss(logits: Tensor, label: int) -> Tensor:
    """Cross-entropy against the true class, stable for extreme logits."""
    return cross_entropy_with_logits(logits, label)


def predict(logits: Tensor) -> int:
    return int(logits.data[0].argmax())
