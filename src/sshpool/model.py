"""End-to-end classifier: global convolution, pooling, attention fusion, MLP.

The forward pipeline is global_conv -> pooling stack -> attention fusion
(optional) -> mean readout -> two-layer MLP. Variants swap the pooling
stage: ``sshpool`` (the hierarchical hard-assignment method), ``diffpool``
(soft-assignment baseline), and ``global_sum`` / ``global_mean`` readouts.
Turning ``attention_enabled`` off gives the no-fusion ablation.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import Graph, atomic_open
from .errors import ContractError, IngestError, ShapeError
from .pooling import CoarseningTrace, PoolLayerParams, diffpool_stack, sshpool_stack
from .tensor import Tensor, _record, mean_rows, softmax_rows, sum_rows

VARIANTS = ("sshpool", "diffpool", "global_sum", "global_mean")

CHECKPOINT_VERSION = "sshpool-ckpt-v1"


def layer_sizes_from_ratio(base: int, ratio: float, depth: int) -> tuple[int, ...]:
    """Geometric cluster-count schedule: next = round(ratio * current).

    Rejects a non-finite ratio and schedules that hit zero clusters.
    """
    if not np.isfinite(ratio):
        raise ContractError(f"assignment ratio must be finite, got {ratio}")
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


_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}


def _fits(value, annotation: str) -> bool:
    """Whether ``value`` fits a ``ModelConfig`` field's annotation string; a bool is no number."""
    if annotation.endswith(" | None"):
        return value is None or _fits(value, annotation[: -len(" | None")])
    if annotation == "tuple[int, ...]":
        return isinstance(value, (tuple, list)) and all(_fits(v, "int") for v in value)
    kind = _FIELD_TYPES[annotation]
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


@dataclass
class ModelConfig:
    feature_dim_in: int
    num_classes: int
    hidden_dim: int = 128
    layer_sizes: tuple[int, ...] = (128, 32, 8)
    assignment_ratio: float = 0.25
    depth: int | None = None  # len(layer_sizes) when omitted
    dropout: float = 0.5
    attention_enabled: bool = True
    variant: str = "sshpool"
    global_conv_layers: int = 1
    keep_coarse_self_loops: bool = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _fits(value, f.type):
                raise ContractError(f"{f.name} must be {f.type}, got {value!r}")
            if f.type in ("int", "float"):  # numpy numbers become Python ones
                setattr(self, f.name, int(value) if f.type == "int" else float(value))
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        self.depth = len(self.layer_sizes) if self.depth is None else int(self.depth)
        if self.feature_dim_in < 1:
            raise ContractError(f"feature_dim_in must be positive, got {self.feature_dim_in}")
        if self.hidden_dim < 1:
            raise ContractError(f"hidden_dim must be positive, got {self.hidden_dim}")
        if self.num_classes < 1:
            raise ContractError(f"num_classes must be >= 1, got {self.num_classes}")
        if not np.isfinite(self.assignment_ratio):
            raise ContractError(f"assignment ratio must be finite, got {self.assignment_ratio}")
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
        if any(b >= a for a, b in zip(self.layer_sizes, self.layer_sizes[1:])):
            raise ContractError(f"layer sizes must strictly decrease, got {self.layer_sizes}")

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


def _glorot(rng: np.random.Generator, count: int, rows: int, cols: int) -> np.ndarray:
    """``count`` Glorot-uniform rows x cols draws in one call: the same stream,
    bit for bit, as ``count`` calls of one each."""
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(count, rows, cols))


class ModelParams:
    """All trainable tensors, enumerated in a fixed, documented order.

    Order: global convolution weights, then per pooling layer the assignment
    projection followed by that layer's local (or shared embed) weights,
    then attention query/key/value, then the MLP weights and biases. The
    checkpoint format relies on this order.

    The values fill one float64 vector ``data``, and the gradients a second,
    ``grad``, in that order. Each named tensor's ``data`` and ``grad`` are
    reshaped views of them: callers write them in place, never rebind them.
    A pooling layer's local weights are consecutive, so its
    ``PoolLayerParams`` views them as one c x d x d stretch of each vector.

    Weights are Glorot-uniform, drawn in that order straight into ``data``;
    biases start at zero. A layer's local weights share their shape, so one
    draw of c x d x d fills them: the same stream as one draw per weight.
    ``load`` fills the same layout from a file, drawing nothing.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        for name, (values, _) in self._allocate(config).items():
            values[...] = 0.0 if name.endswith(".bias") else _glorot(rng, *values.shape)

    def _allocate(self, config: ModelConfig) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Lay the tensors over uninitialised ``data`` and zeroed ``grad``; map
        each same-shape run's first name to its views of both, in order."""
        self.config = config
        d, k = config.hidden_dim, config.num_classes
        # (names, rows, cols) in order; one entry's names are consecutive
        # tensors of one shape.
        layout = [([f"gconv.{i}.weight"], d if i else config.feature_dim_in, d)
                  for i in range(config.global_conv_layers)]
        pooling = config.layer_sizes if config.variant in ("sshpool", "diffpool") else ()
        for l, size in enumerate(pooling):
            local = [f"pool.{l}.local.{j}" for j in range(size)]
            layout += [([f"pool.{l}.assign"], d, size),
                       (local if config.variant == "sshpool" else [f"pool.{l}.embed"], d, d)]
        layout += [([f"attn.{x}"], d, d) for x in ("query", "key", "value")]
        layout += [(["mlp.hidden.weight"], d, d), (["mlp.hidden.bias"], 1, d),
                   (["mlp.out.weight"], d, k), (["mlp.out.bias"], 1, k)]

        self.data = np.empty(sum(len(names) * r * c for names, r, c in layout))
        self.grad = np.zeros_like(self.data)
        self._named: dict[str, Tensor] = {}
        stacks, at = {}, 0  # the first name of an entry -> its values and grads
        for names, r, c in layout:
            shape, span = (len(names), r, c), slice(at, at + len(names) * r * c)
            values, grads = self.data[span].reshape(shape), self.grad[span].reshape(shape)
            stacks[names[0]], at = (values, grads), span.stop
            for name, value, grad in zip(names, values, grads):
                self._named[name] = Tensor(value)
                self._named[name].grad = grad
        named, layers = self._named, range(len(config.layer_sizes))
        self.gconv = [named[f"gconv.{i}.weight"] for i in range(config.global_conv_layers)]
        self.pool_layers = [PoolLayerParams(named[f"pool.{l}.assign"], *stacks[f"pool.{l}.local.0"])
                            for l in layers if config.variant == "sshpool"]
        self.diff_layers = [(named[f"pool.{l}.assign"], named[f"pool.{l}.embed"])
                            for l in layers if config.variant == "diffpool"]
        self.attn_q, self.attn_k = named["attn.query"], named["attn.key"]
        self.attn_v = named["attn.value"]
        self.mlp_w1, self.mlp_b1 = named["mlp.hidden.weight"], named["mlp.hidden.bias"]
        self.mlp_w2, self.mlp_b2 = named["mlp.out.weight"], named["mlp.out.bias"]
        return stacks

    def named(self) -> dict[str, Tensor]:
        return self._named

    def split(self, vector: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views, in order, of a vector laid out as ``data``."""
        return np.split(vector, np.cumsum([t.data.size for t in self._named.values()])[:-1])

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

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
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except UnicodeDecodeError as exc:
            why = f"not UTF-8 text ({exc})"
            raise IngestError(f"checkpoint {path} cannot be read: {why}") from None
        except json.JSONDecodeError as exc:
            why = "it is empty" if not exc.doc.strip() else f"truncated or malformed JSON ({exc})"
            raise IngestError(f"checkpoint {path} cannot be read: {why}") from None
        version = _field(payload, "version", path)
        if version != CHECKPOINT_VERSION:
            raise ContractError(
                f"checkpoint {path}: version {version!r} unsupported, want {CHECKPOINT_VERSION!r}"
            )
        try:
            config = ModelConfig.from_dict(_field(payload, "config", path))
        except (KeyError, TypeError, ValueError) as exc:  # ContractError is a ValueError
            raise IngestError(f"checkpoint {path}: bad config: {exc!r}") from None
        params = cls.__new__(cls)
        params._allocate(config)  # every value is filled below
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
            # numpy reads JSON true and false as 1 and 0, so only such entries can be booleans.
            flag = next((i for i in np.flatnonzero((arr == 0) | (arr == 1))
                         if isinstance(values[i], bool)), None)
            if flag is not None:
                raise IngestError(
                    f"checkpoint {where}: 'data' entry {flag} is a boolean, not a number"
                )
            t.data[...] = arr.reshape(t.shape)
        return params


def _field(entry, key: str, where: str):
    """``entry[key]`` of a checkpoint payload, or ``IngestError`` if absent."""
    if not isinstance(entry, dict) or key not in entry:
        raise IngestError(f"checkpoint {where}: missing {key!r}")
    return entry[key]


def global_conv(graph: Graph, x: Tensor, weight: Tensor) -> Tensor:
    """One symmetric-normalised convolution: ReLU(D^-1/2 (A+I) D^-1/2 X W).

    The self-loop keeps every degree >= 1, so the normaliser always exists;
    its nonzeros are cached on the graph. When ``x`` is the graph's own,
    untrainable, feature matrix, Â X is the graph's cached ``propagated``
    and no n x n operand is built; any other input (a second layer, a
    trainable input) is multiplied by Â scattered into a dense operand.

    One tape record. The forward and backward run the expressions of the
    op-by-op composition ``relu(matmul(matmul(Â, x), weight))`` (the
    reference ops are in ``tests/op_reference.py``) on the same operands,
    so every gradient keeps its bits. The products that only feed
    constants are skipped: ``g' Xᵀ`` into Â always, and ``g Wᵀ`` and
    ``Âᵀ g'`` when ``x`` is the graph's own, untrainable, feature matrix.
    """
    if x.rows != graph.n or x.cols != weight.rows:
        raise ShapeError(
            f"global_conv: {x.shape} features on {graph.n} nodes, weight {weight.shape}"
        )
    to_x = x is not graph.features or x.grad is not None
    if to_x:
        norm = graph.gcn_norm.dense()
        ax = norm @ x.data
    else:
        ax = graph.propagated
    h = ax @ weight.data
    out = Tensor(np.maximum(h, 0.0))

    def rule(g, push):
        g = g * (h > 0.0)
        push(weight, ax.T @ g)
        if to_x:
            push(x, norm.T @ (g @ weight.data.T))

    return _record(out, rule)


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
    c = 1.0 / math.sqrt(x0.cols)
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
        dot = np.add.reduce(ds * s, axis=1, keepdims=True)
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
    """Mean-pool the rows, then Linear -> ReLU -> dropout -> Linear.

    One tape record, whose forward and backward run the expressions of the
    op-by-op composition (``mean_rows``, ``matmul``, ``add``, ``relu``,
    ``dropout``) on the same operands, with the same dropout draw; so the
    logits and every gradient keep their bits.
    """
    w1, b1, w2, b2 = params.mlp_w1, params.mlp_b1, params.mlp_w2, params.mlp_b2
    if h.rows == 0 or h.cols != w1.rows:
        raise ShapeError(f"classify: needs rows of width {w1.rows}, got shape {h.shape}")
    pooled = np.add.reduce(h.data, axis=0, keepdims=True) / h.rows
    pre = pooled @ w1.data + b1.data
    hidden = np.maximum(pre, 0.0)
    p = params.config.dropout
    keep = None
    if training and p > 0.0:
        if rng is None:
            raise ContractError("training with dropout needs an explicit rng")
        keep = (rng.random(hidden.shape) >= p) / (1.0 - p)
        hidden = hidden * keep
    out = Tensor(hidden @ w2.data + b2.data)

    def rule(g, push):
        push(b2, g)
        push(w2, hidden.T @ g)
        g = g @ w2.data.T
        if keep is not None:
            g = g * keep
        g = g * (pre > 0.0)
        push(b1, g)
        push(w1, pooled.T @ g)
        push(h, (g @ w1.data.T / h.rows).repeat(h.rows, axis=0))

    return _record(out, rule)


def forward(
    graph: Graph,
    params: ModelParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
    frozen_assignments: list[np.ndarray] | None = None,
) -> tuple[Tensor, CoarseningTrace]:
    """Full pipeline for one graph; returns 1 x num_classes logits and the trace.

    The trace's ``x0`` is the global convolution's output, the pooling input.

    ``frozen_assignments`` replaces the per-layer cluster labels (used by
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
            config.keep_coarse_self_loops,
            frozen_assignments,
        )
    elif config.variant == "diffpool":
        pooled, _ = diffpool_stack(graph.edges.dense(), x0, params.diff_layers)
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
    """Cross-entropy of a 1 x C logit row against the true class:
    logsumexp(logits) - logits[label].

    Stable for extreme logits via max subtraction; backward is the classic
    softmax-minus-one-hot rule.
    """
    if logits.rows != 1:
        raise ShapeError(f"logits must be a single row, got {logits.shape}")
    if not 0 <= label < logits.cols:
        raise ContractError(f"label {label} outside [0, {logits.cols})")
    row = logits.data[0]
    m = row.max()
    lse = m + np.log(np.add.reduce(np.exp(row - m)))
    out = Tensor(lse - logits.data[:, label : label + 1])

    def rule(g, push):
        s = np.exp(row - m)
        s /= np.add.reduce(s)
        s[label] -= 1.0
        push(logits, g[0, 0] * s.reshape(1, -1))

    return _record(out, rule)


def predict(logits: Tensor) -> int:
    return int(logits.data[0].argmax())
