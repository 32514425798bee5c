"""Dense 2-D float64 matrices with reverse-mode automatic differentiation.

Every value in the model is a :class:`Tensor` wrapping a 2-D numpy array.
Differentiable operations executed while a :class:`Tape` is active are
recorded on it; ``Tape.backward`` replays the records in exact reverse
recording order and adds each gradient that reaches a trainable tensor,
one whose ``grad`` is not None, straight into that ``grad``. Without an
active tape the same functions compute eagerly and record nothing, which
is how constants (adjacency matrices, frozen assignments) stay off the
gradient path.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ContractError, ShapeError


class Tensor:
    """A rows x cols matrix of float64 values, optionally trainable.

    A tensor is trainable exactly when ``grad`` is not None: then it holds
    dLoss/dTensor, accumulated across backward passes until the caller
    resets it. ``requires_grad=True`` starts it at zero; a caller may also
    set ``grad`` to a view of another tensor's, which then receives the
    gradient. Tensors produced by operations have no ``grad``.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got shape {arr.shape}")
        self.data = arr
        self.grad = np.zeros_like(arr) if requires_grad else None

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, trainable={self.grad is not None})"


# A backward rule receives the gradient flowing into its output plus a
# ``push(tensor, grad)`` callback used to hand gradients to the op's inputs.
BackwardRule = Callable[[np.ndarray, Callable[["Tensor", np.ndarray], None]], None]


class Tape:
    """Ordered record of operations for one forward pass.

    Used as a context manager::

        with Tape() as tape:
            out = matmul(x, w)
            ...
        tape.backward(loss)

    Records are appended in execution order, so the list is already
    topologically sorted; the backward pass walks it strictly in reverse.
    At most one tape is active at a time; nesting tapes is an error.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, BackwardRule]] = []

    def __enter__(self) -> "Tape":
        global _tape
        if _tape is not None:
            raise ContractError("a tape is already active")
        _tape = self
        return self

    def __exit__(self, *exc) -> None:
        global _tape
        _tape = None

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Add dLoss/dTensor into the ``grad`` of every trainable tensor.

        A gradient pushed into an op output flows on to that op's rule; one
        pushed into a trainable tensor is added in place into its ``grad``
        as it arrives; one pushed into any other tensor is dropped.
        Repeated calls accumulate further; callers reset grads between
        optimizer steps.
        """
        if loss.data.shape != (1, 1):
            raise ContractError(f"loss must be 1x1, got shape {loss.data.shape}")
        produced = {id(output) for output, _ in self._records}
        flowing: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}

        def push(t: Tensor, g: np.ndarray) -> None:
            if id(t) in produced:
                hit = flowing.get(id(t))
                flowing[id(t)] = g if hit is None else hit + g
            elif t.grad is not None:
                np.add(t.grad, g, out=t.grad)

        for output, rule in reversed(self._records):
            g = flowing.pop(id(output), None)
            if g is None:
                continue
            rule(g, push)


# The tape that records operations, if any; set by ``Tape.__enter__``.
_tape: Tape | None = None


def _record(out: Tensor, rule: BackwardRule) -> Tensor:
    if _tape is not None:
        _tape._records.append((out, rule))
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product a @ b; backward is g@b.T into a and a.T@g into b."""
    if a.cols != b.rows:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def rule(g, push, a=a, b=b):
        push(a, g @ b.data.T)
        push(b, a.data.T @ g)

    return _record(out, rule)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; a single-row operand broadcasts over the other's rows."""
    if a.shape != b.shape:
        if not (a.cols == b.cols and (a.rows == 1 or b.rows == 1)):
            raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not align")
    out = Tensor(a.data + b.data)

    def rule(g, push, a=a, b=b):
        ga = g.sum(axis=0, keepdims=True) if a.rows == 1 and g.shape[0] > 1 else g
        gb = g.sum(axis=0, keepdims=True) if b.rows == 1 and g.shape[0] > 1 else g
        push(a, ga)
        push(b, gb)

    return _record(out, rule)


def scale(x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data * c)

    def rule(g, push, x=x, c=c):
        push(x, g * c)

    return _record(out, rule)


def relu(x: Tensor) -> Tensor:
    """max(x, 0) that keeps NaN, so a diverged run reaches the loss as NaN."""
    out = Tensor(np.maximum(x.data, 0.0))

    def rule(g, push, x=x, a=x.data):
        push(x, g * (a > 0.0))

    return _record(out, rule)


def transpose(x: Tensor) -> Tensor:
    out = Tensor(x.data.T.copy())

    def rule(g, push, x=x):
        push(x, g.T)

    return _record(out, rule)


def softmax_rows(a: np.ndarray) -> np.ndarray:
    """Softmax over each row of a plain array, stabilised by per-row max
    subtraction; the forward of :func:`row_softmax`, with no tape record."""
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def row_softmax(x: Tensor) -> Tensor:
    """Softmax over each row; output rows sum to 1.

    Backward applies the softmax Jacobian-vector product row by row:
    dx = s * (g - sum(g * s, row)).
    """
    s = softmax_rows(x.data)
    out = Tensor(s)

    def rule(g, push, x=x, s=s):
        dot = (g * s).sum(axis=1, keepdims=True)
        push(x, s * (g - dot))

    return _record(out, rule)


def mean_rows(x: Tensor) -> Tensor:
    """Column-wise mean, a 1 x d row; the input must have at least one row."""
    if x.rows == 0:
        raise ShapeError(f"mean_rows: no rows to average, shape {x.shape}")
    out = Tensor(x.data.mean(axis=0, keepdims=True))

    def rule(g, push, x=x):
        push(x, np.repeat(g / x.rows, x.rows, axis=0))

    return _record(out, rule)


def sum_rows(x: Tensor) -> Tensor:
    """Column-wise sum, a 1 x d row, bit-identical to a sequential loop from zeros.

    numpy's axis-0 sum of a C-ordered array adds whole rows in order to
    the identity, +0.0, but it sums a single column, or contiguous columns,
    pairwise; ``cumsum`` is sequential there, and adding +0.0 turns its
    -0.0 into +0.0, as a loop from zeros does.
    """
    rows = x.data
    if rows.shape[0] == 0 or (rows.shape[1] > 1 and rows.flags.c_contiguous):
        out = Tensor(np.add.reduce(rows, axis=0))
    else:
        out = Tensor(np.cumsum(rows, axis=0)[-1] + 0.0)

    def rule(g, push, x=x):
        push(x, np.repeat(g, x.rows, axis=0))

    return _record(out, rule)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Zero entries with probability ``p`` and rescale survivors by 1/(1-p).

    Identity in eval mode or at p == 0; the caller owns the generator, so a
    fixed seed reproduces the mask sequence exactly.
    """
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = (rng.random(x.shape) >= p) / (1.0 - p)
    out = Tensor(x.data * keep)

    def rule(g, push, x=x, keep=keep):
        push(x, g * keep)

    return _record(out, rule)


def cross_entropy_with_logits(logits: Tensor, label: int) -> Tensor:
    """Cross-entropy of a 1 x C logit row: logsumexp(logits) - logits[label].

    Stable for extreme logits via max subtraction; backward is the classic
    softmax-minus-one-hot rule.
    """
    if logits.rows != 1:
        raise ShapeError(f"logits must be a single row, got {logits.shape}")
    if not 0 <= label < logits.cols:
        raise ContractError(f"label {label} outside [0, {logits.cols})")
    row = logits.data[0]
    m = row.max()
    lse = m + np.log(np.exp(row - m).sum())
    out = Tensor([[lse - row[label]]])

    def rule(g, push, logits=logits, label=label, row=row, m=m):
        s = np.exp(row - m)
        s /= s.sum()
        s[label] -= 1.0
        push(logits, g[0, 0] * s.reshape(1, -1))

    return _record(out, rule)
