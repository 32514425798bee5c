"""Dense 2-D float64 matrices and the tape that differentiates them.

Every value in the model is a :class:`Tensor` wrapping a 2-D numpy array.
Each differentiable stage (global convolution, pooling, attention, the
classifier head, the readouts below and the loss) computes its output in
plain numpy and, while a :class:`Tape` is active, appends one record to
it: the output and a hand-written backward rule. ``Tape.backward``
replays the records in exact reverse recording order and adds each
gradient that reaches a trainable tensor, one whose ``grad`` is not None,
straight into that ``grad``. Without an active tape nothing is recorded,
which is how constants (adjacency matrices, frozen assignments) and
evaluation passes stay off the gradient path.
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
            logits, _ = forward(graph, params)
            objective = loss(logits, graph.label)
        tape.backward(objective)

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
        flowing: dict[int, np.ndarray] = {id(loss): np.array([[1.0]])}

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


def softmax_rows(a: np.ndarray) -> np.ndarray:
    """Softmax over each row of a plain array, stabilised by per-row max
    subtraction; it records nothing."""
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return e / np.add.reduce(e, axis=1, keepdims=True)


def mean_rows(x: Tensor) -> Tensor:
    """Column-wise mean, a 1 x d row; the input must have at least one row."""
    if x.rows == 0:
        raise ShapeError(f"mean_rows: no rows to average, shape {x.shape}")
    out = Tensor(np.add.reduce(x.data, axis=0, keepdims=True) / x.rows)

    def rule(g, push, x=x):
        push(x, (g / x.rows).repeat(x.rows, axis=0))

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
        push(x, g.repeat(x.rows, axis=0))

    return _record(out, rule)
