"""The generic differentiable ops the fused tape records are checked against.

``sshpool`` computes every stage as one hand-written tape record. These
op-by-op functions, each its own record, are the reference compositions:
the bit-for-bit tests run a fused record and the composition on the same
operands and require equal outputs and gradients, and the
finite-difference tests check each op's own backward rule. ``local_conv``
is one pooling layer's convolution and coarsening as its own record, the
per-layer reference for ``sshpool_stack``.
"""

import numpy as np

from sshpool.data import Edges
from sshpool.errors import ContractError, ShapeError
from sshpool.pooling import _leading_cols
from sshpool.tensor import Tensor, _record, softmax_rows


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


def first_cols(w: Tensor, c: int) -> Tensor:
    """The first c columns of ``w``, with a ``grad`` that is a view of ``w.grad``.

    Gradients pushed into the narrowed tensor land in the parent; its data
    is ``_leading_cols``' copy, so products keep the model's bits.
    """
    if c >= w.cols:
        return w
    view = Tensor(_leading_cols(w.data, c))
    view.grad = None if w.grad is None else w.grad[:, :c]
    return view


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


def local_conv(
    x: Tensor, a_mask: Edges, labels: np.ndarray, weights: np.ndarray, grads: np.ndarray
) -> Tensor:
    """Convolve every cluster and compress it to one coarse row, as one record.

    Z_u = ((A_mask + I) X)_u W_labels[u], with no degree normalisation and
    no activation, and coarse row j sums cluster j's rows of Z. ``a_mask``
    only joins nodes of one cluster, so that sum is s_j W_j, where s_j adds
    (1 + deg(v)) X_v over cluster j's nodes v in ascending order from +0.0
    and deg(v) is the weight of ``a_mask``'s column v. Row j is bit for bit
    ``s_j[None] @ weights[j]``, and an empty cluster has s_j = 0.
    Backward: dW_j = s_j^T g_j, added into ``grads[j]`` for occupied
    clusters only, and dX_v = (1 + deg(v)) g_labels[v] W_labels[v]^T.
    """
    c, d = weights.shape[0], x.cols
    scale = np.bincount(a_mask.src, weights=a_mask.weight, minlength=x.rows) + 1.0
    bins = labels[:, None] * d + np.arange(d)
    wx = scale[:, None] * x.data
    # Bin (j, k) adds column k of cluster j's rows in node order.
    s = np.bincount(bins.ravel(), weights=wx.ravel(), minlength=c * d).reshape(c, 1, d)
    out = Tensor((s @ weights).reshape(c, -1))

    def rule(g, push):
        occupied = np.bincount(labels, minlength=c) > 0
        grads[occupied] += s[occupied].transpose(0, 2, 1) * g[occupied, None, :]
        back = g[:, None, :] @ weights.transpose(0, 2, 1)
        push(x, scale[:, None] * back[labels, 0])

    return _record(out, rule)
