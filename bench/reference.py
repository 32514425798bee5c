"""Plain-numpy reference forward pass, written from the paper's equations.

It shares no code with ``sshpool``: it reads only the parameter values
(``ModelParams.named()``) and the config, and runs the separated-subgraph
layer as an explicit loop over clusters. The benchmark compares its logits
with ``model.forward`` on a fixed sample of graphs in every run.
"""

from __future__ import annotations

import numpy as np

# Logits agree when |model - reference| <= ATOL + RTOL * |reference|.
# Both sides are float64 and differ only in summation order, which moves
# results by a few ulps; 1e-9 leaves six orders of magnitude of headroom.
RTOL = 1e-9
ATOL = 1e-9


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _global_conv(a: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """ReLU(D^-1/2 (A + I) D^-1/2 X W)."""
    a_tilde = a + np.eye(a.shape[0])
    d = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    return np.maximum(d[:, None] * a_tilde * d[None, :] @ x @ w, 0.0)


def _sshpool_layer(a, x, w_assign, w_local, clusters, keep_self_loops):
    """Assign each node to its argmax cluster, convolve inside each cluster
    with that cluster's own weight, (A_j + I) X_j W_j, and sum each cluster's
    rows into one coarse node; the coarse adjacency is H^T A H."""
    n = x.shape[0]
    c = min(clusters, n)
    labels = _softmax_rows(x @ w_assign[:, :c]).argmax(axis=1)
    x_next = np.zeros((c, w_local[0].shape[1]))
    for j in range(c):
        ids = np.flatnonzero(labels == j)
        if ids.size:
            a_j = a[np.ix_(ids, ids)] + np.eye(ids.size)
            x_next[j] = (a_j @ x[ids] @ w_local[j]).sum(axis=0)
    hard = np.zeros((n, c))
    hard[np.arange(n), labels] = 1.0
    a_next = hard.T @ a @ hard
    if not keep_self_loops:
        np.fill_diagonal(a_next, 0.0)
    return a_next, x_next


def reference_logits(adjacency: np.ndarray, features: np.ndarray, params) -> np.ndarray:
    """Eval-mode logits (1 x classes) for the sshpool and global readout variants."""
    config = params.config
    p = {name: t.data for name, t in params.named().items()}
    a, x = adjacency, features
    for i in range(config.global_conv_layers):
        x = _global_conv(a, x, p[f"gconv.{i}.weight"])
    x0 = x
    if config.variant == "sshpool":
        for l, size in enumerate(config.layer_sizes):
            w_local = [p[f"pool.{l}.local.{j}"] for j in range(size)]
            a, x = _sshpool_layer(
                a, x, p[f"pool.{l}.assign"], w_local, size, config.keep_coarse_self_loops
            )
        pooled = x
    elif config.variant == "global_sum":
        pooled = x0.sum(axis=0, keepdims=True)
    elif config.variant == "global_mean":
        pooled = x0.mean(axis=0, keepdims=True)
    else:
        raise ValueError(f"no reference for variant {config.variant!r}")
    if config.attention_enabled:
        q = pooled @ p["attn.query"]
        k = x0 @ p["attn.key"]
        v = x0 @ p["attn.value"]
        pooled = _softmax_rows(q @ k.T / np.sqrt(x0.shape[1])) @ v
    h = pooled.mean(axis=0, keepdims=True)
    hidden = np.maximum(h @ p["mlp.hidden.weight"] + p["mlp.hidden.bias"], 0.0)
    return hidden @ p["mlp.out.weight"] + p["mlp.out.bias"]


def logits_agree(model: np.ndarray, reference: np.ndarray) -> bool:
    """True when shapes match and every logit is within the stated tolerance."""
    return model.shape == reference.shape and bool(
        np.all(np.abs(model - reference) <= ATOL + RTOL * np.abs(reference))
    )
