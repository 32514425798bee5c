"""Adam optimisation, the epoch loop, and k-fold cross-validation.

Batching averages per-graph gradients (graphs vary in size, so there is no
padded batching); accumulation runs in ascending graph-index order inside
each batch, which keeps results bit-deterministic. Every random choice
descends from the master seed through named seed sequences, so a (dataset,
seeds, configs) triple fully determines every reported number.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Dataset, make_folds
from .errors import ContractError
from .model import ModelConfig, ModelParams, forward, loss, predict
from .tensor import Tape

# Adam's moment decay rates and denominator guard (Kingma & Ba defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    lr: float = 1e-3
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    folds: int = 10
    repeats: int = 10

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ContractError(f"learning rate must be positive and finite, got {self.lr}")
        if self.epochs < 1:
            raise ContractError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ContractError(f"batch size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        if self.folds < 2:
            raise ContractError(f"fold count must be >= 2, got {self.folds}")
        if self.repeats < 1:
            raise ContractError(f"repeats must be >= 1, got {self.repeats}")

    def to_dict(self) -> dict:
        return asdict(self)


class AdamState:
    """First/second moments of every parameter entry, a scratch vector the
    size of ``ModelParams.data``, and the shared step counter."""

    def __init__(self, size: int):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.scratch = np.empty(size)
        self.t = 0


def adam_step(params: ModelParams, state: AdamState, config: TrainConfig) -> None:
    """One bias-corrected Adam update of ``params.data`` from ``params.grad``,
    in-place ufuncs in the order of ``data - lr * (m / bias1) / (sqrt(v /
    bias2) + eps)``; an entry no gradient has reached moves by exactly +0.0.
    ``params.grad`` is overwritten as a temporary."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1**state.t
    bias2 = 1.0 - b2**state.t
    m, v, tmp, g = state.m, state.v, state.scratch, params.grad
    np.multiply(g, 1.0 - b1, out=tmp)
    m *= b1
    m += tmp
    np.multiply(g, 1.0 - b2, out=tmp)
    tmp *= g
    v *= b2
    v += tmp
    np.divide(m, bias1, out=tmp)
    tmp *= config.lr
    np.divide(v, bias2, out=g)
    np.sqrt(g, out=g)
    g += ADAM_EPS
    tmp /= g
    params.data -= tmp


def evaluate(dataset: Dataset, indices: list[int], params: ModelParams) -> tuple[float, float]:
    """Mean eval-mode loss and accuracy over the given graph indices."""
    if not indices:
        return 0.0, 0.0
    total, correct = 0.0, 0
    for i in indices:
        g = dataset.graphs[i]
        logits, _ = forward(g, params, training=False)
        total += loss(logits, g.label).item()
        correct += int(predict(logits) == g.label)
    return total / len(indices), correct / len(indices)


@dataclass
class FoldResult:
    repeat: int
    fold: int
    final_accuracy: float
    best_accuracy: float
    curve: list[dict] = field(repr=False, default_factory=list)
    params: ModelParams | None = field(repr=False, default=None)

    def to_dict(self) -> dict:
        return {
            "repeat": self.repeat,
            "fold": self.fold,
            "final_accuracy": self.final_accuracy,
            "best_accuracy": self.best_accuracy,
        }


def train_graphs(
    dataset: Dataset,
    train_idx: list[int],
    test_idx: list[int],
    model_config: ModelConfig,
    train_config: TrainConfig,
    repeat: int = 0,
    fold: int = 0,
) -> FoldResult:
    """Train on ``train_idx`` and evaluate on ``test_idx`` every epoch.

    The fold result is the final-epoch test accuracy; picking the best
    epoch against the test fold would leak, so the peak is only reported.
    """
    init_seed, shuffle_seed, drop_seed = (
        s.generate_state(1)[0]
        for s in np.random.SeedSequence((train_config.seed, repeat, fold)).spawn(3)
    )
    params = ModelParams(model_config, seed=int(init_seed))
    state = AdamState(params.data.size)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    dropout_rng = np.random.default_rng(drop_seed)

    curve: list[dict] = []
    best_acc, final_acc = 0.0, 0.0
    for epoch in range(1, train_config.epochs + 1):
        order = [train_idx[i] for i in shuffle_rng.permutation(len(train_idx))]
        epoch_losses: list[float] = []
        epoch_correct = 0
        for start in range(0, len(order), train_config.batch_size):
            batch = sorted(order[start : start + train_config.batch_size])
            for i in batch:
                g = dataset.graphs[i]
                with Tape() as tape:
                    logits, _ = forward(g, params, training=True, rng=dropout_rng)
                    objective = loss(logits, g.label)
                value = objective.item()
                if not math.isfinite(value):
                    raise ContractError(
                        f"non-finite training loss {value} at epoch {epoch}, graph {i}"
                    )
                tape.backward(objective)
                epoch_losses.append(value)
                epoch_correct += int(predict(logits) == g.label)
            if not np.isfinite(params.grad).all():
                bad = next(n for n, t in params.named().items() if not np.isfinite(t.grad).all())
                raise ContractError(f"non-finite gradient of {bad} at epoch {epoch}, graphs {batch}")
            params.grad /= len(batch)
            adam_step(params, state, train_config)
            params.zero_grad()

        train_loss = float(np.mean(epoch_losses)) if epoch_losses else 0.0
        train_acc = epoch_correct / len(order) if order else 0.0
        test_loss, test_acc = evaluate(dataset, test_idx, params)
        curve.append(
            {"epoch": epoch, "split": "train", "loss": train_loss, "accuracy": train_acc}
        )
        curve.append(
            {"epoch": epoch, "split": "test", "loss": test_loss, "accuracy": test_acc}
        )
        best_acc = max(best_acc, test_acc)
        final_acc = test_acc
    return FoldResult(
        repeat=repeat,
        fold=fold,
        final_accuracy=final_acc,
        best_accuracy=best_acc,
        curve=curve,
        params=params,
    )


@dataclass
class RunReport:
    dataset: str
    model_config: ModelConfig
    train_config: TrainConfig
    results: list[FoldResult]
    mean_accuracy: float
    std_error: float
    curve: list[dict]

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "model_config": self.model_config.to_dict(),
            "train_config": self.train_config.to_dict(),
            "results": [r.to_dict() for r in self.results],
            "mean_accuracy": self.mean_accuracy,
            "std_error": self.std_error,
            "curve": self.curve,
        }


def mean_and_std_error(values: list[float]) -> tuple[float, float]:
    """Sample mean and standard error (sample std over sqrt(n))."""
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / np.sqrt(arr.size))


def _mean_curve(results: list[FoldResult]) -> list[dict]:
    """Per-epoch average of the fold curves, one train and one test row each;
    every fold curve lists the same (epoch, split) rows in the same order."""
    curve = []
    for rows in zip(*(r.curve for r in results)):
        mean = dict(rows[0])
        for key in ("loss", "accuracy"):
            mean[key] = float(np.mean([row[key] for row in rows]))
        curve.append(mean)
    return curve


def cross_validate(
    dataset: Dataset, model_config: ModelConfig, train_config: TrainConfig
) -> RunReport:
    """folds x repeats training runs; each repeat reshuffles the folds."""
    results: list[FoldResult] = []
    for repeat in range(train_config.repeats):
        fold_seed = int(np.random.SeedSequence((train_config.seed, repeat)).generate_state(1)[0])
        plan = make_folds(dataset, train_config.folds, seed=fold_seed)
        for fold in range(train_config.folds):
            result = train_graphs(
                dataset,
                plan.train_indices(fold),
                plan.test_indices(fold),
                model_config,
                train_config,
                repeat=repeat,
                fold=fold,
            )
            result.params = None  # keep reports light; checkpoints are separate
            results.append(result)
    mean, se = mean_and_std_error([r.final_accuracy for r in results])
    return RunReport(
        dataset=dataset.name,
        model_config=model_config,
        train_config=train_config,
        results=results,
        mean_accuracy=mean,
        std_error=se,
        curve=_mean_curve(results),
    )


METHOD_VARIANTS = {
    "sshpool": {"variant": "sshpool", "attention_enabled": True},
    "sshpool_non": {"variant": "sshpool", "attention_enabled": False},
    "diffpool": {"variant": "diffpool", "attention_enabled": False},
    "global_sum": {"variant": "global_sum", "attention_enabled": False},
    "global_mean": {"variant": "global_mean", "attention_enabled": False},
}
