"""Shared-dataset distillation and aggregation: the DCD and DAD stages.

The shared dataset is a small pool of unlabeled samples contributed by all
sites.  Local models publish logits tables over it; a weighted ensemble of
those tables acts as the teacher both for mutual fine-tuning of the local
models (DCD) and for refining the FedAvg-aggregated general model (DAD).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nncore import (
    CompositeLoss,
    ConfigError,
    DistillTerm,
    InputError,
    ParamVector,
    ParameterError,
    backward,
    forward_batch,
    minibatches,
    sgd_step,
    softmax_t,
)

DISTILL_FULL_BATCH_LIMIT = 256
DISTILL_BATCH = 128


@dataclass
class EnsembleWeights:
    omega: np.ndarray

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=np.float64)
        if np.any(self.omega < 0):
            raise InputError("ensemble weights must be nonnegative")
        if abs(self.omega.sum() - 1.0) > 1e-12:
            raise InputError(f"ensemble weights sum to {self.omega.sum()}, not 1")

    @classmethod
    def from_counts(cls, counts) -> "EnsembleWeights":
        """Data-proportional weights; uniform when no site holds any data."""
        counts = np.asarray(counts, dtype=np.float64)
        total = counts.sum()
        if total <= 0:
            return cls(np.full(len(counts), 1.0 / len(counts)))
        return cls(counts / total)


def build_shared_dataset(
    shards: list[tuple[np.ndarray, np.ndarray]],
    per_class_count: int,
    classes,
    seed,
) -> np.ndarray:
    """Draw `per_class_count` unlabeled samples per new class across sites.

    Samples are drawn seeded from the pooled holdings of each class, so the
    draw is proportional to holdings; labels are discarded here and never
    stored.  Classes with fewer samples contribute all they have.  Returns
    the `(n, dim)` sample array.
    """
    if per_class_count < 0:
        raise ParameterError(f"per_class_count must be >= 0, got {per_class_count}")
    rng = np.random.default_rng(seed)
    dim = shards[0][0].shape[1] if shards and shards[0][0].ndim == 2 else 0
    samples = []
    for c in sorted(int(v) for v in classes):
        pool_x = [sx[sy == c] for sx, sy in shards if np.any(sy == c)]
        if not pool_x or per_class_count == 0:
            continue
        pool_x = np.concatenate(pool_x)
        n_take = min(per_class_count, len(pool_x))
        take = np.sort(rng.choice(len(pool_x), size=n_take, replace=False))
        samples.append(pool_x[take])
    return np.concatenate(samples) if samples else np.empty((0, dim))


def compute_logits_table(params: ParamVector, shared: np.ndarray) -> np.ndarray:
    """Pre-softmax outputs of one model over the shared pool, one row per sample."""
    if len(shared) == 0:
        return np.empty((0, params.spec.n_classes))
    return forward_batch(params, shared)[1]


def ensemble_logits(tables: list[np.ndarray], weights: EnsembleWeights) -> np.ndarray:
    """Rowwise weighted sum of the local logits tables."""
    if len(tables) != len(weights.omega):
        raise InputError(f"{len(tables)} tables but {len(weights.omega)} weights")
    shape = tables[0].shape
    if any(t.shape != shape for t in tables):
        raise InputError("logits tables have mismatched shapes")
    rows = np.zeros(shape)
    for w, t in zip(weights.omega, tables):
        rows += w * t
    return rows


def _distill(
    params: ParamVector,
    teacher: np.ndarray,
    shared: np.ndarray,
    tau: float,
    lr: float,
    epochs: int,
    seed,
) -> ParamVector:
    """Seeded minibatch descent on the distillation loss over the shared pool.

    Steps use the mean per-sample gradient so the step size does not scale
    with the pool size; small pools then get the same per-sample pull as
    large ones, which is what makes accuracy saturate in the pool size.  An
    empty pool or a zero learning rate returns the input parameters unchanged.
    """
    if len(shared) == 0 or lr == 0:
        return params.copy()
    if len(teacher) != len(shared):
        raise InputError("teacher row count must match the shared pool")
    if tau <= 0:
        raise ParameterError(f"temperature must be > 0, got {tau}")
    teacher_probs = softmax_t(teacher, tau)
    n = len(shared)
    batch = n if n <= DISTILL_FULL_BATCH_LIMIT else DISTILL_BATCH
    out = params.copy()
    for sel in minibatches(np.random.default_rng(seed), n, batch, epochs):
        term = DistillTerm(shared[sel], teacher_probs[sel], tau, reduction="mean")
        _, grad = backward(out, CompositeLoss((term,)))
        out = sgd_step(out, grad, lr)
    return out


def dcd_finetune(
    site_params: ParamVector,
    teacher: np.ndarray,
    shared: np.ndarray,
    tau1: float = 5.0,
    lr: float = 1e-4,
    epochs: int = 5,
    seed=0,
) -> ParamVector:
    """DCD: fine-tune one local model against the ensemble teacher (no labels)."""
    return _distill(site_params, teacher, shared, tau1, lr, epochs, seed)


def dad_refine(
    init_general: ParamVector,
    teacher: np.ndarray,
    shared: np.ndarray,
    tau2: float = 5.0,
    lr: float = 1e-4,
    epochs: int = 5,
    seed=0,
) -> ParamVector:
    """DAD: distill the post-DCD ensemble into the FedAvg-initialized general model."""
    return _distill(init_general, teacher, shared, tau2, lr, epochs, seed)


def fedavg_aggregate(param_list: list[ParamVector], sample_counts) -> ParamVector:
    """Elementwise weighted mean of local parameters with weights N_m / N."""
    if not param_list:
        raise InputError("no parameters to aggregate")
    spec = param_list[0].spec
    if any(p.spec != spec for p in param_list):
        raise InputError("cannot aggregate parameters with different specs")
    counts = np.asarray(sample_counts, dtype=np.float64)
    if len(counts) != len(param_list):
        raise InputError("one sample count per model is required")
    if np.any(counts < 0):
        raise InputError("sample counts must be nonnegative")
    total = counts.sum()
    if total <= 0:
        raise ConfigError("cannot aggregate with all-zero sample counts")
    if all(np.array_equal(p.values, param_list[0].values) for p in param_list[1:]):
        # identical inputs average to themselves; skip the weighted sum so
        # the result is bit-exact rather than within rounding error
        return param_list[0].copy()
    acc = np.zeros(spec.param_count)
    for c, p in zip(counts, param_list):
        acc += (c / total) * p.values
    return ParamVector(acc, spec)
