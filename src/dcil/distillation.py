"""Shared-dataset distillation and aggregation: the DCD and DAD stages.

The shared dataset is a small pool of unlabeled samples contributed by all
sites.  Local models publish logits tables over it; a weighted ensemble of
those tables acts as the teacher both for mutual fine-tuning of the local
models (DCD) and for refining the FedAvg-aggregated general model (DAD).
"""

from __future__ import annotations

import numpy as np

from .config import ConfigError
from .nncore import (
    CompositeLoss,
    DistillTerm,
    InputError,
    ParamVector,
    backward,
    fit,
    forward_batch,
    sgd_step,
    softmax_t,
)

DISTILL_FULL_BATCH_LIMIT = 256
DISTILL_BATCH = 128


def ensemble_weights(counts) -> np.ndarray:
    """Data-proportional weights N_m / N, for FedAvg and the ensemble teacher alike."""
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts < 0):
        raise InputError("sample counts must be nonnegative")
    total = counts.sum()
    if total <= 0:
        raise ConfigError("cannot weigh sites with all-zero sample counts")
    return counts / total


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
        raise ConfigError(f"per_class_count must be >= 0, got {per_class_count}")
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
    return forward_batch(params, shared)[1]


def ensemble_logits(tables: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
    """Weighted sum of the local logits tables (or, for FedAvg, parameter vectors)."""
    if len(tables) != len(weights):
        raise InputError(f"{len(tables)} tables but {len(weights)} weights")
    shape = tables[0].shape
    if any(t.shape != shape for t in tables):
        raise InputError("logits tables have mismatched shapes")
    rows = np.zeros(shape)
    for w, t in zip(weights, tables):
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
    large ones, which is what makes accuracy saturate in the pool size.  The
    teacher's `(pool rows, head)` shape and the temperature are checked and
    the teacher softened once, before `fit`, which checks `lr` and the pool's
    width; an empty pool or a zero learning rate returns a copy of the input.
    """
    n = len(shared)
    if np.shape(teacher) != (n, params.spec.n_classes):
        raise InputError("teacher table must have one row per pool sample over the full head")
    teacher_probs = softmax_t(teacher, tau)

    def step(params, sel, grad):
        term = DistillTerm(shared.take(sel, axis=0), teacher_probs.take(sel, axis=0), tau)
        backward(params, CompositeLoss((term,)), out=grad)
        sgd_step(params, grad, lr)

    batch = n if n <= DISTILL_FULL_BATCH_LIMIT else DISTILL_BATCH
    return fit(params, lr, shared, batch, epochs, seed, step)


def dcd_finetune(
    site_params: ParamVector,
    teacher: np.ndarray,
    shared: np.ndarray,
    tau1: float,
    lr: float,
    epochs: int,
    seed,
) -> ParamVector:
    """DCD: fine-tune one local model against the ensemble teacher (no labels)."""
    return _distill(site_params, teacher, shared, tau1, lr, epochs, seed)


def dad_refine(
    init_general: ParamVector,
    teacher: np.ndarray,
    shared: np.ndarray,
    tau2: float,
    lr: float,
    epochs: int,
    seed,
) -> ParamVector:
    """DAD: distill the post-DCD ensemble into the FedAvg-initialized general model."""
    return _distill(init_general, teacher, shared, tau2, lr, epochs, seed)


def fedavg_aggregate(param_list: list[ParamVector], weights: np.ndarray) -> ParamVector:
    """Elementwise weighted mean of local parameters; a run passes N_m / N, the teacher's."""
    if not param_list:
        raise InputError("no parameters to aggregate")
    spec = param_list[0].spec
    if any(p.spec != spec for p in param_list):
        raise InputError("cannot aggregate parameters with different specs")
    mean = ensemble_logits([p.values for p in param_list], weights)
    if all(np.array_equal(p.values, param_list[0].values) for p in param_list[1:]):
        # identical inputs average to themselves; return them so the result
        # is bit-exact rather than within rounding error
        return param_list[0].copy()
    return ParamVector(mean, spec)
