"""Scalar reference implementations the tests check the engine against.

Each one evaluates a loss or a forward pass one sample at a time, apart from
the batched code paths in `dcil`, so the tests compare two independent
computations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from dcil.local_learner import AnchorSet, _kd_teacher_probs
from dcil.nncore import (
    EPS_LOG,
    ConfigError,
    InputError,
    NetSpec,
    ParamVector,
    _log_softmax,
    forward_batch,
    softmax_t,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ForwardResult:
    features: np.ndarray
    logits: np.ndarray


def zeros_params(spec: NetSpec) -> ParamVector:
    return ParamVector(np.zeros(spec.param_count), spec)


def forward(params: ParamVector, x: np.ndarray) -> ForwardResult:
    """Evaluate the net on a single input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or len(x) != params.spec.input_dim:
        raise InputError(f"expected {params.spec.input_dim}-dim input, got shape {x.shape}")
    feats, logits = forward_batch(params, x[None, :])
    return ForwardResult(feats[0], logits[0])


def kl_div(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) for two distributions; q is clamped at EPS_LOG before log."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise InputError(f"shape mismatch {p.shape} vs {q.shape}")
    qc = np.maximum(q, EPS_LOG)
    terms = np.where(p > 0, p * (np.log(np.maximum(p, EPS_LOG)) - np.log(qc)), 0.0)
    return float(terms.sum())


def cross_entropy(logits: np.ndarray, label: int) -> float:
    """Negative log softmax probability of `label`."""
    z = np.asarray(logits, dtype=np.float64)
    if not 0 <= label < len(z):
        raise InputError(f"label {label} out of range for {len(z)} classes")
    return float(-_log_softmax(z)[label])


def anchor_loss(
    params: ParamVector,
    old_params: ParamVector | None,
    anchors: AnchorSet,
    anchor_variant: str,
    temperature: float = 2.0,
) -> float:
    """Anchor regularization value; 0 (with a warning) on an empty anchor set."""
    if len(anchors) == 0:
        log.warning("anchor_loss called with an empty anchor set; returning 0")
        return 0.0
    ax, ay = anchors.stacked()
    _, logits = forward_batch(params, ax)
    if anchor_variant == "replay_ce":
        logp = _log_softmax(logits)
        return float(-logp[np.arange(len(ay)), ay].mean())
    if anchor_variant == "logit_kd":
        if old_params is None:
            raise InputError("logit_kd anchor loss needs the previous general model")
        teacher = _kd_teacher_probs(old_params, ax, params.spec.n_classes, temperature)
        student = softmax_t(logits, temperature)
        return float(
            np.mean([kl_div(teacher[i], student[i]) for i in range(len(ax))])
        )
    raise ConfigError(f"unknown anchor variant {anchor_variant!r}")


def fedmax_regularizer(features_batch: np.ndarray) -> float:
    """Mean KL between softmaxed activations and the uniform distribution."""
    f = np.asarray(features_batch, dtype=np.float64)
    p = softmax_t(f, 1.0)
    u = np.full(f.shape[1], 1.0 / f.shape[1])
    return float(np.mean([kl_div(p[i], u) for i in range(len(p))]))


def fedprox_term(params: ParamVector, global_params: ParamVector, mu: float) -> float:
    """(mu/2) * squared L2 distance to the distributed global model."""
    if params.spec != global_params.spec:
        raise InputError("fedprox_term: parameter specs differ")
    diff = params.values - global_params.values
    return 0.5 * mu * float(diff @ diff)


def distill_loss(
    params: ParamVector, teacher: np.ndarray, shared: np.ndarray, tau: float
) -> float:
    """Sum over the shared pool of KL(softened teacher || softened student)."""
    if len(shared) == 0:
        return 0.0
    p = softmax_t(teacher, tau)
    _, logits = forward_batch(params, shared)
    q = softmax_t(logits, tau)
    return float(sum(kl_div(p[i], q[i]) for i in range(len(p))))
