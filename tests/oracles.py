"""Reference implementations the tests check the engine against.

The scalar oracles evaluate a loss or a forward pass one sample at a time,
apart from the batched code paths in `dcil`, so the tests compare two
independent computations.

The `plain_*` oracles are the engine's training step in its plain NumPy
spelling: `@` products, `.sum`/`.max` reductions, an out-of-place softmax
per term slice and fancy-index batch gathers, with one softened-target
gradient for cross-entropy and distillation alike, and one forward pass and
one backprop over all of a loss's soft-target rows.  `nncore` and the step
closures reach the same operations through cheaper entry points (`ndarray.dot`,
`np.add.reduce`, in-place ufuncs, `take`), in the same order, and must give
the same bytes.  `plain_init_params` and `plain_expand_head` build a model
from separate per-layer arrays, concatenated; `nncore` writes the same values
into a zero vector's layer views, and must give the same bytes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from dcil.distillation import DISTILL_BATCH, DISTILL_FULL_BATCH_LIMIT
from dcil.local_learner import LocalLossConfig, _kd_teacher_probs
from dcil.nncore import (
    CompositeLoss,
    ConfigError,
    CrossEntropyTerm,
    DistillTerm,
    InputError,
    NetSpec,
    ParamVector,
    ProximalTerm,
    UniformActivationTerm,
    backward,
    fit,
    forward_batch,
    one_hot,
    softmax_t,
)

log = logging.getLogger(__name__)

EPS_LOG = 1e-12


@dataclass(frozen=True)
class ForwardResult:
    features: np.ndarray
    logits: np.ndarray


def zeros_params(spec: NetSpec) -> ParamVector:
    return ParamVector(np.zeros(spec.param_count), spec)


def gradient(params: ParamVector, loss: CompositeLoss) -> ParamVector:
    """`nncore.backward` into a fresh gradient vector, so no later call overwrites it."""
    return backward(params, loss, out=zeros_params(params.spec))


def plain_pack_layers(layers, spec: NetSpec) -> ParamVector:
    """Concatenate per-layer `(W, b)` arrays into one flat vector, W before b."""
    flat = np.concatenate([np.concatenate([w.ravel(), b.ravel()]) for w, b in layers])
    return ParamVector(flat, spec)


def plain_init_params(spec: NetSpec, rng: np.random.Generator) -> ParamVector:
    """`nncore.init_params` as separate per-layer arrays, concatenated."""
    dims = spec.layer_dims
    layers = []
    for i in range(len(dims) - 1):
        bound = 1.0 / math.sqrt(dims[i])
        w = rng.uniform(-bound, bound, size=(dims[i], dims[i + 1]))
        b = rng.uniform(-bound, bound, size=dims[i + 1])
        layers.append((w, b))
    return plain_pack_layers(layers, spec)


def plain_expand_head(params: ParamVector, n_new: int) -> ParamVector:
    """`nncore.expand_head` as the old output layer and zero columns, concatenated."""
    layers = params.layers()
    w_out, b_out = layers[-1]
    w_new = np.concatenate([w_out, np.zeros((w_out.shape[0], n_new))], axis=1)
    b_new = np.concatenate([b_out, np.zeros(n_new)])
    spec = replace(params.spec, n_classes=params.spec.n_classes + n_new)
    return plain_pack_layers([*layers[:-1], (w_new, b_new)], spec)


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
    return float(-plain_log_softmax(z)[label])


def anchor_loss(
    params: ParamVector,
    old_params: ParamVector | None,
    anchors: tuple[np.ndarray, np.ndarray],
    anchor_variant: str,
    temperature: float = 2.0,
) -> float:
    """Anchor regularization value over an `(x, y)` pair; 0 (with a warning) when empty."""
    ax, ay = anchors
    if len(ax) == 0:
        log.warning("anchor_loss called with an empty anchor set; returning 0")
        return 0.0
    _, logits = forward_batch(params, ax)
    if anchor_variant == "replay_ce":
        logp = plain_log_softmax(logits)
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
    """Mean KL between the uniform distribution and softmaxed activations,
    over the feature width d: FedMAX's KL(U || softmax(a)) under an elementwise mean."""
    f = np.asarray(features_batch, dtype=np.float64)
    p = softmax_t(f, 1.0)
    d = f.shape[1]
    u = np.full(d, 1.0 / d)
    return float(np.mean([kl_div(u, p[i]) for i in range(len(p))])) / d


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


def loss_value(params: ParamVector, loss: CompositeLoss) -> float:
    """Total value of the loss whose gradient `nncore.backward` returns, summed in term order.

    An `UniformActivationTerm` averages over the rows of the loss's
    cross-entropy and distillation terms, and is 0 when there are none.
    """
    total = 0.0
    for term in loss.terms:
        if isinstance(term, ProximalTerm):
            diff = params.values - term.ref.values
            total += 0.5 * term.mu * float(diff @ diff)
            continue
        if isinstance(term, UniformActivationTerm):
            xs = [t.x for t in loss.terms if isinstance(t, DistillTerm)]
            if xs:
                feats, _ = forward_batch(params, np.concatenate(xs))
                # KL(U || p) = -log d - mean_j log p_j for each row, over d
                d = feats.shape[1]
                kl = -math.log(d) - plain_log_softmax(feats).mean(axis=1)
                total += term.weight * float(kl.mean()) / d
            continue
        _, logits = forward_batch(params, term.x)
        n = logits.shape[0]
        if isinstance(term, CrossEntropyTerm):
            y = np.argmax(term.targets, axis=1)
            logp = plain_log_softmax(logits)
            total += term.weight * float(-logp[np.arange(n), y].mean())
        elif isinstance(term, DistillTerm):
            p = np.asarray(term.targets, dtype=np.float64)
            q = softmax_t(logits, term.temperature)
            qc = np.maximum(q, EPS_LOG)
            val = float(
                np.where(p > 0, p * (np.log(np.maximum(p, EPS_LOG)) - np.log(qc)), 0.0).sum()
            )
            total += term.weight * val / n
        else:
            raise InputError(f"unknown loss term {type(term).__name__}")
    return total


# ---------------------------------------------------------------------------
# The training step in its plain NumPy spelling
# ---------------------------------------------------------------------------


def plain_act(z: np.ndarray, kind: str) -> np.ndarray:
    return np.maximum(z, 0.0) if kind == "relu" else np.tanh(z)


def plain_act_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return z > 0.0
    t = np.tanh(z)
    return 1.0 - t * t


def plain_forward_cache(layers, kind: str, x: np.ndarray):
    """(hs, zs, logits): the inputs and pre-activations of each layer, and the logits."""
    hs, zs = [x], []
    h = x
    for w, b in layers[:-1]:
        z = h @ w
        z += b
        zs.append(z)
        h = plain_act(z, kind)
        hs.append(h)
    w_out, b_out = layers[-1]
    logits = h @ w_out
    logits += b_out
    return hs, zs, logits


def plain_forward_batch(params: ParamVector, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.spec.input_dim:
        raise InputError(
            f"expected batch of {params.spec.input_dim}-dim inputs, got shape {x.shape}"
        )
    hs, _, logits = plain_forward_cache(params.layers(), params.spec.activation, x)
    return hs[-1], logits


def plain_softmax_t(logits: np.ndarray, tau: float) -> np.ndarray:
    """The arithmetic of `softmax_t`, without its scan for non-finite logits."""
    if tau <= 0:
        raise ConfigError(f"temperature must be > 0, got {tau}")
    z = np.asarray(logits, dtype=np.float64) / tau
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def plain_log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def plain_backprop(spec: NetSpec, layers, hs, zs, d_logits, d_features, grads):
    gw, gb = grads[-1]
    np.matmul(hs[-1].T, d_logits, out=gw)
    d_logits.sum(axis=0, out=gb)
    if len(layers) == 1:
        return
    delta = d_logits @ layers[-1][0].T
    if d_features is not None:
        delta += d_features
    for i in range(len(layers) - 2, -1, -1):
        delta *= plain_act_grad(zs[i], spec.activation)
        gw, gb = grads[i]
        np.matmul(hs[i].T, delta, out=gw)
        delta.sum(axis=0, out=gb)
        if i:
            delta = delta @ layers[i][0].T


def plain_backward(
    params: ParamVector, loss: CompositeLoss, out: ParamVector | None = None
) -> ParamVector:
    """The one-pass rule: the rows of the loss's soft-target terms, concatenated
    in term order, go through one forward pass; each term's slice of the logits
    gives (softmax(z / τ) - targets) * (weight * (1/n) / τ); the activation
    penalty joins at the features of all those rows; one backprop writes the
    gradient into `out` (a fresh zero vector by default), and each proximal
    pull is added after it, in term order."""
    spec = params.spec
    if out is None:
        out = zeros_params(spec)
    elif out.spec != spec:
        raise InputError("gradient spec does not match parameters")
    layers = params.layers()
    grad = out.values
    # cross-entropy is the distillation term at temperature 1 toward one-hot rows
    rowed = [t for t in loss.terms if isinstance(t, DistillTerm)]
    if rowed:
        x = np.concatenate([np.asarray(t.x, dtype=np.float64) for t in rowed])
        hs, zs, logits = plain_forward_cache(layers, spec.activation, x)
        slices, start = [], 0
        for t in rowed:
            n = len(t.x)
            if n == 0:
                raise InputError("empty batch in loss term")
            z = logits[start : start + n]
            p = np.asarray(t.targets, dtype=np.float64)
            if p.shape != z.shape:
                raise InputError("target table shape mismatch")
            q = plain_softmax_t(z, t.temperature)
            slices.append((q - p) * (t.weight * (1.0 / n) / t.temperature))
            start += n
        d_logits = np.concatenate(slices)
        beta = sum(t.weight for t in loss.terms if isinstance(t, UniformActivationTerm))
        d_features = None
        if beta:
            # the activation penalty at every row's features, beta / rows per row
            d = hs[-1].shape[1]
            d_features = (plain_softmax_t(hs[-1], 1.0) - 1.0 / d) * (beta / len(x) / d)
        plain_backprop(spec, layers, hs, zs, d_logits, d_features, out.layers())
    else:
        grad.fill(0.0)
    for t in loss.terms:
        if isinstance(t, ProximalTerm):
            if t.ref.spec != spec:
                raise InputError("proximal reference has a different spec")
            grad += t.mu * (params.values - t.ref.values)
    return out


def plain_sgd_step(params: ParamVector, grad: ParamVector, lr: float) -> ParamVector:
    if lr <= 0:
        raise ConfigError(f"learning rate must be > 0, got {lr}")
    if grad.spec != params.spec:
        raise InputError("gradient spec does not match parameters")
    params.values -= lr * grad.values
    return params


def plain_train_plain(params, x, y, epochs, lr, batch_size, seed):
    """The training of `orchestrator._train_fresh`, from the initialized
    `params`, on the plain step."""
    targets = one_hot(y, params.spec.n_classes)

    def step(params, sel, grad):
        loss = CompositeLoss((CrossEntropyTerm(x[sel], targets[sel]),))
        plain_backward(params, loss, out=grad)
        plain_sgd_step(params, grad, lr)

    return fit(params, lr, x, batch_size, epochs, seed, step)


def plain_local_update(
    shard, anchors, general: ParamVector, cfg: LocalLossConfig, *, old_general, seed
) -> ParamVector:
    """`local_learner.local_update` on the plain step."""
    shard_x, shard_y = shard
    if len(shard_x) == 0:
        return general.copy()
    stream_x = np.concatenate([shard_x, anchors[0]])
    stream_y = np.concatenate([shard_y, anchors[1]])
    targets = one_hot(stream_y, general.spec.n_classes)
    n_new = len(shard_x)
    ax, at = stream_x[n_new:], targets[n_new:]

    teacher_probs = None
    if len(ax) and cfg.lam > 0 and cfg.anchor_variant == "logit_kd":
        _, old_logits = plain_forward_batch(old_general, ax)
        probs = plain_softmax_t(old_logits, cfg.anchor_temperature)
        pad = np.zeros((len(ax), general.spec.n_classes - old_general.spec.n_classes))
        teacher_probs = np.concatenate([probs, pad], axis=1)

    def step(params, batch, grad):
        is_new = batch < n_new
        new_sel = batch[is_new]
        anc_sel = batch[~is_new] - n_new
        terms: list = []
        if len(new_sel):
            terms.append(CrossEntropyTerm(stream_x[new_sel], targets[new_sel]))
        if len(anc_sel) and cfg.lam > 0:
            if cfg.anchor_variant == "replay_ce":
                terms.append(CrossEntropyTerm(ax[anc_sel], at[anc_sel], weight=cfg.lam))
            else:
                terms.append(
                    DistillTerm(
                        ax[anc_sel], teacher_probs[anc_sel], cfg.anchor_temperature,
                        weight=cfg.lam,
                    )
                )
        if cfg.beta > 0:
            terms.append(UniformActivationTerm(cfg.beta))
        if cfg.mu > 0:
            terms.append(ProximalTerm(general, cfg.mu))
        if terms:
            plain_backward(params, CompositeLoss(tuple(terms)), out=grad)
            plain_sgd_step(params, grad, cfg.lr)

    return fit(general, cfg.lr, stream_x, cfg.batch_size, cfg.local_epochs, seed, step)


def plain_distill(params, teacher, shared, tau, lr, epochs, seed) -> ParamVector:
    """`distillation._distill` on the plain step."""
    n = len(shared)
    teacher_probs = None

    def step(params, sel, grad):
        nonlocal teacher_probs
        if teacher_probs is None:
            if len(teacher) != n:
                raise InputError("teacher row count must match the shared pool")
            teacher_probs = plain_softmax_t(teacher, tau)
        term = DistillTerm(shared[sel], teacher_probs[sel], tau)
        plain_backward(params, CompositeLoss((term,)), out=grad)
        plain_sgd_step(params, grad, lr)

    batch = n if n <= DISTILL_FULL_BATCH_LIMIT else DISTILL_BATCH
    return fit(params, lr, shared, batch, epochs, seed, step)
