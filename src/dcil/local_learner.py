"""Per-site incremental training: composite local losses, herding anchors.

Each site trains its copy of the general model on its private shard plus a
small anchor set of old-class examples.  The anchor loss comes in two
flavors: plain replay cross-entropy, or distillation of the previous general
model's softened old-class outputs (the classic temperature-2 convention).
"""

from __future__ import annotations

import numpy as np

from .config import ConfigError, LocalLossConfig
from .nncore import (
    CompositeLoss,
    CrossEntropyTerm,
    DistillTerm,
    InputError,
    ParamVector,
    ProximalTerm,
    UniformActivationTerm,
    backward,
    fit,
    forward_batch,
    one_hot,
    sgd_step,
    softmax_t,
)


def select_anchors_herding(params: ParamVector, class_examples: np.ndarray, k_max: int):
    """Greedy herding: pick examples whose running feature mean tracks the class mean.

    At step k the chosen example is the lowest-index one among the unchosen
    examples at the smallest distance || mu - (phi(x) + sum of selected
    features) / k ||.  Returns the ordered indices of the selected examples.
    Overflow and invalid operations raise, as in `fit`: every distance is finite.
    """
    if len(class_examples) == 0:
        raise InputError("class_examples must be non-empty")
    if k_max < 1:
        raise ConfigError(f"k_max must be >= 1, got {k_max}")
    chosen: list[int] = []
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        feats, _ = forward_batch(params, class_examples)
        mu = feats.mean(axis=0)
        running = np.zeros_like(mu)
        for k in range(1, min(k_max, len(feats)) + 1):
            diff = mu - (feats + running) / k
            # each row's (1 x d)(d x 1) product runs the BLAS dot of
            # `np.dot(diff[j], diff[j])`, so each distance is that scalar norm
            dist = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None]).ravel())
            dist[chosen] = np.inf
            i = int(np.argmin(dist))
            chosen.append(i)
            running = running + feats[i]
    return chosen


def _kd_teacher_probs(
    old_params: ParamVector, x: np.ndarray, n_classes: int, temperature: float
) -> np.ndarray:
    """Softened old-model distribution over the current (possibly wider) head.

    The old model assigns zero probability to classes it has never seen, so
    its softened outputs are padded with exact zeros up to `n_classes`.
    Distilling against the full head is what keeps new-class logits from
    swamping old-class predictions on the anchors.
    """
    n_old = old_params.spec.n_classes
    if n_old > n_classes:
        raise InputError("old model head is wider than the current head")
    _, old_logits = forward_batch(old_params, x)
    probs = softmax_t(old_logits, temperature)
    return np.concatenate([probs, np.zeros((len(x), n_classes - n_old))], axis=1)


def local_update(
    shard: tuple[np.ndarray, np.ndarray],
    anchors: tuple[np.ndarray, np.ndarray],
    general: ParamVector,
    cfg: LocalLossConfig,
    old_general: ParamVector | None,
    seed,
) -> ParamVector:
    """One site's training pass for a round: E epochs of seeded minibatch SGD.

    The site's anchors, an `(x, y)` pair of herded rows like the shard, follow
    the shard in every epoch's data stream, as given, so each step sees the
    composite loss; a site with an empty shard trains on no row, its anchors
    included.  Each penalty whose weight in `cfg` is positive joins every
    step: the activation penalty (`beta`) over the rows of the step's other
    terms (the shard rows alone when `lam` is 0), and the proximal pull
    toward `general` (`mu`).  The distributed `general` model and
    `old_general` (previous session's model, possibly with a narrower head)
    are left untouched.  Returns the updated local parameters; no rows or a
    zero learning rate returns a copy of `general`.
    """
    shard_x, shard_y = shard
    n_new = len(shard_x)
    stream_x = np.concatenate([shard_x, anchors[0]]) if n_new else shard_x
    stream_y = np.concatenate([shard_y, anchors[1]]) if n_new else shard_y
    targets = one_hot(stream_y, general.spec.n_classes)
    ax, at = stream_x[n_new:], targets[n_new:]

    teacher_probs = None
    if len(ax) and cfg.lam > 0 and cfg.anchor_variant == "logit_kd":
        if old_general is None:
            raise InputError("logit_kd anchors need the previous general model")
        teacher_probs = _kd_teacher_probs(
            old_general, ax, general.spec.n_classes, cfg.anchor_temperature
        )

    # the penalty terms, the same at every step
    extra: list = []
    if cfg.beta > 0:
        extra.append(UniformActivationTerm(cfg.beta))
    if cfg.mu > 0:
        extra.append(ProximalTerm(general, cfg.mu))

    def step(params, batch, ws):
        is_new = batch < n_new
        new_sel = batch[is_new]
        anc_sel = batch[~is_new] - n_new
        terms: list = []
        if len(new_sel):
            new_x, new_t = stream_x.take(new_sel, axis=0), targets.take(new_sel, axis=0)
            terms.append(CrossEntropyTerm(new_x, new_t))
        if len(anc_sel) and cfg.lam > 0:
            anc_x = ax.take(anc_sel, axis=0)
            if cfg.anchor_variant == "replay_ce":
                terms.append(CrossEntropyTerm(anc_x, at.take(anc_sel, axis=0), weight=cfg.lam))
            else:
                anc_p = teacher_probs.take(anc_sel, axis=0)
                terms.append(DistillTerm(anc_x, anc_p, cfg.anchor_temperature, weight=cfg.lam))
        terms += extra
        if terms:
            grad = backward(params, CompositeLoss(tuple(terms)), out=ws)
            sgd_step(params, grad, cfg.lr)

    return fit(general, cfg.lr, stream_x, cfg.batch_size, cfg.local_epochs, seed, step)
