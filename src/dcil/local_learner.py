"""Per-site incremental training: composite local losses, herding anchors.

Each site trains its copy of the general model on its private shard plus a
small anchor set of old-class examples.  The anchor loss comes in two
flavors: plain replay cross-entropy, or distillation of the previous general
model's softened old-class outputs (the classic temperature-2 convention).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nncore import (
    CompositeLoss,
    ConfigError,
    CrossEntropyTerm,
    DistillTerm,
    InputError,
    ParamVector,
    ParameterError,
    ProximalTerm,
    UniformActivationTerm,
    backward,
    forward_batch,
    minibatches,
    sgd_step,
    softmax_t,
)

VARIANTS = ("dcid", "fedavg", "fedmax", "fedprox")
ANCHOR_VARIANTS = ("replay_ce", "logit_kd")


@dataclass
class AnchorSet:
    """Per-class anchor examples, ordered by herding selection rank."""

    per_class: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def classes(self) -> tuple[int, ...]:
        return tuple(sorted(self.per_class))

    def __len__(self) -> int:
        return sum(len(v) for v in self.per_class.values())

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """All anchors as (x, y) arrays, class-sorted then rank-ordered."""
        if not self.per_class:
            return np.empty((0, 0)), np.empty(0, dtype=np.int64)
        xs, ys = [], []
        for c in self.classes:
            xs.append(self.per_class[c])
            ys.append(np.full(len(self.per_class[c]), c, dtype=np.int64))
        return np.concatenate(xs), np.concatenate(ys)


def update_anchor_set(prev: AnchorSet, new_anchors: AnchorSet) -> AnchorSet:
    """Union of two anchor sets over disjoint class sets; inputs untouched."""
    collision = set(prev.per_class) & set(new_anchors.per_class)
    if collision:
        raise InputError(f"anchor classes already present: {sorted(collision)}")
    merged = dict(prev.per_class)
    merged.update(new_anchors.per_class)
    return AnchorSet(merged)


@dataclass
class SiteState:
    """One local site: its private shard, anchors and seed stream."""

    site_id: int
    shard_x: np.ndarray
    shard_y: np.ndarray
    anchors: AnchorSet = field(default_factory=AnchorSet)
    seed: tuple[int, ...] = (0,)


@dataclass(frozen=True)
class LocalLossConfig:
    variant: str = "dcid"
    anchor_variant: str = "logit_kd"
    lam: float = 5.0
    mu: float = 0.2
    beta: float = 500.0
    lr: float = 0.05
    local_epochs: int = 11
    batch_size: int = 32
    anchor_temperature: float = 2.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.anchor_variant not in ANCHOR_VARIANTS:
            raise ConfigError(f"unknown anchor variant {self.anchor_variant!r}")
        if self.lam < 0 or self.mu < 0 or self.beta < 0:
            raise ConfigError("loss weights must be nonnegative")
        if self.local_epochs < 1 or self.batch_size < 1:
            raise ConfigError("local_epochs and batch_size must be >= 1")
        if self.lr < 0:
            raise ConfigError(f"learning rate must be >= 0, got {self.lr}")


def select_anchors_herding(params: ParamVector, class_examples: np.ndarray, k_max: int):
    """Greedy herding: pick examples whose running feature mean tracks the class mean.

    At step k the chosen example minimizes
    || mu - (phi(x) + sum of selected features) / k ||, ties broken by lowest
    example index.  Returns the ordered indices of the selected examples.
    """
    if len(class_examples) == 0:
        raise InputError("class_examples must be non-empty")
    if k_max < 1:
        raise ParameterError(f"k_max must be >= 1, got {k_max}")
    feats, _ = forward_batch(params, class_examples)
    mu = feats.mean(axis=0)
    n = len(feats)
    chosen: list[int] = []
    running = np.zeros_like(mu)
    available = np.ones(n, dtype=bool)
    for k in range(1, min(k_max, n) + 1):
        diff = mu - (feats + running) / k
        dist = np.linalg.norm(diff, axis=1)
        dist[~available] = np.inf
        # The row-norm reduces in another order than the scalar norm of one
        # row and can differ from it by a few ulps, enough to flip a near-tie.
        # The scalar norm decides among the candidates within 1e-9 of the
        # minimum; argmin takes the lowest index on a tie.
        near = np.flatnonzero(dist <= dist.min() * (1.0 + 1e-9))
        i = int(near[np.argmin([np.linalg.norm(diff[j]) for j in near])])
        chosen.append(i)
        available[i] = False
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
    if n_old == n_classes:
        return probs
    return np.concatenate([probs, np.zeros((len(x), n_classes - n_old))], axis=1)


def local_update(
    site: SiteState,
    general: ParamVector,
    cfg: LocalLossConfig,
    *,
    old_general: ParamVector | None = None,
    session: int = 0,
    round_idx: int = 0,
) -> ParamVector:
    """One site's training pass for a round: E epochs of seeded minibatch SGD.

    Anchors are appended to every epoch's data stream so each step sees the
    composite loss.  The distributed `general` model and `old_general`
    (previous session's model, possibly with a narrower head) are left
    untouched.  Returns the updated local parameters; an empty shard or a
    zero learning rate returns a copy of `general`.
    """
    if len(site.shard_x) == 0:
        return general.copy()
    rng = np.random.default_rng([*site.seed, session, round_idx])
    params = general.copy()

    ax, ay = site.anchors.stacked()
    n_new = len(site.shard_x)
    n_anchor = len(ax)
    stream_x = site.shard_x if n_anchor == 0 else np.concatenate([site.shard_x, ax])
    stream_y = site.shard_y if n_anchor == 0 else np.concatenate([site.shard_y, ay])

    teacher_probs = None
    if n_anchor and cfg.anchor_variant == "logit_kd":
        if old_general is None:
            raise InputError("logit_kd anchors need the previous general model")
        teacher_probs = _kd_teacher_probs(
            old_general, ax, general.spec.n_classes, cfg.anchor_temperature
        )
    if cfg.lr == 0:
        return params

    for batch in minibatches(rng, n_new + n_anchor, cfg.batch_size, cfg.local_epochs):
        new_sel = batch[batch < n_new]
        anc_sel = batch[batch >= n_new] - n_new
        terms: list = []
        if len(new_sel):
            terms.append(CrossEntropyTerm(stream_x[new_sel], stream_y[new_sel]))
        if len(anc_sel) and cfg.lam > 0:
            if cfg.anchor_variant == "replay_ce":
                terms.append(
                    CrossEntropyTerm(ax[anc_sel], ay[anc_sel], weight=cfg.lam)
                )
            else:
                terms.append(
                    DistillTerm(
                        ax[anc_sel],
                        teacher_probs[anc_sel],
                        cfg.anchor_temperature,
                        weight=cfg.lam,
                    )
                )
        if cfg.variant == "fedmax" and cfg.beta > 0:
            terms.append(UniformActivationTerm(stream_x[batch], cfg.beta))
        if cfg.variant == "fedprox" and cfg.mu > 0:
            terms.append(ProximalTerm(general, cfg.mu))
        if not terms:
            continue
        _, grad = backward(params, CompositeLoss(tuple(terms)))
        params = sgd_step(params, grad, cfg.lr)
    return params
