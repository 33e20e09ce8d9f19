"""Dense feed-forward network engine with exact analytic gradients.

Everything here operates on flat parameter vectors so that models can be
averaged, diffed and shipped around as plain arrays.  The engine supports a
small family of composable loss terms (classification, softened-distribution
distillation, a proximal pull toward a reference model, and an
activation-uniformity regularizer) whose gradients are all computed in one
backward pass per term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

EPS_LOG = 1e-12

ACTIVATIONS = ("relu", "tanh")


class InputError(ValueError):
    """Malformed input data (shape/range/finiteness)."""


class ParameterError(ValueError):
    """Invalid hyperparameter value."""


class ConfigError(ValueError):
    """Inconsistent configuration."""


@dataclass(frozen=True)
class NetSpec:
    """Architecture of one multilayer perceptron classifier."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    n_classes: int
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1:
            raise ParameterError(f"input_dim must be >= 1, got {self.input_dim}")
        if any(h < 1 for h in self.hidden_dims):
            raise ParameterError(f"hidden dims must be >= 1, got {self.hidden_dims}")
        if self.n_classes < 1:
            raise ParameterError(f"n_classes must be >= 1, got {self.n_classes}")
        if self.activation not in ACTIVATIONS:
            raise ParameterError(f"unknown activation {self.activation!r}")

    @cached_property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.n_classes)

    @property
    def feature_dim(self) -> int:
        """Width of the input to the final fully-connected layer."""
        return self.hidden_dims[-1] if self.hidden_dims else self.input_dim

    @cached_property
    def param_count(self) -> int:
        dims = self.layer_dims
        return sum((dims[i] + 1) * dims[i + 1] for i in range(len(dims) - 1))

    def with_classes(self, n_classes: int) -> "NetSpec":
        return NetSpec(self.input_dim, self.hidden_dims, n_classes, self.activation)


def _layer_views(flat: np.ndarray, dims) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per-layer (W, b) views into a flat buffer; W has shape (fan_in, fan_out)."""
    out, offset = [], 0
    for fi, fo in zip(dims[:-1], dims[1:]):
        w = flat[offset : offset + fi * fo].reshape(fi, fo)
        offset += fi * fo
        out.append((w, flat[offset : offset + fo]))
        offset += fo
    return tuple(out)


@dataclass
class ParamVector:
    """Flat parameters of one network; the unit of exchange and aggregation."""

    values: np.ndarray
    spec: NetSpec
    # (values array the views were built on, the views)
    _views: tuple = field(default=(None, ()), init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or len(self.values) != self.spec.param_count:
            raise InputError(
                f"expected {self.spec.param_count} parameters, got shape {self.values.shape}"
            )
        if not np.isfinite(self.values).all():
            raise InputError("parameter vector contains non-finite entries")

    def __getstate__(self):
        # pickle and deepcopy would turn the cached views into copies detached
        # from `values`; leave them out so the copy builds its own
        return {"values": self.values, "spec": self.spec}

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.spec)

    def layers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per-layer (W, b) views of `values`, built once per `values` array."""
        owner, views = self._views
        if owner is not self.values:
            views = _layer_views(self.values, self.spec.layer_dims)
            self._views = (self.values, views)
        return views


def pack_layers(layers, spec: NetSpec) -> ParamVector:
    flat = np.concatenate([np.concatenate([w.ravel(), b.ravel()]) for w, b in layers])
    return ParamVector(flat, spec)


def init_params(spec: NetSpec, rng: np.random.Generator) -> ParamVector:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer."""
    dims = spec.layer_dims
    layers = []
    for i in range(len(dims) - 1):
        bound = 1.0 / math.sqrt(dims[i])
        w = rng.uniform(-bound, bound, size=(dims[i], dims[i + 1]))
        b = rng.uniform(-bound, bound, size=dims[i + 1])
        layers.append((w, b))
    return pack_layers(layers, spec)


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    return np.maximum(z, 0.0) if kind == "relu" else np.tanh(z)


def _act_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return z > 0.0  # multiplying by a bool mask gives the same bits as by 1.0/0.0
    t = np.tanh(z)
    return 1.0 - t * t


def _forward_cache(layers, kind: str, x: np.ndarray):
    """Run a batch through the net given its layer views, keeping pre-activations.

    Returns (hs, zs, logits): hs[i] is the input of layer i, zs[i] its
    pre-activation (hidden layers only).
    """
    hs, zs = [x], []
    h = x
    for w, b in layers[:-1]:
        z = h @ w + b
        zs.append(z)
        h = _act(z, kind)
        hs.append(h)
    w_out, b_out = layers[-1]
    logits = h @ w_out + b_out
    return hs, zs, logits


def forward_batch(params: ParamVector, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(features, logits) for a (n, input_dim) batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.spec.input_dim:
        raise InputError(
            f"expected batch of {params.spec.input_dim}-dim inputs, got shape {x.shape}"
        )
    hs, _, logits = _forward_cache(params.layers(), params.spec.activation, x)
    return hs[-1], logits


def softmax_t(logits: np.ndarray, tau: float) -> np.ndarray:
    """Temperature-softened softmax with max-subtraction for stability."""
    if tau <= 0:
        raise ParameterError(f"temperature must be > 0, got {tau}")
    z = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(z).all():
        raise InputError("non-finite logits")
    z = z / tau
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# Composite losses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossEntropyTerm:
    """Mean cross-entropy over a labeled batch."""

    x: np.ndarray
    y: np.ndarray
    weight: float = 1.0


@dataclass(frozen=True)
class DistillTerm:
    """KL(teacher || softmax(student_logits / temperature)) over a batch.

    `teacher_probs` are already-softened distributions.  When `class_range`
    is set, the student distribution is formed over that slice of the logits
    only (used to match an older, narrower teacher head).  No extra
    temperature-squared rescaling is applied to the gradient: the raw KL of
    the softened distributions is the loss.
    """

    x: np.ndarray
    teacher_probs: np.ndarray
    temperature: float
    weight: float = 1.0
    class_range: tuple[int, int] | None = None
    reduction: str = "mean"  # or "sum"


@dataclass(frozen=True)
class ProximalTerm:
    """(mu/2) * ||theta - ref||^2, the FedProx pull toward a reference model."""

    ref: ParamVector
    mu: float


@dataclass(frozen=True)
class UniformActivationTerm:
    """Mean KL(softmax(features) || uniform) over a batch (FedMAX-style)."""

    x: np.ndarray
    weight: float


LossTerm = CrossEntropyTerm | DistillTerm | ProximalTerm | UniformActivationTerm


@dataclass(frozen=True)
class CompositeLoss:
    terms: tuple[LossTerm, ...] = ()


def _backprop(spec: NetSpec, layers, hs, zs, d_logits, d_features):
    """Gradient of a scalar loss given dL/dlogits and dL/dfeatures, as one flat array."""
    flat = np.empty(spec.param_count)
    grads = _layer_views(flat, spec.layer_dims)
    gw, gb = grads[-1]
    np.matmul(hs[-1].T, d_logits, out=gw)
    d_logits.sum(axis=0, out=gb)
    delta = d_logits @ layers[-1][0].T
    if d_features is not None:
        delta = delta + d_features
    for i in range(len(layers) - 2, -1, -1):
        delta = delta * _act_grad(zs[i], spec.activation)
        gw, gb = grads[i]
        np.matmul(hs[i].T, delta, out=gw)
        delta.sum(axis=0, out=gb)
        delta = delta @ layers[i][0].T
    return flat


def backward(params: ParamVector, loss: CompositeLoss) -> tuple[float, ParamVector]:
    """Total loss value and its exact gradient w.r.t. every parameter."""
    spec = params.spec
    layers = params.layers()
    total = 0.0
    grad = np.zeros(spec.param_count)
    n_classes = spec.n_classes

    for term in loss.terms:
        if isinstance(term, ProximalTerm):
            if term.ref.spec != spec:
                raise InputError("proximal reference has a different spec")
            diff = params.values - term.ref.values
            total += 0.5 * term.mu * float(diff @ diff)
            grad += term.mu * diff
            continue

        x = np.asarray(term.x, dtype=np.float64)
        if x.size == 0:
            raise InputError("empty batch in loss term")
        hs, zs, logits = _forward_cache(layers, spec.activation, x)
        n = x.shape[0]

        if isinstance(term, CrossEntropyTerm):
            y = np.asarray(term.y, dtype=np.int64)
            if np.any(y < 0) or np.any(y >= n_classes):
                raise InputError("label out of range")
            logp = _log_softmax(logits)
            total += term.weight * float(-logp[np.arange(n), y].mean())
            d_logits = np.exp(logp)
            d_logits[np.arange(n), y] -= 1.0
            d_logits *= term.weight / n
            grad += _backprop(spec, layers, hs, zs, d_logits, None)

        elif isinstance(term, DistillTerm):
            a, b = term.class_range if term.class_range is not None else (0, n_classes)
            sub = logits[:, a:b]
            p = np.asarray(term.teacher_probs, dtype=np.float64)
            if p.shape != sub.shape:
                raise InputError("teacher table shape mismatch")
            q = softmax_t(sub, term.temperature)
            qc = np.maximum(q, EPS_LOG)
            val = float(
                np.where(p > 0, p * (np.log(np.maximum(p, EPS_LOG)) - np.log(qc)), 0.0).sum()
            )
            scale = 1.0 / n if term.reduction == "mean" else 1.0
            total += term.weight * scale * val
            d_sub = (q - p) * (term.weight * scale / term.temperature)
            if term.class_range is None:
                d_logits = d_sub
            else:
                d_logits = np.zeros_like(logits)
                d_logits[:, a:b] = d_sub
            grad += _backprop(spec, layers, hs, zs, d_logits, None)

        elif isinstance(term, UniformActivationTerm):
            feats = hs[-1]
            p = softmax_t(feats, 1.0)
            logp = np.log(np.maximum(p, EPS_LOG))
            k = feats.shape[1]
            total += term.weight * float((p * logp).sum(axis=1).mean() + math.log(k))
            inner = (p * logp).sum(axis=1, keepdims=True)
            d_feats = p * (logp - inner) * (term.weight / n)
            d_logits = np.zeros_like(logits)
            grad += _backprop(spec, layers, hs, zs, d_logits, d_feats)

        else:
            raise InputError(f"unknown loss term {type(term).__name__}")

    return total, ParamVector(grad, spec)


def minibatches(rng: np.random.Generator, n: int, batch_size: int, epochs: int):
    """Seeded minibatch indices: one fresh permutation of range(n) per epoch, in slices."""
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            yield order[start : start + batch_size]


def sgd_step(params: ParamVector, grad: ParamVector, lr: float) -> ParamVector:
    """Update `params` in place by `-lr * grad` and return it; callers train on a copy."""
    if lr <= 0:
        raise ParameterError(f"learning rate must be > 0, got {lr}")
    if grad.spec != params.spec:
        raise InputError("gradient spec does not match parameters")
    params.values -= lr * grad.values
    if not np.isfinite(params.values).all():
        raise InputError("SGD step produced non-finite parameters")
    return params


def expand_head(params: ParamVector, n_new: int) -> ParamVector:
    """Append zero-initialized output rows/biases for `n_new` classes.

    Zero init is replicated identically at every site so that the first
    aggregation after a head expansion is coherent.  Existing parameters are
    preserved bit-exactly and new-class logits are exactly 0 for any input.
    """
    if n_new < 1:
        raise ParameterError(f"n_new must be >= 1, got {n_new}")
    layers = params.layers()
    w_out, b_out = layers[-1]
    w_new = np.concatenate([w_out, np.zeros((w_out.shape[0], n_new))], axis=1)
    b_new = np.concatenate([b_out, np.zeros(n_new)])
    new_spec = params.spec.with_classes(params.spec.n_classes + n_new)
    return pack_layers([*layers[:-1], (w_new, b_new)], new_spec)
