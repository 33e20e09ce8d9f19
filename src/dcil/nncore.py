"""Dense feed-forward network engine with exact analytic gradients.

Everything here operates on flat parameter vectors so that models can be
averaged, diffed and shipped around as plain arrays.  The engine supports a
small family of composable loss terms (full-head distillation toward
soft-target rows, with classification as its case at temperature 1 on
one-hot rows, a proximal pull toward a reference model, and an
activation-uniformity regularizer) whose gradients are all computed in one
forward pass and one backward pass per step: the soft-target terms' rows share
the pass, the regularizer rides on it, and the proximal pull is added after.
`backward` returns the gradient only; the tests evaluate a loss value with
`tests/oracles.py::loss_value`.
Every parameter-shaped array is a `ParamVector`, written through its
per-layer views: a model, its gradient, a fresh init, a widened head.
Every trainer checks its inputs once and hands its rows and per-batch step
to `fit`, the one seeded SGD loop, which checks the learning rate and the
rows, builds the call's one gradient vector, traps divergence at the step where
it happens and scans the trained parameters once; the step only does arithmetic.
A step calls `ndarray.dot` and the ufunc reductions directly and works in place
on the arrays it owns: the bytes of `@`, `.sum`/`.max` and a fresh array per
stage (`tests/test_step_bytes.py`), for less per-call overhead.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .config import ConfigError, NetSpec


class InputError(ValueError):
    """Malformed input data (shape/range/finiteness)."""


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

    def __reduce__(self):
        # pickle and deepcopy would keep the cached views as copies detached
        # from the clone's `values`; rebuilding through the constructor
        # checks the values and builds views of the clone's own array
        return ParamVector, (self.values, self.spec)

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.spec)

    def layers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per-layer (W, b) views of `values`, built once per `values` array."""
        owner, views = self._views
        if owner is not self.values:
            views = _layer_views(self.values, self.spec.layer_dims)
            self._views = (self.values, views)
        return views


def init_params(spec: NetSpec, rng: np.random.Generator) -> ParamVector:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer.

    Draws each layer's `W`, then its `b`, layer by layer, into the views of
    a zero vector.
    """
    params = ParamVector(np.zeros(spec.param_count), spec)
    for w, b in params.layers():
        bound = 1.0 / math.sqrt(len(w))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
        b[...] = rng.uniform(-bound, bound, size=b.shape)
    return params


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
        z = h.dot(w)
        z += b
        zs.append(z)
        h = np.maximum(z, 0.0) if kind == "relu" else np.tanh(z)
        hs.append(h)
    w_out, b_out = layers[-1]
    logits = h.dot(w_out)
    logits += b_out
    return hs, zs, logits


def _check_rows(spec: NetSpec, x) -> None:
    """Raise `InputError` unless `x` is `(n, input_dim)` rows of finite values."""
    shape = np.shape(x)
    if len(shape) != 2 or shape[1] != spec.input_dim:
        raise InputError(f"expected batch of {spec.input_dim}-dim inputs, got shape {shape}")
    if not np.isfinite(x).all():
        raise InputError("input rows contain non-finite values")


def forward_batch(params: ParamVector, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(features, logits) for a (n, input_dim) batch."""
    x = np.asarray(x, dtype=np.float64)
    _check_rows(params.spec, x)
    hs, _, logits = _forward_cache(params.layers(), params.spec.activation, x)
    return hs[-1], logits


def softmax_t(logits: np.ndarray, tau: float) -> np.ndarray:
    """Temperature-softened softmax with max-subtraction for stability.

    Checks the temperature, then rejects non-finite logits (a teacher table,
    softened outside `fit`'s traps).  Each trainer softens its teacher here,
    once per call, so no step checks a temperature.
    """
    if tau <= 0:
        raise ConfigError(f"temperature must be > 0, got {tau}")
    z = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(z).all():
        raise InputError("non-finite logits")
    return _softmax_t(z, tau)


def _softmax_t(z: np.ndarray, tau: float, out=None) -> np.ndarray:
    """`softmax_t` of float64 `z` into `out` (a new array by default, or `z`
    itself when the caller owns it), without the temperature and finiteness checks."""
    z = np.true_divide(z, tau, out=out)
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


# ---------------------------------------------------------------------------
# Composite losses
# ---------------------------------------------------------------------------


def one_hot(y, n_classes: int) -> np.ndarray:
    """The `(len(y), n_classes)` target rows of the labels `y`: exact 0.0 and 1.0.

    The labels are checked here, once per training call: a 1-D array of
    integers (not bools) in `range(n_classes)`.  A trainer then gathers each
    batch's rows with `take`, as it gathers teacher rows.
    """
    y = np.asarray(y)
    if y.ndim != 1 or y.dtype.kind not in "iu":
        raise InputError(f"labels must be a 1-D integer array, got {y.dtype} of shape {y.shape}")
    if len(y) and (y.min() < 0 or y.max() >= n_classes):
        raise InputError("label out of range")
    rows = np.zeros((len(y), n_classes))
    rows[np.arange(len(y)), y] = 1.0
    return rows


@dataclass(frozen=True)
class DistillTerm:
    """Mean KL(targets || softmax(student_logits / temperature)) over a batch.

    `targets` are soft-target rows over the full head: an already-softened
    teacher table, where a teacher that knows fewer classes is padded with
    zeros to the head width, or the batch's rows of `one_hot`.  The trainer
    checks the table's shape and the temperature once, before `fit`, where
    `softmax_t` softens it; `backward` checks nothing.
    No extra temperature-squared rescaling is applied to the gradient: the
    raw KL of the softened distributions is the loss.
    """

    x: np.ndarray
    targets: np.ndarray
    temperature: float
    weight: float = 1.0


@dataclass(frozen=True)
class CrossEntropyTerm(DistillTerm):
    """Mean cross-entropy over a labeled batch: the distillation term at
    temperature 1 toward one-hot `targets`, whose entropy is 0."""

    temperature: float = field(default=1.0, init=False)


@dataclass(frozen=True)
class ProximalTerm:
    """(mu/2) * ||theta - ref||^2, the FedProx pull toward a reference model."""

    ref: ParamVector
    mu: float


@dataclass(frozen=True)
class UniformActivationTerm:
    """(weight / d) * mean KL(uniform || softmax(features)) over the loss's CE and KD rows.

    FedMAX's activation penalty in its reference form, d being the feature
    width: its gradient at a row's features a is (softmax(a) - 1/d) / d, 0
    where a row's features are all equal.  The one backprop of those rows
    carries it, so it runs no pass of its own, and a loss without such rows
    gets none.
    """

    weight: float


LossTerm = DistillTerm | ProximalTerm | UniformActivationTerm


@dataclass(frozen=True)
class CompositeLoss:
    terms: tuple[LossTerm, ...] = ()


def _backprop(spec: NetSpec, layers, hs, zs, d_logits, d_features, grads):
    """Write the gradient of a scalar loss, given dL/dlogits and dL/dfeatures, into `grads`.

    `grads` are the per-layer (W, b) views of one flat array.  Stops at the
    first layer's weights: no caller needs the input gradient.
    """
    gw, gb = grads[-1]
    hs[-1].T.dot(d_logits, out=gw)
    np.add.reduce(d_logits, axis=0, out=gb)
    if len(layers) == 1:
        return
    delta = d_logits.dot(layers[-1][0].T)
    if d_features is not None:
        delta += d_features
    for i in range(len(layers) - 2, -1, -1):
        delta *= _act_grad(zs[i], spec.activation)
        gw, gb = grads[i]
        hs[i].T.dot(delta, out=gw)
        np.add.reduce(delta, axis=0, out=gb)
        if i:
            delta = delta.dot(layers[i][0].T)


def backward(params: ParamVector, loss: CompositeLoss, out: ParamVector) -> ParamVector:
    """Write the exact gradient of the total loss w.r.t. every parameter (not
    the loss value) into `out`, and return `out`.

    `out` is the gradient vector `fit` hands each step, of the spec of
    `params`; every call overwrites all of it through `out.layers()`.
    The rows of the loss's soft-target terms go through one forward pass,
    concatenated in term order (a single term's rows as they are).  Each
    term's slice of the logits becomes softmax(z / τ) minus its target rows,
    times `weight * (1/n) / τ`; an `UniformActivationTerm` adds its gradient
    at the features of all those rows, and one backprop writes `out`.
    Each `ProximalTerm` then adds `mu * (params - ref)`, in term order.
    Only arithmetic runs here: the trainer checked every input once, before
    `fit`, and builds each term from a nonempty batch; nothing is scanned
    for non-finite values, because `fit` traps the operation that makes one.
    """
    spec = params.spec
    layers = params.layers()
    grad = out.values
    rowed = [t for t in loss.terms if isinstance(t, DistillTerm)]
    if rowed:
        x = rowed[0].x if len(rowed) == 1 else np.concatenate([t.x for t in rowed])
        hs, zs, logits = _forward_cache(layers, spec.activation, x)
        start = 0
        for term in rowed:
            z = logits[start : start + len(term.x)]
            _softmax_t(z, term.temperature, out=z)
            z -= term.targets
            # weight * (1/n), not weight / n: tests/test_step_bytes.py pins this rounding
            z *= term.weight * (1.0 / len(z)) / term.temperature
            start += len(z)
        d_features = None
        beta = sum(t.weight for t in loss.terms if isinstance(t, UniformActivationTerm))
        if beta:
            d_features = _softmax_t(hs[-1], 1.0)
            d = d_features.shape[1]
            d_features -= 1.0 / d
            d_features *= beta / len(x) / d
        _backprop(spec, layers, hs, zs, logits, d_features, out.layers())
    else:
        grad.fill(0.0)
    for term in loss.terms:
        if isinstance(term, ProximalTerm):
            grad += term.mu * (params.values - term.ref.values)
    return out


def sgd_step(params: ParamVector, grad: ParamVector, lr: float) -> ParamVector:
    """Update `params` in place by `-lr * grad` and return it; callers train on a copy.

    Checks nothing: `fit` checked `lr` and built `grad` from the spec of
    `params`.  The result is not scanned: under `fit` an update that
    overflows raises.
    """
    params.values -= lr * grad.values
    return params


def fit(
    params: ParamVector, lr: float, x, batch_size: int, epochs: int, seed, step: Callable
) -> ParamVector:
    """Seeded minibatch SGD over the rows `x`, in one pass that stops where it diverges.

    Trains a copy of `params`: each epoch draws one permutation of
    range(len(x)) from `np.random.default_rng(seed)` and hands each
    `batch_size` slice of it, the last one possibly shorter, to
    `step(params, sel, grad)`, which gathers its rows, writes `grad` through
    `backward(..., out=grad)` and updates `params` in place through
    `sgd_step`, its last call.  `params` is the copy being trained and
    `grad` the call's one gradient vector, a zero `ParamVector` of the same
    spec, built once after the shortcut below.  A negative learning rate raises
    `ConfigError` first, then rows that are not finite `(n, input_dim)` rows
    raise `forward_batch`'s `InputError`, whatever the epochs and rows; then
    a zero learning rate or no rows returns a copy without calling `step`.

    Every step runs with overflow, invalid operations and division by zero
    raising, the only ways finite values turn non-finite: such a trap
    becomes an `InputError` that names the epoch and batch (from 1) and
    numpy's message.  A non-finite value that a step reads from elsewhere
    raises no trap but spreads into the parameters, so they are scanned
    once, after the last step.  Any other error from `step` propagates unchanged.
    """
    if lr < 0:
        raise ConfigError(f"learning rate must be >= 0, got {lr}")
    _check_rows(params.spec, x)
    n = len(x)
    if lr == 0 or n == 0:
        return params.copy()
    grad = ParamVector(np.zeros(params.spec.param_count), params.spec)
    out = params.copy()
    rng = np.random.default_rng(seed)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for epoch in range(1, epochs + 1):
            order = rng.permutation(n)
            for batch, start in enumerate(range(0, n, batch_size), 1):
                try:
                    step(out, order[start : start + batch_size], grad)
                except FloatingPointError as err:
                    raise InputError(
                        f"SGD diverged in epoch {epoch}, batch {batch}: {err}"
                    ) from err
    if not np.isfinite(out.values).all():
        raise InputError("SGD produced non-finite parameters")
    return out


def expand_head(params: ParamVector, n_new: int) -> ParamVector:
    """Append zero-initialized output rows/biases for `n_new` classes.

    Zero init is replicated identically at every site so that the first
    aggregation after a head expansion is coherent.  Existing parameters are
    preserved bit-exactly and new-class logits are exactly 0 for any input.
    """
    if n_new < 1:
        raise ConfigError(f"n_new must be >= 1, got {n_new}")
    new_spec = replace(params.spec, n_classes=params.spec.n_classes + n_new)
    wide = ParamVector(np.zeros(new_spec.param_count), new_spec)
    for (w, b), (w_wide, b_wide) in zip(params.layers(), wide.layers()):
        w_wide[:, : w.shape[1]] = w
        b_wide[: len(b)] = b
    return wide
