"""Network engine tests: forward oracles, closed-form losses, gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    cross_entropy,
    fedmax_regularizer,
    forward,
    gradient,
    kl_div,
    loss_value,
    plain_backward,
    zeros_params,
)

from dcil import nncore
from dcil.distillation import dad_refine, dcd_finetune
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
    Workspace,
    backward,
    expand_head,
    fit,
    forward_batch,
    init_params,
    one_hot,
    pack_layers,
    sgd_step,
    softmax_t,
)


def small_net(seed=0, input_dim=3, hidden=(4,), n_classes=3, activation="relu"):
    spec = NetSpec(input_dim, hidden, n_classes, activation)
    return init_params(spec, np.random.default_rng(seed))


def rows(n, input_dim=3):
    """`n` input rows for `fit` to walk, as wide as a `small_net`'s input."""
    return np.zeros((n, input_dim))


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def test_forward_matches_manual_matrix_oracle():
    # 2 -> 2 -> 2 net with hand-picked weights, relu.
    spec = NetSpec(2, (2,), 2, "relu")
    w1 = np.array([[1.0, -1.0], [0.5, 2.0]])
    b1 = np.array([0.0, -0.5])
    w2 = np.array([[2.0, 0.0], [1.0, -1.0]])
    b2 = np.array([0.1, 0.2])
    params = pack_layers([(w1, b1), (w2, b2)], spec)
    x = np.array([1.0, 2.0])
    h = np.maximum(x @ w1 + b1, 0.0)
    expect = h @ w2 + b2
    out = forward(params, x)
    assert np.max(np.abs(out.logits - expect)) < 1e-12
    assert np.max(np.abs(out.features - h)) < 1e-12


def test_forward_batch_consistent_with_single():
    params = small_net()
    x = np.random.default_rng(1).normal(size=(7, 3))
    feats, logits = forward_batch(params, x)
    for i in range(7):
        single = forward(params, x[i])
        assert np.allclose(single.logits, logits[i], atol=1e-12)
        assert np.allclose(single.features, feats[i], atol=1e-12)


def test_forward_rejects_bad_shapes():
    params = small_net()
    with pytest.raises(InputError):
        forward(params, np.zeros(4))
    with pytest.raises(InputError):
        forward_batch(params, np.zeros((2, 5)))


def test_no_hidden_layer_net_is_linear():
    spec = NetSpec(3, (), 2)
    params = init_params(spec, np.random.default_rng(0))
    (w, b), = params.layers()
    x = np.array([0.3, -1.0, 2.0])
    assert np.allclose(forward(params, x).logits, x @ w + b, atol=1e-12)


# ---------------------------------------------------------------------------
# Softmax / KL / cross-entropy closed forms
# ---------------------------------------------------------------------------


def test_softmax_closed_form():
    p = softmax_t(np.array([math.log(2.0), 0.0]), 1.0)
    assert np.allclose(p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_softmax_temperature_flattens():
    z = np.array([4.0, 0.0, -4.0])
    sharp = softmax_t(z, 0.5)
    soft = softmax_t(z, 10.0)
    assert sharp[0] > soft[0]
    assert soft.min() > sharp.min()


def test_softmax_handles_large_logits():
    p = softmax_t(np.array([1e4, 0.0]), 1.0)
    assert np.isfinite(p).all() and abs(p.sum() - 1.0) < 1e-12


def test_softmax_rejects_bad_temperature():
    with pytest.raises(ConfigError):
        softmax_t(np.zeros(2), 0.0)


def test_kl_closed_forms():
    assert abs(kl_div([1.0, 0.0], [0.5, 0.5]) - math.log(2.0)) < 1e-12
    v = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
    assert abs(kl_div([0.5, 0.5], [0.9, 0.1]) - v) < 1e-12
    assert kl_div([0.5, 0.5], [0.5, 0.5]) == 0.0


def test_kl_zero_support_terms_drop_out():
    # q=0 where p=0 must not produce nan/inf.
    assert np.isfinite(kl_div([1.0, 0.0], [1.0, 0.0]))
    assert abs(kl_div([1.0, 0.0], [1.0, 0.0])) < 1e-12


def test_cross_entropy_closed_forms():
    assert abs(cross_entropy(np.array([10.0, -10.0]), 0) - math.log1p(math.exp(-20.0))) < 1e-15
    assert abs(cross_entropy(np.array([10.0, -10.0]), 1) - (20.0 + math.log1p(math.exp(-20.0)))) < 1e-12
    assert abs(cross_entropy(np.zeros(4), 2) - math.log(4.0)) < 1e-12


def test_cross_entropy_rejects_bad_label():
    with pytest.raises(InputError):
        cross_entropy(np.zeros(3), 3)


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8), st.floats(0.5, 10))
def test_softmax_sums_to_one(logits, tau):
    p = softmax_t(np.array(logits), tau)
    assert abs(p.sum() - 1.0) < 1e-9
    assert (p >= 0).all()


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8), st.data())
def test_softmax_permutation_equivariant(logits, data):
    z = np.array(logits)
    perm = data.draw(st.permutations(range(len(z))))
    perm = np.array(perm)
    assert np.allclose(softmax_t(z, 2.0)[perm], softmax_t(z[perm], 2.0), atol=1e-12)


@settings(deadline=None, max_examples=50)
@given(
    st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=6),
    st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=6),
)
def test_kl_nonnegative_and_zero_iff_equal(a, b):
    n = min(len(a), len(b))
    p = np.array(a[:n]) / np.sum(a[:n])
    q = np.array(b[:n]) / np.sum(b[:n])
    assert kl_div(p, q) >= -1e-12
    assert abs(kl_div(p, p)) < 1e-9


# ---------------------------------------------------------------------------
# Finite-difference gradient checks
# ---------------------------------------------------------------------------


def fd_gradient(params, loss, h=1e-5):
    grad = np.zeros(params.spec.param_count)
    for i in range(len(grad)):
        up = params.values.copy()
        up[i] += h
        down = params.values.copy()
        down[i] -= h
        lo_up = loss_value(ParamVector(up, params.spec), loss)
        lo_dn = loss_value(ParamVector(down, params.spec), loss)
        grad[i] = (lo_up - lo_dn) / (2 * h)
    return grad


def assert_grad_close(params, loss, tol=1e-4):
    grad = gradient(params, loss)
    fd = fd_gradient(params, loss)
    denom = max(1.0, np.abs(fd).max())
    assert np.abs(grad.values - fd).max() / denom < tol


# `_backprop` stops at the first layer, and skips the hidden-layer pass
# altogether on a net without one: every gradient check covers both cases.
HIDDEN_DEPTHS = ((), (4,), (4, 3))


def test_grad_cross_entropy():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 3))
    y = rng.integers(0, 3, size=6)
    for hidden in HIDDEN_DEPTHS:
        params = small_net(hidden=hidden, activation="tanh")
        assert_grad_close(params, CompositeLoss((CrossEntropyTerm(x, one_hot(y, 3)),)))


def test_grad_distill_full_head():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 3))
    teacher = softmax_t(rng.normal(size=(5, 3)), 5.0)
    for hidden in HIDDEN_DEPTHS:
        params = small_net(hidden=hidden, activation="tanh")
        loss = CompositeLoss((DistillTerm(x, teacher, 5.0, weight=2.0),))
        assert_grad_close(params, loss)


def test_grad_distill_zero_padded_teacher():
    # a teacher that knows 2 of the 5 classes, padded with zeros as local
    # anchor KD pads the previous general model
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 3))
    teacher = np.zeros((4, 5))
    teacher[:, :2] = softmax_t(rng.normal(size=(4, 2)), 2.0)
    loss = CompositeLoss((DistillTerm(x, teacher, 2.0),))
    for hidden in HIDDEN_DEPTHS:
        assert_grad_close(small_net(hidden=hidden, n_classes=5, activation="tanh"), loss)


def test_grad_proximal():
    for hidden in HIDDEN_DEPTHS:
        params = small_net(hidden=hidden)
        ref = small_net(seed=9, hidden=hidden)
        loss = CompositeLoss((ProximalTerm(ref, 0.7),))
        grad = gradient(params, loss)
        assert np.allclose(grad.values, 0.7 * (params.values - ref.values), atol=1e-12)
        assert_grad_close(params, loss)


def test_grad_uniform_activation():
    # a zero-weight term lends the penalty its rows and adds no gradient of its own
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 3))
    zero_ce = CrossEntropyTerm(x, one_hot(rng.integers(0, 3, size=6), 3), weight=0.0)
    zero_kd = DistillTerm(x, softmax_t(rng.normal(size=(6, 3)), 2.0), 2.0, weight=0.0)
    for hidden in HIDDEN_DEPTHS:
        params = small_net(hidden=hidden, activation="tanh")
        for carrier in (zero_ce, zero_kd):
            loss = CompositeLoss((carrier, UniformActivationTerm(3.0)))
            assert_grad_close(params, loss)
            feats, _ = forward_batch(params, x)
            assert abs(loss_value(params, loss) - 3.0 * fedmax_regularizer(feats)) < 1e-12
        # with no rows to cover, the penalty has no value and no gradient
        alone = CompositeLoss((UniformActivationTerm(3.0),))
        assert loss_value(params, alone) == 0.0
        assert not gradient(params, alone).values.any()
        ref = small_net(seed=9, hidden=hidden, activation="tanh")
        prox = CompositeLoss((ProximalTerm(ref, 0.7), UniformActivationTerm(3.0)))
        assert gradient(params, prox).values.tobytes() == gradient(
            params, CompositeLoss(prox.terms[:1])).values.tobytes()


@pytest.mark.parametrize("b_rows", [1, 4])
def test_grad_fedmax_step_covers_the_rows_of_both_groups(b_rows):
    # a fedmax step's shape: CE on the shard rows A, anchor KD on rows B, and
    # the penalty averaged over A and B together, whose features each term forwards
    rng = np.random.default_rng([19, b_rows])
    a, b = rng.normal(size=(5, 3)), rng.normal(size=(b_rows, 3))
    teacher = np.zeros((b_rows, 4))
    teacher[:, :3] = softmax_t(rng.normal(size=(b_rows, 3)), 2.0)
    ce = CrossEntropyTerm(a, one_hot(rng.integers(0, 4, size=5), 4))
    kd = DistillTerm(b, teacher, 2.0, weight=5.0)
    for hidden in HIDDEN_DEPTHS:
        params = small_net(hidden=hidden, n_classes=4, activation="tanh")
        loss = CompositeLoss((ce, kd, UniformActivationTerm(20.0)))
        assert_grad_close(params, loss)
        feats, _ = forward_batch(params, np.concatenate([a, b]))
        penalty = loss_value(params, loss) - loss_value(params, CompositeLoss((ce, kd)))
        assert abs(penalty - 20.0 * fedmax_regularizer(feats)) < 1e-10


@pytest.mark.parametrize("width", [3, 5, 7])
def test_equal_features_are_the_penalty_fixed_point(width):
    # softmax of d equal features is 1/d exactly, so the penalty's gradient,
    # (softmax(a) - 1/d) / d, is 0 and the step is the one without it
    rng = np.random.default_rng([23, width])
    x = rng.normal(size=(5, 3))
    ce = CrossEntropyTerm(x[:3], one_hot(rng.integers(0, 4, size=3), 4))
    kd = DistillTerm(x[3:], softmax_t(rng.normal(size=(2, 4)), 2.0), 2.0, weight=5.0)
    for hidden in ((width,), (4, width)):
        for activation in ("relu", "tanh"):
            params = small_net(hidden=hidden, n_classes=4, activation=activation)
            w, b = params.layers()[-2]
            w[:] = 0.0
            b[:] = 0.3
            for terms in ((ce,), (kd,), (ce, kd)):
                penalized = gradient(params, CompositeLoss((*terms, UniformActivationTerm(500.0))))
                plain = gradient(params, CompositeLoss(terms))
                assert np.array_equal(penalized.values, plain.values), (hidden, activation, terms)


def test_fedmax_backward_runs_one_forward_pass_per_row_bearing_term(monkeypatch):
    passes = []
    forward_cache = nncore._forward_cache

    def counting(layers, kind, x):
        passes.append(len(x))
        return forward_cache(layers, kind, x)

    monkeypatch.setattr(nncore, "_forward_cache", counting)
    rng = np.random.default_rng(20)
    params = small_net(n_classes=4)
    ref = small_net(seed=21, n_classes=4)
    ce = CrossEntropyTerm(rng.normal(size=(5, 3)), one_hot(rng.integers(0, 4, size=5), 4))
    kd = DistillTerm(rng.normal(size=(2, 3)), softmax_t(rng.normal(size=(2, 4)), 2.0), 2.0)
    uniform = UniformActivationTerm(10.0)
    for terms, rows in [((ce, kd, uniform), [5, 2]), ((ce, uniform), [5]),
                        ((kd, uniform), [2]), ((ce, uniform, ProximalTerm(ref, 0.2)), [5])]:
        passes.clear()
        backward(params, CompositeLoss(terms), out=Workspace(params.spec))
        assert passes == rows, terms


def test_grad_composite_sum_of_terms():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(5, 3))
    y = rng.integers(0, 3, size=5)
    teacher = softmax_t(rng.normal(size=(5, 3)), 5.0)
    for hidden in HIDDEN_DEPTHS:
        params = small_net(hidden=hidden, activation="tanh")
        ref = small_net(seed=11, hidden=hidden, activation="tanh")
        loss = CompositeLoss((
            CrossEntropyTerm(x, one_hot(y, 3)),
            DistillTerm(x, teacher, 5.0, weight=5.0),
            ProximalTerm(ref, 0.2),
            UniformActivationTerm(1.5),
        ))
        assert_grad_close(params, loss)
        # value is the sum of the row-bearing and proximal term values, plus
        # the penalty over the rows of the CE and KD terms
        total = loss_value(params, loss)
        parts = sum(loss_value(params, CompositeLoss((t,))) for t in loss.terms[:3])
        feats, _ = forward_batch(params, np.concatenate([x, x]))
        assert abs(total - parts - 1.5 * fedmax_regularizer(feats)) < 1e-10


def trainer_term_sets(params, ref, rng, rows=5):
    """The 16 term sets the trainers build, plus a proximal term in first place,
    with `rows` new rows and `rows // 3 + 2` anchor rows.

    12 anchor rows (`rows=31`) round `weight * (1/n)` apart from `weight / n`.
    The first and last rows of each cross-entropy batch are labeled 0 and
    `n_classes - 1`, so the one-hot targets reach both edge columns."""
    d, k = params.spec.input_dim, params.spec.n_classes
    n_anc = rows // 3 + 2
    x = rng.normal(size=(rows, d))
    y = rng.integers(0, k, size=rows)
    ax = rng.normal(size=(n_anc, d))
    ay = rng.integers(0, k, size=n_anc)
    for labels in (y, ay):
        labels[0], labels[-1] = 0, k - 1
    # anchor KD: the previous general model knows k - 1 classes, padded to k
    teacher = np.zeros((n_anc, k))
    teacher[:, : k - 1] = softmax_t(rng.normal(size=(n_anc, k - 1)), 2.0)
    pool_teacher = softmax_t(rng.normal(size=(rows, k)), 5.0)
    ce = CrossEntropyTerm(x, one_hot(y, k))
    replay = CrossEntropyTerm(ax, one_hot(ay, k), weight=5.0)
    kd = DistillTerm(ax, teacher, 2.0, weight=5.0)
    pool = DistillTerm(x, pool_teacher, 5.0)
    prox = ProximalTerm(ref, 0.3)
    uniform = UniformActivationTerm(2.0)
    return [
        (ce,), (ce, replay), (ce, kd), (kd,), (replay,), (pool,),
        (ce, prox), (ce, kd, prox), (kd, prox), (ce, replay, prox),
        (ce, uniform), (ce, kd, uniform), (kd, uniform),
        (prox, ce), (prox, kd), (prox, ce, kd, prox),
    ]


def test_backward_sums_term_gradients_in_order_and_leaves_inputs_alone():
    # the activation penalty joins the backprop of each term it covers, so a
    # loss with it matches the plain spelling instead of a sum of parts
    rng = np.random.default_rng(13)
    for hidden in HIDDEN_DEPTHS:
        params = small_net(hidden=hidden, n_classes=4, activation="tanh")
        ref = small_net(seed=14, hidden=hidden, n_classes=4, activation="tanh")
        for terms in trainer_term_sets(params, ref, rng):
            arrays = [params.values, ref.values] + [
                a for t in terms for a in vars(t).values() if isinstance(a, np.ndarray)
            ]
            before = [a.copy() for a in arrays]
            if isinstance(terms[-1], UniformActivationTerm):
                expect = plain_backward(params, CompositeLoss(terms)).values
            else:
                parts = [gradient(params, CompositeLoss((t,))).values for t in terms]
                expect = parts[0].copy()
                for part in parts[1:]:
                    expect += part
            grad = gradient(params, CompositeLoss(terms))
            assert np.array_equal(grad.values, expect), (hidden, terms)
            for a, b in zip(arrays, before):
                assert a.tobytes() == b.tobytes()


def test_backward_into_workspace_gives_same_bytes_and_leaves_inputs_alone():
    rng = np.random.default_rng(15)
    for hidden in HIDDEN_DEPTHS:
        params = small_net(hidden=hidden, n_classes=4, activation="tanh")
        ref = small_net(seed=16, hidden=hidden, n_classes=4, activation="tanh")
        ws = Workspace(params.spec)  # one workspace for every term set, as a trainer uses it
        for terms in trainer_term_sets(params, ref, rng):
            arrays = [params.values, ref.values] + [
                a for t in terms for a in vars(t).values() if isinstance(a, np.ndarray)
            ]
            before = [a.copy() for a in arrays]
            expect = gradient(params, CompositeLoss(terms)).values.tobytes()
            grad = backward(params, CompositeLoss(terms), out=ws)
            assert grad is ws.grad
            assert grad.values.tobytes() == expect, (hidden, terms)
            for a, b in zip(arrays, before):
                assert a.tobytes() == b.tobytes()
        # an empty loss clears what the last call left in the workspace
        assert not backward(params, CompositeLoss(()), out=ws).values.any()


def test_backward_into_workspace_rejects_nan_teacher():
    # a NaN raises no trap: `backward` passes it into the gradient and
    # `sgd_step` into the parameters, which `fit` scans after its last step
    params = small_net(n_classes=4)
    rng = np.random.default_rng(17)
    x = rng.normal(size=(5, 3))
    teacher = softmax_t(rng.normal(size=(5, 4)), 5.0)
    teacher[2, 1] = np.nan
    y = rng.integers(0, 4, size=5)
    loss = CompositeLoss((CrossEntropyTerm(x, one_hot(y, 4)), DistillTerm(x, teacher, 5.0)))
    assert np.isnan(backward(params, loss, out=Workspace(params.spec)).values).any()

    def step(out, sel, ws):
        sgd_step(out, backward(out, loss, out=ws), 0.1)

    with pytest.raises(InputError, match="^SGD produced non-finite parameters$"):
        fit(params, 0.1, x, 5, 1, 0, step)


def test_one_hot_gives_exact_rows():
    rows = one_hot(np.array([2, 0, 2, 1], dtype=np.uint8), 4)
    assert rows.dtype == np.float64
    assert rows.tobytes() == np.eye(4)[[2, 0, 2, 1]].tobytes()
    assert one_hot(np.empty(0, int), 3).shape == (0, 3)


def test_one_hot_rejects_negative_and_too_large_labels():
    # a wrapped -1 would train silently on the last class
    for bad in ([0, -1, 2], [0, 3, 2]):
        with pytest.raises(InputError, match="label out of range"):
            one_hot(np.array(bad), 3)


@pytest.mark.parametrize(
    "labels",
    [2, np.int64(2), [[0, 1]], [0.0, 1.0], [0.5, 1.2], np.array([True, False]), ["a"]],
    ids=["int", "scalar", "2d", "float", "fraction", "bool", "str"],
)
def test_one_hot_rejects_labels_that_are_not_a_1d_integer_array(labels):
    # a scalar would broadcast to every row and a fraction be truncated
    with pytest.raises(InputError, match="1-D integer"):
        one_hot(labels, 3)


# ---------------------------------------------------------------------------
# SGD / head expansion
# ---------------------------------------------------------------------------


def test_sgd_step_moves_downhill():
    params = small_net()
    rng = np.random.default_rng(7)
    x = rng.normal(size=(20, 3))
    y = rng.integers(0, 3, size=20)
    loss = CompositeLoss((CrossEntropyTerm(x, one_hot(y, 3)),))
    before = loss_value(params, loss)
    grad = gradient(params, loss)
    after = loss_value(sgd_step(params, grad, 0.1), loss)
    assert after < before


def test_sgd_step_updates_in_place():
    params = small_net()
    rng = np.random.default_rng(10)
    grad = ParamVector(rng.normal(size=params.spec.param_count), params.spec)
    values = params.values
    before = values.copy()
    out = sgd_step(params, grad, 0.3)
    assert out is params
    assert out.values is values
    assert out.values.tobytes() == (before - 0.3 * grad.values).tobytes()


def test_sgd_step_rejects_overflow_to_inf():
    # `sgd_step` never scans its result, but under `fit` an update of a
    # finite gradient that overflows traps at that step, and no step follows
    params = small_net()
    params.values[:] = 1e308
    zero = zeros_params(params.spec)
    big = ParamVector(np.full(params.spec.param_count, -1e308), params.spec)
    steps = []

    def step(out, sel, ws):
        steps.append(sel)
        sgd_step(out, big if len(steps) == 3 else zero, 1.0)

    with pytest.raises(
        InputError, match="^SGD diverged in epoch 1, batch 3: overflow encountered in subtract$"
    ):
        fit(params, 1.0, rows(4), 1, 1, 0, step)
    assert len(steps) == 3
    with np.errstate(over="ignore"):  # outside `fit` the update overflows to inf
        assert np.isinf(sgd_step(params, big, 1.0).values).all()


def test_backward_checks_its_inputs_and_scans_no_values():
    # non-finite values pass through `backward`; `fit` traps the operation
    # that makes one and scans the parameters its steps leave
    params = small_net()
    ws = Workspace(params.spec)
    x = np.ones((2, 3))
    nan_teacher = np.full((2, 3), np.nan)
    nan_x = np.full((2, 3), np.nan)
    nan_features = CompositeLoss((CrossEntropyTerm(nan_x, one_hot([0, 2], 3), weight=0.0),
                                  UniformActivationTerm(1.0)))
    grad = backward(params, CompositeLoss((DistillTerm(x, nan_teacher, 2.0),)), out=ws)
    assert np.isnan(grad.values).any()
    assert np.isnan(backward(params, nan_features, out=ws).values).any()
    # the inputs are checked once per trainer call, before `fit`: labels by `one_hot`
    with pytest.raises(InputError, match="label out of range"):
        one_hot([0, 3], 3)


def test_temperature_is_checked_before_any_finiteness_scan(monkeypatch):
    nan_logits = np.full((2, 3), np.nan)
    with pytest.raises(ConfigError, match="temperature"):
        softmax_t(nan_logits, 0.0)  # `softmax_t` always scans, after the temperature
    with pytest.raises(InputError, match="^non-finite logits$"):
        softmax_t(nan_logits, 1.0)
    # a trainer softens its teacher once, before `fit`: a bad temperature
    # raises there, ahead of any step, whatever the lr, epochs and pool
    steps = []
    monkeypatch.setattr("dcil.distillation.backward", lambda *a, **k: steps.append(a))
    params = small_net()
    nan_pool = np.full((2, 3), np.nan)  # non-finite logits, seen by no scan
    for stage in (dcd_finetune, dad_refine):
        for tau in (0.0, -1.0):
            for rows, lr, epochs in ((nan_pool, 0.1, 1), (nan_pool, 0.0, 1),
                                     (nan_pool, 0.1, 0), (nan_pool[:0], 0.1, 1)):
                with pytest.raises(ConfigError, match="^temperature must be > 0"):
                    stage(params, nan_logits[: len(rows)], rows, tau, lr, epochs, 0)
    assert steps == []


# `fit` trains in one pass: a trap names the step it stopped at, a NaN that
# raised no trap is found by one scan after the last step, any other error
# propagates unchanged, and no step is ever run twice.
def test_fit_names_the_step_whose_trap_stopped_it():
    params = small_net()
    before = params.values.tobytes()
    modes = []

    def step(out, sel, ws):
        modes.append(np.geterr()["over"])
        out.values[0] += 1.0
        if len(modes) == 5:  # epoch 2, batch 2 of three slices per epoch
            np.square(np.full(2, 1e300))

    caller = np.geterr()
    with pytest.raises(
        InputError, match="^SGD diverged in epoch 2, batch 2: overflow encountered in square$"
    ) as info:
        fit(params, 0.1, rows(5), 2, 3, 0, step)
    assert isinstance(info.value.__cause__, FloatingPointError)
    assert modes == ["raise"] * 5
    assert np.geterr() == caller
    assert params.values.tobytes() == before


def test_fit_scans_the_parameters_once_after_the_last_step():
    calls = []

    def step(out, sel, ws):
        calls.append(sel)
        if len(calls) == 1:
            out.values[0] = np.nan  # spreads no further, and raises no trap

    with pytest.raises(InputError, match="^SGD produced non-finite parameters$"):
        fit(small_net(), 0.1, rows(5), 2, 3, 0, step)
    assert len(calls) == 3 * 3  # three epochs of three slices


def test_fit_passes_any_other_error_through_once_and_unchanged():
    calls = []
    error = ValueError("not a trap")

    def step(out, sel, ws):
        calls.append(sel)
        raise error

    with pytest.raises(ValueError) as info:
        fit(small_net(), 0.1, rows(5), 2, 3, 0, step)
    assert info.value is error
    assert len(calls) == 1


def test_fit_without_lr_or_rows_returns_a_copy_and_takes_no_step():
    params = small_net()

    def step(out, sel, ws):
        raise AssertionError("fit took a step")

    for lr, n in ((0.0, 5), (0.1, 0)):
        out = fit(params, lr, rows(n), 2, 3, 0, step)
        assert out is not params and out.values is not params.values
        assert out.values.tobytes() == params.values.tobytes()


def test_fit_builds_one_workspace(monkeypatch):
    built, seen = [], []

    def counting(spec):
        built.append(Workspace(spec))
        return built[-1]

    monkeypatch.setattr("dcil.nncore.Workspace", counting)
    fit(small_net(), 0.1, rows(5), 2, 2, 0, lambda out, sel, ws: seen.append(ws))
    assert len(built) == 1
    assert len(seen) == 2 * 3  # two epochs of three slices
    assert all(ws is built[0] for ws in seen)


def test_fit_walks_one_seeded_permutation_per_epoch_in_slices():
    def minibatches(rng, n, batch_size, epochs):  # the stream the trainers walked before `fit`
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                yield order[start : start + batch_size]

    for seed in (0, [5, 9, 1, 2]):
        seen = []
        fit(small_net(), 0.1, rows(10), 4, 3, seed, lambda out, sel, ws: seen.append(sel))
        expect = list(minibatches(np.random.default_rng(seed), 10, 4, 3))
        assert [len(sel) for sel in seen] == [4, 4, 2] * 3
        assert [sel.tolist() for sel in seen] == [sel.tolist() for sel in expect]


def test_expand_head_preserves_old_logits_bitwise():
    params = small_net(n_classes=4)
    x = np.random.default_rng(8).normal(size=(10, 3))
    _, logits = forward_batch(params, x)
    wide = expand_head(params, 3)
    assert wide.spec.n_classes == 7
    _, wide_logits = forward_batch(wide, x)
    assert np.array_equal(wide_logits[:, :4], logits)
    assert np.all(wide_logits[:, 4:] == 0.0)


def test_expand_head_rejects_zero():
    with pytest.raises(ConfigError):
        expand_head(small_net(), 0)


def test_layer_views_follow_reassigned_values():
    params = small_net()
    old_w, _ = params.layers()[0]
    params.values = params.values + 1.0
    new_w, _ = params.layers()[0]
    assert np.shares_memory(new_w, params.values)
    assert not np.shares_memory(new_w, old_w)
    assert np.array_equal(new_w, old_w + 1.0)
    assert params.layers() is params.layers()  # built once per values array


def test_param_vector_validates_length_and_finiteness():
    spec = NetSpec(2, (2,), 2)
    with pytest.raises(InputError):
        ParamVector(np.zeros(3), spec)
    bad = np.zeros(spec.param_count)
    bad[0] = np.inf
    with pytest.raises(InputError):
        ParamVector(bad, spec)


def test_netspec_validation():
    with pytest.raises(ConfigError):
        NetSpec(0, (2,), 2)
    with pytest.raises(ConfigError):
        NetSpec(2, (0,), 2)
    with pytest.raises(ConfigError):
        NetSpec(2, (2,), 2, "sigmoid")


def test_init_params_within_fan_in_bounds():
    spec = NetSpec(4, (9,), 3)
    params = init_params(spec, np.random.default_rng(0))
    (w1, b1), (w2, b2) = params.layers()
    assert np.abs(w1).max() <= 0.5 and np.abs(b1).max() <= 0.5
    assert np.abs(w2).max() <= 1.0 / 3.0 and np.abs(b2).max() <= 1.0 / 3.0
