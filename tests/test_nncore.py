"""Network engine tests: forward oracles, closed-form losses, gradient checks."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import cross_entropy, forward, kl_div, zeros_params

from dcil.nncore import (
    CompositeLoss,
    CrossEntropyTerm,
    DistillTerm,
    InputError,
    NetSpec,
    ParamVector,
    ParameterError,
    ProximalTerm,
    UniformActivationTerm,
    backward,
    expand_head,
    forward_batch,
    init_params,
    pack_layers,
    sgd_step,
    softmax_t,
)


def small_net(seed=0, input_dim=3, hidden=(4,), n_classes=3, activation="relu"):
    spec = NetSpec(input_dim, hidden, n_classes, activation)
    return init_params(spec, np.random.default_rng(seed))


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
    with pytest.raises(ParameterError):
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
        lo_up, _ = backward(ParamVector(up, params.spec), loss)
        lo_dn, _ = backward(ParamVector(down, params.spec), loss)
        grad[i] = (lo_up - lo_dn) / (2 * h)
    return grad


def assert_grad_close(params, loss, tol=1e-4):
    _, grad = backward(params, loss)
    fd = fd_gradient(params, loss)
    denom = max(1.0, np.abs(fd).max())
    assert np.abs(grad.values - fd).max() / denom < tol


def test_grad_cross_entropy():
    params = small_net(activation="tanh")
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 3))
    y = rng.integers(0, 3, size=6)
    assert_grad_close(params, CompositeLoss((CrossEntropyTerm(x, y),)))


def test_grad_distill_full_head():
    params = small_net(activation="tanh")
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 3))
    teacher = softmax_t(rng.normal(size=(5, 3)), 5.0)
    for reduction in ("mean", "sum"):
        loss = CompositeLoss((DistillTerm(x, teacher, 5.0, weight=2.0, reduction=reduction),))
        assert_grad_close(params, loss)


def test_grad_distill_class_range():
    params = small_net(n_classes=5, activation="tanh")
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 3))
    teacher = softmax_t(rng.normal(size=(4, 2)), 2.0)
    loss = CompositeLoss((DistillTerm(x, teacher, 2.0, class_range=(1, 3)),))
    assert_grad_close(params, loss)


def test_grad_proximal():
    params = small_net()
    ref = small_net(seed=9)
    loss = CompositeLoss((ProximalTerm(ref, 0.7),))
    _, grad = backward(params, loss)
    assert np.allclose(grad.values, 0.7 * (params.values - ref.values), atol=1e-12)


def test_grad_uniform_activation():
    params = small_net(activation="tanh")
    x = np.random.default_rng(5).normal(size=(6, 3))
    assert_grad_close(params, CompositeLoss((UniformActivationTerm(x, 3.0),)))


def test_grad_composite_sum_of_terms():
    params = small_net(activation="tanh")
    rng = np.random.default_rng(6)
    x = rng.normal(size=(5, 3))
    y = rng.integers(0, 3, size=5)
    teacher = softmax_t(rng.normal(size=(5, 3)), 5.0)
    ref = small_net(seed=11, activation="tanh")
    loss = CompositeLoss((
        CrossEntropyTerm(x, y),
        DistillTerm(x, teacher, 5.0, weight=5.0),
        ProximalTerm(ref, 0.2),
        UniformActivationTerm(x, 1.5),
    ))
    assert_grad_close(params, loss)
    # value is the sum of the individual term values
    total, _ = backward(params, loss)
    parts = sum(backward(params, CompositeLoss((t,)))[0] for t in loss.terms)
    assert abs(total - parts) < 1e-10


def test_distill_full_head_without_class_range_gives_same_bits():
    params = small_net(n_classes=4)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(6, 3))
    teacher = softmax_t(rng.normal(size=(6, 4)), 5.0)
    whole = backward(params, CompositeLoss((DistillTerm(x, teacher, 5.0, weight=2.0),)))
    ranged = backward(
        params, CompositeLoss((DistillTerm(x, teacher, 5.0, weight=2.0, class_range=(0, 4)),))
    )
    assert whole[0] == ranged[0]
    assert whole[1].values.tobytes() == ranged[1].values.tobytes()


def test_backward_rejects_empty_batch():
    params = small_net()
    with pytest.raises(InputError):
        backward(params, CompositeLoss((CrossEntropyTerm(np.empty((0, 3)), np.empty(0, int)),)))


# ---------------------------------------------------------------------------
# SGD / head expansion
# ---------------------------------------------------------------------------


def test_sgd_step_moves_downhill():
    params = small_net()
    rng = np.random.default_rng(7)
    x = rng.normal(size=(20, 3))
    y = rng.integers(0, 3, size=20)
    loss = CompositeLoss((CrossEntropyTerm(x, y),))
    before, grad = backward(params, loss)
    after, _ = backward(sgd_step(params, grad, 0.1), loss)
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
    params = small_net()
    params.values[:] = 1e308
    grad = ParamVector(np.full(params.spec.param_count, -1e308), params.spec)
    with np.errstate(over="ignore"), pytest.raises(InputError):
        sgd_step(params, grad, 1.0)


def test_sgd_rejects_nonpositive_lr():
    params = small_net()
    with pytest.raises(ParameterError):
        sgd_step(params, zeros_params(params.spec), 0.0)


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
    with pytest.raises(ParameterError):
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


@pytest.mark.parametrize(
    "clone", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))], ids=["deepcopy", "pickle"]
)
def test_cloned_params_view_their_own_values(clone):
    params = small_net()
    params.layers()
    twin = clone(params)
    w, _ = twin.layers()[0]
    assert np.shares_memory(w, twin.values)
    assert not np.shares_memory(w, params.values)


def test_param_vector_validates_length_and_finiteness():
    spec = NetSpec(2, (2,), 2)
    with pytest.raises(InputError):
        ParamVector(np.zeros(3), spec)
    bad = np.zeros(spec.param_count)
    bad[0] = np.inf
    with pytest.raises(InputError):
        ParamVector(bad, spec)


def test_netspec_validation():
    with pytest.raises(ParameterError):
        NetSpec(0, (2,), 2)
    with pytest.raises(ParameterError):
        NetSpec(2, (0,), 2)
    with pytest.raises(ParameterError):
        NetSpec(2, (2,), 2, "sigmoid")


def test_init_params_within_fan_in_bounds():
    spec = NetSpec(4, (9,), 3)
    params = init_params(spec, np.random.default_rng(0))
    (w1, b1), (w2, b2) = params.layers()
    assert np.abs(w1).max() <= 0.5 and np.abs(b1).max() <= 0.5
    assert np.abs(w2).max() <= 1.0 / 3.0 and np.abs(b2).max() <= 1.0 / 3.0
