"""Per-site training: herding selection, anchor/regularizer losses, updates."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest
from fresh import fresh_python
from hypothesis import given, settings, strategies as st
from oracles import anchor_loss, fedmax_regularizer, fedprox_term

from dcil.config import ACTIVATIONS
from dcil.local_learner import LocalLossConfig, local_update, select_anchors_herding
from dcil.nncore import (
    ConfigError,
    InputError,
    NetSpec,
    backward,
    expand_head,
    forward_batch,
    init_params,
    one_hot,
    softmax_t,
)


def net(seed=0, input_dim=3, hidden=(5,), n_classes=4):
    spec = NetSpec(input_dim, hidden, n_classes)
    return init_params(spec, np.random.default_rng(seed))


def no_anchors(input_dim):
    return np.empty((0, input_dim)), np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# Herding
# ---------------------------------------------------------------------------


def herding_oracle(feats, k_max):
    """Brute-force greedy: at each step try every remaining example in index
    order, by the scalar norm, and keep the first one strictly closer."""
    mu = feats.mean(axis=0)
    chosen, total = [], np.zeros(feats.shape[1])
    remaining = list(range(len(feats)))
    for k in range(1, min(k_max, len(feats)) + 1):
        best, best_d = None, None
        for i in remaining:
            v = mu - (feats[i] + total) / k
            d = np.sqrt(np.dot(v, v))
            if best_d is None or d < best_d:
                best, best_d = i, d
        chosen.append(best)
        remaining.remove(best)
        total = total + feats[best]
    return chosen


@st.composite
def herding_cases(draw):
    """(params, examples, k_max): relu and tanh nets of widths 4, 32 and 128,
    with duplicate rows, dead units (constant features; when every unit is
    dead, every distance ties exactly), input scales from 1e-3 to 30 and
    k_max up to 4 past the row count.

    Some cases pass cyclic shifts of one row through an identity layer.  Their
    distances tie in exact arithmetic but not in floating point, where a
    row-wise sum of squares and the scalar norm round in other orders and can
    disagree on the nearest one."""
    activation = draw(st.sampled_from(ACTIVATIONS))
    width = draw(st.sampled_from([4, 32, 128]))
    shifted = draw(st.booleans())
    depth = 1 if shifted else draw(st.integers(1, 2))
    input_dim = width if shifted else draw(st.integers(1, 6))
    n_distinct = draw(st.integers(1, 24))
    n_dupes = draw(st.integers(0, 16))
    dead = 0 if shifted else draw(st.sampled_from([0, 1, width // 2, width]))
    scale = 10.0 ** draw(st.floats(-3.0, math.log10(30.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = init_params(NetSpec(input_dim, (width,) * depth, 3, activation), rng)
    w, b = params.layers()[-2]
    if shifted:
        w[...], b[...] = np.eye(width), 0.0
        row = rng.normal(size=width)
        base = np.stack([np.roll(row, s) for s in rng.permutation(width)[:n_distinct]])
    else:
        w[:, :dead] = 0.0
        b[:dead] = -1.0
        base = rng.normal(size=(n_distinct, input_dim))
    base = base * scale
    examples = rng.permutation(np.concatenate([base, base[rng.integers(0, len(base), n_dupes)]]))
    k_max = draw(st.integers(1, len(examples) + 4))
    return params, examples, k_max


@settings(deadline=None, derandomize=True, max_examples=300)
@given(herding_cases())
def test_herding_is_the_lowest_index_at_the_smallest_scalar_norm(case):
    params, examples, k_max = case
    feats, _ = forward_batch(params, examples)
    assert select_anchors_herding(params, examples, k_max) == herding_oracle(feats, k_max)


def test_herding_rule_on_the_haswell_kernel():
    # The batched distance equals the oracle's scalar norm because both run
    # the same BLAS dot; check that on the second pinned kernel too.
    from numpy._core._multiarray_umath import __cpu_features__  # numpy's runtime CPU probe

    missing = [f for f in ("AVX2", "FMA3") if not __cpu_features__.get(f)]
    if missing:
        pytest.skip(f"the CPU lacks {'/'.join(missing)}, which the Haswell kernel needs")
    tests = os.path.dirname(os.path.abspath(__file__))
    code = (
        f"import sys; sys.path.insert(0, {tests!r})\n"
        "from test_golden import running_kernel\n"
        "from test_local_learner import test_herding_is_the_lowest_index_at_the_smallest_scalar_norm as prop\n"
        "prop()\n"
        "print(running_kernel())\n"
    )
    assert fresh_python(code, {"OPENBLAS_CORETYPE": "Haswell"}).split() == ["Haswell"]


def test_herding_matches_bruteforce_oracle():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        params = net(seed=seed)
        examples = rng.normal(size=(rng.integers(3, 15), 3))
        k = int(rng.integers(1, 8))
        got = select_anchors_herding(params, examples, k)
        feats, _ = forward_batch(params, examples)
        assert got == herding_oracle(feats, k)


def test_herding_first_pick_is_closest_to_mean():
    params = net()
    examples = np.random.default_rng(3).normal(size=(12, 3))
    feats, _ = forward_batch(params, examples)
    mu = feats.mean(axis=0)
    first = select_anchors_herding(params, examples, 1)[0]
    assert first == int(np.argmin(np.linalg.norm(feats - mu, axis=1)))


def test_herding_caps_at_population():
    params = net()
    examples = np.random.default_rng(4).normal(size=(5, 3))
    got = select_anchors_herding(params, examples, 20)
    assert sorted(got) == list(range(5))


def test_herding_tie_break_lowest_index():
    # duplicate examples produce exact ties; lowest index must win
    params = net()
    row = np.ones((1, 3))
    examples = np.concatenate([row, row, row])
    assert select_anchors_herding(params, examples, 2) == [0, 1]


def test_herding_exact_ties_match_oracle():
    # duplicated rows tie exactly, and dead ReLU units give all-zero features
    # (all of them when the hidden layer is dead), so the distances tie at 0
    spec = NetSpec(3, (5,), 4)
    rng = np.random.default_rng(11)
    base = rng.normal(size=(4, 3))
    examples = np.concatenate([base, base[::-1], base[:2]])
    for dead_units in (2, 5):
        params = init_params(spec, np.random.default_rng(dead_units))
        w, b = params.layers()[0]
        w[:, :dead_units] = 0.0
        b[:dead_units] = -1.0
        feats, _ = forward_batch(params, examples)
        assert np.all(feats[:, :dead_units] == 0.0)
        for k in (1, 3, len(examples)):
            assert select_anchors_herding(params, examples, k) == herding_oracle(feats, k)


def test_herding_rejects_bad_inputs():
    params = net()
    with pytest.raises(InputError):
        select_anchors_herding(params, np.empty((0, 3)), 3)
    with pytest.raises(ConfigError):
        select_anchors_herding(params, np.ones((3, 3)), 0)
    # the distances of non-finite features would be NaN, which argmin would
    # take as the minimum: `forward_batch` rejects a non-finite row first
    for bad in (np.nan, np.inf):
        examples = np.random.default_rng(5).normal(size=(6, 3))
        examples[2] = bad
        for call in (lambda: forward_batch(params, examples),
                     lambda: select_anchors_herding(params, examples, 3)):
            with pytest.raises(InputError, match="^input rows contain non-finite values$"):
                call()
    # finite features whose squared distances all overflow to inf would let
    # argmin pick a chosen row again ([0, 0, 0]); the overflow raises instead
    huge = init_params(NetSpec(3, (4,), 2), np.random.default_rng(0))
    w, b = huge.layers()[0]
    w *= 1e200
    b *= 1e200
    examples = np.random.default_rng(5).normal(size=(5, 3))
    assert np.isfinite(forward_batch(huge, examples)[0]).all()
    with pytest.raises(FloatingPointError, match="overflow"):
        select_anchors_herding(huge, examples, 3)


# ---------------------------------------------------------------------------
# Loss building blocks
# ---------------------------------------------------------------------------


def test_anchor_loss_replay_ce_closed_form():
    params = net()
    anchors = (np.random.default_rng(0).normal(size=(3, 3)), np.ones(3, dtype=np.int64))
    val = anchor_loss(params, None, anchors, "replay_ce")
    _, logits = forward_batch(params, anchors[0])
    p = softmax_t(logits, 1.0)
    expect = float(np.mean([-math.log(p[i, 1]) for i in range(3)]))
    assert abs(val - expect) < 1e-12


def test_anchor_loss_logit_kd_zero_when_student_equals_teacher():
    params = net()
    anchors = (np.random.default_rng(1).normal(size=(4, 3)), np.zeros(4, dtype=np.int64))
    val = anchor_loss(params, params, anchors, "logit_kd", temperature=2.0)
    assert abs(val) < 1e-12


def test_anchor_loss_logit_kd_wider_student_penalizes_new_mass():
    old = net()
    wide = expand_head(old, 2)
    anchors = (np.random.default_rng(2).normal(size=(4, 3)), np.zeros(4, dtype=np.int64))
    # zero-init expansion keeps new logits at 0, which still gets softmax
    # mass, so the KL against the zero-padded teacher must be positive
    val = anchor_loss(wide, old, anchors, "logit_kd", temperature=2.0)
    assert val > 0.01


def test_anchor_loss_empty_returns_zero(caplog):
    assert anchor_loss(net(), None, no_anchors(3), "replay_ce") == 0.0


def test_anchor_loss_logit_kd_requires_old_model():
    with pytest.raises(InputError):
        anchor_loss(net(), None, (np.ones((1, 3)), np.zeros(1, dtype=np.int64)), "logit_kd")


def test_fedmax_regularizer_closed_form():
    # softmax([ln 2, 0]) = (2/3, 1/3); KL from uniform over 2 entries, over d = 2
    f = np.array([[math.log(2.0), 0.0]])
    expect = (0.5 * math.log(0.5 / (2 / 3)) + 0.5 * math.log(0.5 / (1 / 3))) / 2
    assert abs(fedmax_regularizer(f) - expect) < 1e-12
    assert abs(fedmax_regularizer(np.zeros((5, 7)))) < 1e-12


def test_fedprox_term_closed_form():
    spec = NetSpec(2, (), 1)  # 3 parameters
    a = init_params(spec, np.random.default_rng(0))
    b = a.copy()
    b.values = b.values + np.array([3.0, 4.0, 0.0])
    assert abs(fedprox_term(b, a, 2.0) - 25.0) < 1e-12
    assert fedprox_term(a, a, 5.0) == 0.0


# ---------------------------------------------------------------------------
# LocalLossConfig validation
# ---------------------------------------------------------------------------


def test_local_config_validation():
    with pytest.raises(ConfigError):
        LocalLossConfig(anchor_variant="none")
    with pytest.raises(ConfigError):
        LocalLossConfig(lam=-1.0)
    with pytest.raises(ConfigError):
        LocalLossConfig(lr=-0.1)
    with pytest.raises(ConfigError):
        LocalLossConfig(batch_size=0)
    for tau in (0.0, -2.0):  # softmax_t would reject it only after base training
        with pytest.raises(ConfigError, match="anchor_temperature"):
            LocalLossConfig(anchor_temperature=tau)


# ---------------------------------------------------------------------------
# local_update behavior
# ---------------------------------------------------------------------------


def site_with_data(seed=0, n=24, n_classes=4, input_dim=3):
    """A shard of "new" classes 2..3 and an `(x, y)` anchor pair of three rows
    for each old class, 0 then 1."""
    rng = np.random.default_rng(seed)
    centers = 3.0 * rng.normal(size=(n_classes, input_dim))
    y = rng.integers(2, n_classes, size=n)
    x = centers[y] + rng.normal(size=(n, input_dim))
    rows = {c: centers[c] + rng.normal(size=(3, input_dim)) for c in (1, 0)}
    return (x, y), (np.concatenate([rows[0], rows[1]]), np.repeat([0, 1], 3))


def update(shard, anchors, general, cfg, *, mu=0.0, beta=0.0, old_general=None, seed=(0, 7, 0)):
    """`local_update` with the penalty weights given here, 0 by default, as a
    run passes them to every method but the one whose penalty it is."""
    cfg = replace(cfg, mu=mu, beta=beta)
    return local_update(shard, anchors, general, cfg, old_general=old_general, seed=seed)


def test_local_update_deterministic():
    shard, anchors = site_with_data()
    general = net()
    cfg = LocalLossConfig(local_epochs=2)
    a = update(shard, anchors, general, cfg, old_general=general, seed=[0, 7, 0, 1, 0])
    b = update(shard, anchors, general, cfg, old_general=general, seed=[0, 7, 0, 1, 0])
    assert np.array_equal(a.values, b.values)
    c = update(shard, anchors, general, cfg, old_general=general, seed=[0, 7, 0, 1, 1])
    assert not np.array_equal(a.values, c.values)


def test_local_update_streams_the_shard_then_the_anchors_as_given(monkeypatch):
    # the anchor pair is appended to the shard as it is given: rows out of
    # class order stay in that order, each with its own label
    shard, (ax, ay) = site_with_data()
    anchors = (ax[::-1].copy(), ay[::-1].copy())  # class 1's rows, then class 0's
    general = net()
    labels, kd_rows = [], []
    monkeypatch.setattr(
        "dcil.local_learner.one_hot", lambda y, n: labels.append(y) or one_hot(y, n)
    )
    monkeypatch.setattr(
        "dcil.local_learner._kd_teacher_probs", lambda old, x, *rest: kd_rows.append(x)
    )
    update(shard, anchors, general, LocalLossConfig(lr=0.0), old_general=general)
    assert np.array_equal(labels[0], np.concatenate([shard[1], anchors[1]]))
    assert np.array_equal(kd_rows[0], anchors[0])

    terms = []

    def spy(params, loss, out=None):
        terms.append(loss.terms)
        return backward(params, loss, out=out)

    monkeypatch.setattr("dcil.local_learner.backward", spy)
    cfg = LocalLossConfig(anchor_variant="replay_ce", local_epochs=1, batch_size=10**6)
    update(shard, anchors, general, cfg)
    (new, replay), = terms  # one batch: the shard's term, then the anchors'
    for term, (x, y) in ((new, shard), (replay, anchors)):
        got = term.targets.argmax(axis=1)
        assert np.array_equal(term.targets, np.eye(general.spec.n_classes)[got])
        assert sorted(map(tuple, np.column_stack([term.x, got]).tolist())) == sorted(
            map(tuple, np.column_stack([x, y]).tolist())
        )


def test_local_update_improves_fit_on_shard():
    shard, anchors = site_with_data()
    general = net()
    cfg = LocalLossConfig(local_epochs=5, lam=0.0, anchor_variant="replay_ce")
    out = update(shard, anchors, general, cfg)
    x, y = shard

    def shard_loss(p):
        _, logits = forward_batch(p, x)
        p1 = softmax_t(logits, 1.0)
        return float(-np.log(p1[np.arange(len(y)), y]).mean())

    assert shard_loss(out) < shard_loss(general)


def test_local_update_lr_zero_returns_start_bitwise(monkeypatch):
    calls = []
    monkeypatch.setattr("dcil.local_learner.backward", lambda *a: calls.append(a))
    shard, anchors = site_with_data()
    general = net()
    cfg = LocalLossConfig(lr=0.0, local_epochs=2)
    out = update(shard, anchors, general, cfg, old_general=general)
    assert np.array_equal(out.values, general.values)
    assert out.values is not general.values
    assert calls == []  # no gradient is computed only to be thrown away
    with pytest.raises(InputError):  # logit_kd anchors still need the old model
        update(shard, anchors, general, cfg)


def test_local_update_logit_kd_at_lambda_zero_needs_no_old_model(monkeypatch):
    # at lam 0 no anchor term reads a KD target, so none is built: logit_kd
    # trains exactly as replay_ce, without the previous general model
    shard, anchors = site_with_data()
    general = net()
    ce = update(shard, anchors, general,
                LocalLossConfig(anchor_variant="replay_ce", lam=0.0, local_epochs=2))

    def no_teacher(*args):
        raise AssertionError("built KD targets that no term reads")

    monkeypatch.setattr("dcil.local_learner._kd_teacher_probs", no_teacher)
    kd = update(shard, anchors, general, LocalLossConfig(lam=0.0, local_epochs=2))
    assert kd.values.tobytes() == ce.values.tobytes()


def test_local_update_empty_shard_returns_copy():
    shard = (np.empty((0, 3)), np.empty(0, dtype=np.int64))
    general = net()
    out = update(shard, no_anchors(3), general, LocalLossConfig())
    assert np.array_equal(out.values, general.values)


def test_local_update_general_left_untouched():
    shard, anchors = site_with_data()
    general = net()
    frozen = general.values.copy()
    update(shard, anchors, general, LocalLossConfig(local_epochs=2), old_general=general)
    assert np.array_equal(general.values, frozen)


def test_local_update_fedprox_pulls_toward_general():
    shard, anchors = site_with_data()
    general = net()
    cfg = LocalLossConfig(local_epochs=3, lam=0.0)
    loose = update(shard, anchors, general, cfg, mu=0.0, old_general=general)
    tight = update(shard, anchors, general, cfg, mu=5.0, old_general=general)
    d_loose = np.linalg.norm(loose.values - general.values)
    d_tight = np.linalg.norm(tight.values - general.values)
    assert d_tight < d_loose


def test_local_update_zero_weight_variant_matches_plain_bitwise(monkeypatch):
    # a zero penalty weight takes the exact same SGD path as no penalty:
    # zero-weight terms are skipped, not scaled by 0; a positive one joins
    # every step
    shard, anchors = site_with_data()
    general = net()
    cfg = LocalLossConfig(local_epochs=2)
    penalties = []

    def spy(params, loss, out=None):
        penalties.append({type(t).__name__ for t in loss.terms} & {"ProximalTerm",
                                                                   "UniformActivationTerm"})
        return backward(params, loss, out=out)

    monkeypatch.setattr("dcil.local_learner.backward", spy)
    for weights, expect in (({}, set()), ({"mu": 0.2}, {"ProximalTerm"}),
                            ({"beta": 50.0}, {"UniformActivationTerm"})):
        penalties.clear()
        update(shard, anchors, general, cfg, old_general=general, **weights)
        assert penalties and all(p == expect for p in penalties), weights


def test_local_update_lambda_controls_anchor_retention():
    general = net(seed=1)
    shard, anchors = site_with_data(seed=2, n=40)
    ax, ay = anchors

    def anchor_acc(p):
        _, logits = forward_batch(p, ax)
        return float((np.argmax(logits, axis=1) == ay).mean())

    free = update(shard, anchors, general, LocalLossConfig(lam=0.0, local_epochs=8),
                  old_general=general)
    held = update(shard, anchors, general, LocalLossConfig(lam=5.0, local_epochs=8),
                  old_general=general)
    assert anchor_acc(held) >= anchor_acc(free)
