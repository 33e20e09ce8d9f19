"""Per-site training: herding selection, anchor/regularizer losses, updates."""

import math

import numpy as np
import pytest
from oracles import anchor_loss, fedmax_regularizer, fedprox_term

from dcil.local_learner import (
    AnchorSet,
    LocalLossConfig,
    SiteState,
    local_update,
    select_anchors_herding,
    update_anchor_set,
)
from dcil.nncore import (
    ConfigError,
    InputError,
    NetSpec,
    ParameterError,
    expand_head,
    forward_batch,
    init_params,
    softmax_t,
)


def net(seed=0, input_dim=3, hidden=(5,), n_classes=4):
    spec = NetSpec(input_dim, hidden, n_classes)
    return init_params(spec, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Herding
# ---------------------------------------------------------------------------


def herding_oracle(feats, k_max):
    """Brute-force greedy: at each step try every remaining example."""
    mu = feats.mean(axis=0)
    chosen, total = [], np.zeros(feats.shape[1])
    remaining = list(range(len(feats)))
    for k in range(1, min(k_max, len(feats)) + 1):
        best, best_d = None, None
        for i in remaining:
            d = np.linalg.norm(mu - (feats[i] + total) / k)
            if best_d is None or d < best_d - 1e-15:
                best, best_d = i, d
        chosen.append(best)
        remaining.remove(best)
        total = total + feats[best]
    return chosen


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
    with pytest.raises(ParameterError):
        select_anchors_herding(params, np.ones((3, 3)), 0)


# ---------------------------------------------------------------------------
# Anchor sets
# ---------------------------------------------------------------------------


def test_anchor_set_stacked_order_and_len():
    a = AnchorSet({2: np.ones((2, 3)), 0: np.zeros((1, 3))})
    x, y = a.stacked()
    assert y.tolist() == [0, 2, 2]
    assert len(a) == 3
    assert a.classes == (0, 2)


def test_update_anchor_set_merges_disjoint():
    a = AnchorSet({0: np.zeros((1, 3))})
    b = AnchorSet({1: np.ones((2, 3))})
    merged = update_anchor_set(a, b)
    assert merged.classes == (0, 1)
    assert a.classes == (0,)  # inputs untouched
    with pytest.raises(InputError):
        update_anchor_set(merged, b)


# ---------------------------------------------------------------------------
# Loss building blocks
# ---------------------------------------------------------------------------


def test_anchor_loss_replay_ce_closed_form():
    params = net()
    anchors = AnchorSet({1: np.random.default_rng(0).normal(size=(3, 3))})
    val = anchor_loss(params, None, anchors, "replay_ce")
    ax, _ = anchors.stacked()
    _, logits = forward_batch(params, ax)
    p = softmax_t(logits, 1.0)
    expect = float(np.mean([-math.log(p[i, 1]) for i in range(3)]))
    assert abs(val - expect) < 1e-12


def test_anchor_loss_logit_kd_zero_when_student_equals_teacher():
    params = net()
    anchors = AnchorSet({0: np.random.default_rng(1).normal(size=(4, 3))})
    val = anchor_loss(params, params, anchors, "logit_kd", temperature=2.0)
    assert abs(val) < 1e-12


def test_anchor_loss_logit_kd_wider_student_penalizes_new_mass():
    old = net()
    wide = expand_head(old, 2)
    anchors = AnchorSet({0: np.random.default_rng(2).normal(size=(4, 3))})
    # zero-init expansion keeps new logits at 0, which still gets softmax
    # mass, so the KL against the zero-padded teacher must be positive
    val = anchor_loss(wide, old, anchors, "logit_kd", temperature=2.0)
    assert val > 0.01


def test_anchor_loss_empty_returns_zero(caplog):
    assert anchor_loss(net(), None, AnchorSet(), "replay_ce") == 0.0


def test_anchor_loss_logit_kd_requires_old_model():
    anchors = AnchorSet({0: np.ones((1, 3))})
    with pytest.raises(InputError):
        anchor_loss(net(), None, anchors, "logit_kd")


def test_fedmax_regularizer_closed_form():
    # softmax([ln 2, 0]) = (2/3, 1/3); KL to uniform over 2 entries
    f = np.array([[math.log(2.0), 0.0]])
    expect = (2 / 3) * math.log((2 / 3) / 0.5) + (1 / 3) * math.log((1 / 3) / 0.5)
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
        LocalLossConfig(variant="sgd")
    with pytest.raises(ConfigError):
        LocalLossConfig(anchor_variant="none")
    with pytest.raises(ConfigError):
        LocalLossConfig(lam=-1.0)
    with pytest.raises(ConfigError):
        LocalLossConfig(lr=-0.1)
    with pytest.raises(ConfigError):
        LocalLossConfig(batch_size=0)


# ---------------------------------------------------------------------------
# local_update behavior
# ---------------------------------------------------------------------------


def site_with_data(seed=0, n=24, n_classes=4, input_dim=3):
    rng = np.random.default_rng(seed)
    centers = 3.0 * rng.normal(size=(n_classes, input_dim))
    y = rng.integers(2, n_classes, size=n)  # "new" classes 2..3
    x = centers[y] + rng.normal(size=(n, input_dim))
    anchors = AnchorSet({
        0: centers[0] + rng.normal(size=(3, input_dim)),
        1: centers[1] + rng.normal(size=(3, input_dim)),
    })
    return SiteState(0, x, y, anchors, (seed, 7, 0))


def test_local_update_deterministic():
    site = site_with_data()
    general = net()
    cfg = LocalLossConfig(local_epochs=2)
    a = local_update(site, general, cfg, old_general=general, session=1, round_idx=0)
    b = local_update(site, general, cfg, old_general=general, session=1, round_idx=0)
    assert np.array_equal(a.values, b.values)
    c = local_update(site, general, cfg, old_general=general, session=1, round_idx=1)
    assert not np.array_equal(a.values, c.values)


def test_local_update_improves_fit_on_shard():
    site = site_with_data()
    general = net()
    cfg = LocalLossConfig(local_epochs=5, lam=0.0, anchor_variant="replay_ce")
    out = local_update(site, general, cfg)

    def shard_loss(p):
        _, logits = forward_batch(p, site.shard_x)
        p1 = softmax_t(logits, 1.0)
        return float(-np.log(p1[np.arange(len(site.shard_y)), site.shard_y]).mean())

    assert shard_loss(out) < shard_loss(general)


def test_local_update_lr_zero_returns_start_bitwise(monkeypatch):
    calls = []
    monkeypatch.setattr("dcil.local_learner.backward", lambda *a: calls.append(a))
    site = site_with_data()
    general = net()
    cfg = LocalLossConfig(lr=0.0, local_epochs=2)
    out = local_update(site, general, cfg, old_general=general)
    assert np.array_equal(out.values, general.values)
    assert out.values is not general.values
    assert calls == []  # no gradient is computed only to be thrown away
    with pytest.raises(InputError):  # logit_kd anchors still need the old model
        local_update(site, general, cfg)


def test_local_update_empty_shard_returns_copy():
    site = SiteState(0, np.empty((0, 3)), np.empty(0, dtype=np.int64))
    general = net()
    out = local_update(site, general, LocalLossConfig())
    assert np.array_equal(out.values, general.values)


def test_local_update_general_left_untouched():
    site = site_with_data()
    general = net()
    frozen = general.values.copy()
    local_update(site, general, LocalLossConfig(local_epochs=2), old_general=general)
    assert np.array_equal(general.values, frozen)


def test_local_update_fedprox_pulls_toward_general():
    site = site_with_data()
    general = net()
    loose = local_update(
        site, general,
        LocalLossConfig(variant="fedprox", mu=0.0, local_epochs=3, lam=0.0),
        old_general=general,
    )
    tight = local_update(
        site, general,
        LocalLossConfig(variant="fedprox", mu=5.0, local_epochs=3, lam=0.0),
        old_general=general,
    )
    d_loose = np.linalg.norm(loose.values - general.values)
    d_tight = np.linalg.norm(tight.values - general.values)
    assert d_tight < d_loose


def test_local_update_zero_weight_variant_matches_plain_bitwise():
    # mu=0 fedprox and beta=0 fedmax must take the exact same SGD path as
    # the plain variant: zero-weight terms are skipped, not scaled by 0
    site = site_with_data()
    general = net()
    base = local_update(site, general, LocalLossConfig(variant="fedavg", local_epochs=2),
                        old_general=general)
    prox = local_update(site, general,
                        LocalLossConfig(variant="fedprox", mu=0.0, local_epochs=2),
                        old_general=general)
    fmax = local_update(site, general,
                        LocalLossConfig(variant="fedmax", beta=0.0, local_epochs=2),
                        old_general=general)
    assert np.array_equal(base.values, prox.values)
    assert np.array_equal(base.values, fmax.values)


def test_local_update_lambda_controls_anchor_retention():
    rng = np.random.default_rng(0)
    general = net(seed=1)
    site = site_with_data(seed=2, n=40)
    ax, ay = site.anchors.stacked()

    def anchor_acc(p):
        _, logits = forward_batch(p, ax)
        return float((np.argmax(logits, axis=1) == ay).mean())

    free = local_update(site, general, LocalLossConfig(lam=0.0, local_epochs=8),
                        old_general=general)
    held = local_update(site, general, LocalLossConfig(lam=5.0, local_epochs=8),
                        old_general=general)
    assert anchor_acc(held) >= anchor_acc(free)
