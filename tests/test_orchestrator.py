"""Protocol orchestration: traces, degeneracy identities, ledger, evaluation."""

from dataclasses import replace

import numpy as np
import pytest
from oracles import zeros_params

from dcil.local_learner import LocalLossConfig
from dcil.nncore import ConfigError, InputError, NetSpec, init_params
from dcil.orchestrator import (
    MetricsRecord,
    RunConfig,
    _train_plain,
    evaluate,
    run,
    summarize,
)

# A small, fast configuration used by most tests here.
SMALL = RunConfig(
    n_sites=3,
    n_sessions=2,
    rounds=2,
    hidden_dims=(8,),
    n_classes=8,
    per_class=30,
    input_dim=4,
    n_base=4,
    base_epochs=5,
    local=LocalLossConfig(local_epochs=2),
    dad_epochs=10,
    dad_lr=0.5,
)


def records_equal(a: MetricsRecord, b: MetricsRecord) -> bool:
    return (
        a.session == b.session
        and a.accuracy == b.accuracy
        and a.per_class == b.per_class
        and a.seen_classes == b.seen_classes
        and a.comm == b.comm
    )


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_config_validation_rejects_inconsistencies():
    with pytest.raises(ConfigError):
        replace(SMALL, method="magic").validate()
    with pytest.raises(ConfigError):
        replace(SMALL, n_classes=9).validate()  # 5 rest classes, 2 sessions
    with pytest.raises(ConfigError):
        replace(SMALL, partition="sorted").validate()
    with pytest.raises(ConfigError):
        replace(SMALL, alpha=0.0).validate()
    with pytest.raises(ConfigError):
        replace(SMALL, tau1=0.0).validate()
    with pytest.raises(ConfigError):
        replace(SMALL, dad_lr=-1.0).validate()
    with pytest.raises(ConfigError):
        replace(SMALL, rounds=0).validate()
    for bad in ({"base_lr": -0.1}, {"base_epochs": -1}, {"per_class": 2}, {"spread": -1.0}):
        with pytest.raises(ConfigError):
            replace(SMALL, **bad).validate()


@pytest.mark.parametrize("method", ["dcid", "dcil_fedavg"])
def test_config_validation_rejects_unpartitionable_sites(method):
    # caught before any training, not by the partitioner mid-run
    with pytest.raises(ConfigError, match="dirichlet"):
        replace(SMALL, method=method, n_sites=1).validate()
    # per_class=30 leaves 24 training examples per class
    with pytest.raises(ConfigError, match="n_sites must be <= 24"):
        replace(SMALL, method=method, partition="iid", n_sites=25).validate()
    replace(SMALL, method=method, partition="iid", n_sites=24).validate()
    replace(SMALL, method="centralized", n_sites=1).validate()


def test_zero_learning_rate_plain_training_returns_input(monkeypatch):
    calls = []
    monkeypatch.setattr("dcil.orchestrator.backward", lambda *a: calls.append(a))
    params = init_params(NetSpec(4, (8,), 3), np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(20, 4)), rng.integers(0, 3, size=20)
    out = _train_plain(params, x, y, epochs=3, lr=0.0, batch_size=8, rng=rng)
    assert np.array_equal(out.values, params.values)
    assert out.values is not params.values
    assert calls == []


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def one_hot_net(n_classes, input_dim):
    # linear net whose logits equal the input, so predictions are argmax(x)
    spec = NetSpec(input_dim, (), n_classes)
    params = zeros_params(spec)
    w, b = params.layers()[0]
    w[:, :] = np.eye(input_dim, n_classes)
    return params


def test_evaluate_accuracy_and_per_class_accounting():
    params = one_hot_net(3, 3)
    pool = {
        0: np.array([[5.0, 0.0, 0.0], [0.0, 5.0, 0.0]]),  # one right, one wrong
        1: np.array([[0.0, 5.0, 0.0]]),
        2: np.array([[0.0, 0.0, 5.0]]),
    }
    acc, per_class = evaluate(params, pool, [0, 1, 2])
    assert per_class == {0: 0.5, 1: 1.0, 2: 1.0}
    # overall accuracy is the sample-weighted mean of per-class accuracy
    assert abs(acc - 3 / 4) < 1e-15


def test_evaluate_restricted_to_seen_classes():
    params = one_hot_net(4, 4)
    pool = {0: np.array([[1.0, 0.0, 0.0, 9.0]])}  # class 3 logit dominates
    acc, _ = evaluate(params, pool, [0, 1])  # but class 3 is unseen
    assert acc == 1.0


def test_evaluate_tie_breaks_toward_lowest_class():
    params = one_hot_net(3, 3)
    pool = {
        1: np.array([[0.0, 0.0, 0.0]]),  # all logits tie
        2: np.array([[0.0, 0.0, 0.0]]),
    }
    acc, per_class = evaluate(params, pool, [1, 2])
    assert per_class == {1: 1.0, 2: 0.0}


def test_evaluate_rejects_empty():
    params = one_hot_net(2, 2)
    with pytest.raises(InputError):
        evaluate(params, {}, [])
    with pytest.raises(InputError):
        evaluate(params, {0: np.empty((0, 2))}, [0])


def test_summarize_arithmetic():
    recs = [
        MetricsRecord(0, 0.9, {}, (0,), {}),
        MetricsRecord(1, 0.7, {}, (0, 1), {}),
        MetricsRecord(2, 0.5, {}, (0, 1, 2), {}),
    ]
    s = summarize(recs)
    assert abs(s["average_accuracy"] - 0.7) < 1e-15
    assert s["final_accuracy"] == 0.5
    with pytest.raises(InputError):
        summarize([])


# ---------------------------------------------------------------------------
# Run structure
# ---------------------------------------------------------------------------


def test_run_produces_one_record_per_session():
    res = run(SMALL)
    assert [r.session for r in res.records] == [0, 1, 2]
    assert res.records[0].seen_classes == (0, 1, 2, 3)
    assert res.records[2].seen_classes == tuple(range(8))
    assert all(0.0 <= r.accuracy <= 1.0 for r in res.records)


def test_trace_step_order_within_each_round():
    res = run(SMALL)
    steps = [
        "distribute", "did", "local_outputs", "anchors", "ensemble",
        "dcd", "fedavg", "local_outputs", "ensemble", "dad",
    ]
    expect = []
    for t in (1, 2):
        for r in (0, 1):
            expect.extend((t, r, s) for s in steps)
    assert res.trace == expect


def test_baseline_trace_matches_dcid_stage_order():
    # baselines run the dcid protocol over an empty shared pool
    dcid = run(SMALL)
    for method in ("dcil_fedavg", "dcil_fedmax", "dcil_fedprox"):
        assert run(replace(SMALL, method=method)).trace == dcid.trace


def test_centralized_has_empty_trace_and_no_communication():
    res = run(replace(SMALL, method="centralized"))
    assert res.trace == []
    assert all(sum(r.comm.values()) == 0 for r in res.records)


# ---------------------------------------------------------------------------
# Determinism and degeneracy identities
# ---------------------------------------------------------------------------


def test_repeat_run_bit_identical():
    a, b = run(SMALL), run(SMALL)
    assert all(records_equal(x, y) for x, y in zip(a.records, b.records))
    c = run(replace(SMALL, seed=1))
    assert not all(records_equal(x, y) for x, y in zip(a.records, c.records))


def test_degenerate_dcid_without_shared_pool_is_fedavg_baseline():
    dcid = run(replace(SMALL, shared_per_class=0))
    base = run(replace(SMALL, method="dcil_fedavg"))
    assert all(records_equal(x, y) for x, y in zip(dcid.records, base.records))


def test_degenerate_fedprox_mu0_and_fedmax_beta0_are_fedavg():
    base = run(replace(SMALL, method="dcil_fedavg"))
    prox = run(replace(SMALL, method="dcil_fedprox",
                       local=replace(SMALL.local, mu=0.0)))
    fmax = run(replace(SMALL, method="dcil_fedmax",
                       local=replace(SMALL.local, beta=0.0)))
    assert all(records_equal(x, y) for x, y in zip(base.records, prox.records))
    assert all(records_equal(x, y) for x, y in zip(base.records, fmax.records))


def test_zero_distillation_learning_rates_give_fedavg_accuracies():
    dcid = run(replace(SMALL, dcd_lr=0.0, dad_lr=0.0))
    base = run(replace(SMALL, method="dcil_fedavg"))
    for x, y in zip(dcid.records, base.records):
        assert x.accuracy == y.accuracy
        assert x.per_class == y.per_class


def test_single_site_single_round_no_pool_degeneracy_chain():
    solo = replace(
        SMALL, n_sites=1, rounds=1, shared_per_class=0, partition="iid"
    )
    dcid = run(solo)
    base = run(replace(solo, method="dcil_fedavg"))
    assert all(records_equal(x, y) for x, y in zip(dcid.records, base.records))


def test_methods_actually_differ_when_knobs_are_active():
    base = run(replace(SMALL, method="dcil_fedavg"))
    dcid = run(SMALL)
    prox = run(replace(SMALL, method="dcil_fedprox"))
    assert any(not records_equal(x, y) for x, y in zip(base.records, dcid.records))
    assert any(not records_equal(x, y) for x, y in zip(base.records, prox.records))


# ---------------------------------------------------------------------------
# Communication ledger
# ---------------------------------------------------------------------------


def expected_session_comm(cfg, n_head, pool_size):
    p = NetSpec(cfg.input_dim, cfg.hidden_dims, n_head, cfg.activation).param_count
    return {
        "params_down": cfg.rounds * cfg.n_sites * p,
        "params_up": cfg.rounds * cfg.n_sites * p,
        "shared_samples": pool_size,
        "logit_scalars": 2 * cfg.rounds * cfg.n_sites * pool_size * n_head,
    }


def test_ledger_closed_forms_dcid():
    cfg = SMALL
    res = run(cfg)
    k = 2  # new classes per session
    for t in (1, 2):
        rec = res.records[t]
        pool = rec.comm["shared_samples"]
        assert pool == cfg.shared_per_class * k  # enough data to fill the draw
        assert rec.comm == expected_session_comm(cfg, cfg.n_base + t * k, pool)


def test_ledger_baseline_moves_parameters_but_no_logits():
    cfg = replace(SMALL, method="dcil_fedavg")
    res = run(cfg)
    for t in (1, 2):
        rec = res.records[t]
        assert rec.comm["shared_samples"] == 0
        assert rec.comm["logit_scalars"] == 0
        expect = expected_session_comm(cfg, cfg.n_base + t * 2, 0)
        assert rec.comm["params_up"] == expect["params_up"]
        assert rec.comm["params_down"] == expect["params_down"]


def test_base_session_record_has_zero_communication():
    res = run(SMALL)
    assert res.records[0].comm == {
        "params_up": 0, "params_down": 0, "shared_samples": 0, "logit_scalars": 0,
    }
