"""Protocol orchestration: stage order, degeneracy identities, ledger, evaluation."""

import gc
import importlib
import pickle
import re
import weakref
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from oracles import zeros_params

from dcil import orchestrator
from dcil.config import METHODS
from dcil.data import make_synthetic, split_sessions, train_count
from dcil.distillation import dad_refine, dcd_finetune
from dcil.local_learner import LocalLossConfig, local_update, select_anchors_herding
from dcil.nncore import ConfigError, InputError, NetSpec, ParamVector, forward_batch, init_params
from dcil.orchestrator import (
    _S_DATA,
    _S_SPLIT,
    MetricsRecord,
    RunConfig,
    _head,
    _herd,
    _partition,
    _protocol,
    _sessions,
    _train_fresh,
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
        replace(SMALL, method="magic")
    with pytest.raises(ConfigError):
        replace(SMALL, n_classes=9)  # 5 rest classes, 2 sessions
    with pytest.raises(ConfigError):
        replace(SMALL, partition="sorted")
    with pytest.raises(ConfigError):
        replace(SMALL, alpha=0.0)
    with pytest.raises(ConfigError):
        replace(SMALL, tau1=0.0)
    with pytest.raises(ConfigError):
        replace(SMALL, dad_lr=-1.0)
    with pytest.raises(ConfigError):
        replace(SMALL, rounds=0)
    for bad in ({"base_lr": -0.1}, {"base_epochs": -1}, {"per_class": 2}, {"spread": -1.0}):
        with pytest.raises(ConfigError):
            replace(SMALL, **bad)


@pytest.mark.parametrize(
    "n_base, n_sessions",
    [(4, 0), (4, -1), (0, 2), (8, 2), (9, 2), (4, 3)],
    ids=["sessions_0", "sessions_neg1", "base_0", "base_eq_classes", "base_gt_classes",
         "indivisible"],
)
def test_config_and_split_sessions_reject_a_bad_split_alike(n_base, n_sessions):
    # one rule and one message, whichever checks it; sessions <= 0 never
    # reaches the modulo (a ZeroDivisionError would escape pytest.raises)
    message = f"cannot split 8 classes into {n_base} base + {n_sessions} equal sessions"
    with pytest.raises(ConfigError) as from_config:
        replace(SMALL, n_base=n_base, n_sessions=n_sessions)
    with pytest.raises(ConfigError) as from_split:
        split_sessions(make_synthetic(8, 10, 4, 1.0, 0), n_base, n_sessions, 0)
    assert str(from_config.value) == str(from_split.value) == message


def test_config_validation_rejects_non_finite_floats():
    # every range check is False for NaN, so finiteness is checked on its own
    floats = [f.name for f in fields(RunConfig) if f.type == "float"]
    local_floats = [f.name for f in fields(LocalLossConfig) if f.type == "float"]
    assert len(floats) == 7 and len(local_floats) == 5
    for value in (np.nan, np.inf, -np.inf):
        for name in floats:
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                replace(SMALL, **{name: value})
        for name in local_floats:
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                LocalLossConfig(**{name: value})


@pytest.mark.parametrize("method", ["dcid", "dcil_fedavg"])
def test_config_validation_rejects_unpartitionable_sites(method):
    # caught before any training, not by the partitioner mid-run
    with pytest.raises(ConfigError, match="dirichlet"):
        replace(SMALL, method=method, n_sites=1)
    # per_class=30 leaves 24 training examples per class
    with pytest.raises(ConfigError, match="n_sites must be <= 24"):
        replace(SMALL, method=method, partition="iid", n_sites=25)
    replace(SMALL, method=method, partition="iid", n_sites=24)
    replace(SMALL, method="centralized", n_sites=1)


def test_zero_learning_rate_plain_training_returns_input(monkeypatch):
    calls = []
    monkeypatch.setattr("dcil.orchestrator.backward", lambda *a: calls.append(a))
    spec = NetSpec(4, (8,), 3)
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(20, 4)), rng.integers(0, 3, size=20)
    out = _train_fresh(spec, x, y, epochs=3, lr=0.0, batch_size=8, init_seed=0, seed=1)
    assert np.array_equal(out.values, init_params(spec, np.random.default_rng(0)).values)
    assert calls == []


def test_negative_label_raises_before_any_step(monkeypatch):
    # labels are encoded once per training call, before `fit` runs a step: a
    # wrapped -1 would otherwise train silently on the last class
    def no_step(*args):
        raise AssertionError("trained on a -1 label")

    monkeypatch.setattr("dcil.orchestrator.fit", no_step)
    monkeypatch.setattr("dcil.local_learner.fit", no_step)
    spec = NetSpec(4, (8,), 3)
    params = init_params(spec, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(20, 4)), rng.integers(0, 3, size=20)
    y[7] = -1
    with pytest.raises(InputError, match="label out of range"):
        _train_fresh(spec, x, y, epochs=1, lr=0.1, batch_size=8, init_seed=0, seed=1)
    cfg = LocalLossConfig(anchor_variant="replay_ce", local_epochs=1)
    with pytest.raises(InputError, match="label out of range"):
        local_update((x, y), (x[:0], y[:0]), params, cfg, old_general=None, seed=2)


def test_every_trainer_checks_the_width_of_its_rows_whatever_the_lr():
    # rows of the wrong width, or with a NaN, raise `forward_batch`'s error
    # before `fit`'s zero-lr / no-row shortcut, so no learning rate, epoch
    # count or empty pool lets them through (`LocalLossConfig` allows no 0
    # local epochs)
    spec = NetSpec(3, (5,), 4)
    params = init_params(spec, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    wide, y = rng.normal(size=(5, 4)), rng.integers(0, 4, size=5)
    nan = wide[:, :3].copy()
    nan[2, 1] = np.nan

    def train(x, lr, epochs):
        return _train_fresh(spec, x, y[: len(x)], epochs, lr, 8, 0, 1)

    def local(x, lr, epochs):
        cfg = LocalLossConfig(lr=lr, local_epochs=max(epochs, 1))
        return local_update((x, y[: len(x)]), (x[:0], y[:0]), params, cfg,
                            old_general=None, seed=2)

    def distill(stage):
        return lambda x, lr, epochs: stage(params, np.zeros((len(x), 4)), x, 2.0, lr, epochs, 3)

    for trainer in (train, local, distill(dcd_finetune), distill(dad_refine)):
        for x, lr, epochs in ((wide, 0.0, 1), (wide, 0.1, 0), (wide[:0], 0.1, 1), (wide, 0.1, 1),
                              (nan, 0.0, 1), (nan, 0.1, 0), (nan, 0.1, 1)):
            with pytest.raises(InputError) as info:
                forward_batch(params, x)
            with pytest.raises(InputError, match=f"^{re.escape(str(info.value))}$"):
                trainer(x, lr, epochs)


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
    x = np.array([
        [5.0, 0.0, 0.0],  # class 0: one right,
        [0.0, 5.0, 0.0],  # one wrong
        [0.0, 0.0, 5.0],  # class 2
    ])
    acc, per_class = evaluate(params, x, np.array([0, 0, 2]))
    # only the classes present in y get an entry, though the head has three
    assert per_class == {0: 0.5, 2: 1.0}
    # overall accuracy is the sample-weighted mean of per-class accuracy
    assert abs(acc - 2 / 3) < 1e-15


def test_evaluate_tie_breaks_toward_lowest_class():
    params = one_hot_net(3, 3)
    x = np.array([
        [0.0, 0.0, 0.0],  # all three logits tie
        [-1.0, 0.0, 0.0],  # classes 1 and 2 tie
        [-1.0, 0.0, 0.0],
    ])
    acc, per_class = evaluate(params, x, np.array([0, 1, 2]))
    assert per_class == {0: 1.0, 1: 1.0, 2: 0.0}


def test_evaluate_rejects_empty():
    params = one_hot_net(2, 2)
    with pytest.raises(InputError, match="empty test set"):
        evaluate(params, np.empty((0, 2)), np.empty(0, dtype=np.int64))


def test_sessions_test_set_is_sorted_by_head_and_covers_every_class():
    _, (x, y) = _sessions(SMALL)
    n_test = SMALL.per_class - train_count(SMALL.per_class)
    assert x.shape == (SMALL.n_classes * n_test, SMALL.input_dim)
    assert np.array_equal(y, np.repeat(np.arange(SMALL.n_classes), n_test))


def test_record_scores_the_seen_class_prefix_of_the_test_set(monkeypatch):
    # the per-class pool the test set replaced, concatenated in head order
    ds = make_synthetic(
        SMALL.n_classes, SMALL.per_class, SMALL.input_dim, SMALL.spread, [SMALL.seed, _S_DATA]
    )
    split = split_sessions(ds, SMALL.n_base, SMALL.n_sessions, [SMALL.seed, _S_SPLIT])
    order = [*split.base_classes, *(c for chunk in split.session_classes for c in chunk)]
    pool = {h: ds.test_x[ds.test_y == c] for h, c in enumerate(order)}

    scored = []

    def spy(params, x, y):
        scored.append((x, y))
        return 1.0, {}

    monkeypatch.setattr(orchestrator, "evaluate", spy)
    _, test = _sessions(SMALL)
    for t in range(SMALL.n_sessions + 1):
        spec = NetSpec(SMALL.input_dim, SMALL.hidden_dims, _head(SMALL, t))
        traffic = {"params_up": 0, "params_down": 0, "shared_samples": 0, "logit_scalars": 0}
        orchestrator._record(t, zeros_params(spec), test, traffic, _head(SMALL, t))
        x, y = scored[-1]
        classes = range(_head(SMALL, t))
        assert np.array_equal(x, np.concatenate([pool[h] for h in classes]))
        assert np.array_equal(y, np.concatenate([np.full(len(pool[h]), h) for h in classes]))


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


STAGES = (
    "local_update", "compute_logits_table", "select_anchors_herding", "ensemble_logits",
    "dcd_finetune", "fedavg_aggregate", "dad_refine",
)


def _logging(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapper


def log_stage_calls(monkeypatch) -> list[str]:
    """Wrap the stage functions the orchestrator calls; returns the live call log."""
    orch = importlib.import_module("dcil.orchestrator")
    calls: list[str] = []
    for name in STAGES:
        monkeypatch.setattr(orch, name, _logging(calls, name, getattr(orch, name)))
    return calls


def collapsed(calls: list[str]) -> list[str]:
    """The call log with consecutive calls to one stage (one per site) as one entry."""
    return [name for i, name in enumerate(calls) if i == 0 or calls[i - 1] != name]


def test_stage_call_order_within_each_round(monkeypatch):
    calls = log_stage_calls(monkeypatch)
    run(SMALL)
    # anchors are herded once for the base classes, then once per session in
    # its last round, from the local models before the DCD teacher is built
    expect = ["select_anchors_herding"]
    for _ in (1, 2):
        for r in (0, 1):
            expect += ["local_update"]
            expect += ["select_anchors_herding"] if r == 1 else []
            expect += [
                "compute_logits_table", "ensemble_logits", "dcd_finetune", "fedavg_aggregate",
                "compute_logits_table", "ensemble_logits", "dad_refine",
            ]
    assert collapsed(calls) == expect


def test_baseline_stage_calls_match_dcid(monkeypatch):
    # baselines run the dcid protocol over an empty shared pool
    calls = log_stage_calls(monkeypatch)
    run(SMALL)
    dcid = collapsed(calls)
    for method in ("dcil_fedavg", "dcil_fedmax", "dcil_fedprox"):
        calls.clear()
        run(replace(SMALL, method=method))
        assert collapsed(calls) == dcid, method


def test_centralized_makes_no_stage_call_and_no_communication(monkeypatch):
    calls = log_stage_calls(monkeypatch)
    res = run(replace(SMALL, method="centralized"))
    assert calls == []
    assert all(sum(r.comm.values()) == 0 for r in res.records)


# The orchestrator function each protocol stage asks the driver to call.
STAGE_FUNCTION = {
    "base": "_train_fresh", "centralized": "_train_fresh", "local": "local_update",
    "herding": "_herd", "teacher": "_teacher", "dcd": "dcd_finetune",
    "fedavg": "fedavg_aggregate", "dad": "dad_refine", "evaluate": "_record",
}


def drive_logging(gen, log):
    """A driver of `_protocol` of its own: serves each request and logs its
    (stage, session, round, site), checking that its function is the one the
    orchestrator's namespace holds at that point."""
    result = None
    while True:
        try:
            stage, session, rnd, site, fn, args = gen.send(result)
        except StopIteration as stop:
            return stop.value
        assert fn is getattr(orchestrator, STAGE_FUNCTION[stage]), stage
        log.append((stage, session, rnd, site))
        result = fn(*args)


@pytest.mark.parametrize("method", ["dcid", "dcil_fedavg", "centralized"])
def test_protocol_yields_every_trainer_call_in_order(method):
    cfg = replace(SMALL, method=method)
    log = []
    records = drive_logging(_protocol(cfg), log)
    sites = range(cfg.n_sites)
    expect = [("base", 0, None, None), ("evaluate", 0, None, None)]
    if method != "centralized":
        expect += [("herding", 0, None, m) for m in sites]  # the base-class anchors
    for t in range(1, cfg.n_sessions + 1):
        if method == "centralized":
            expect += [("centralized", t, None, None), ("evaluate", t, None, None)]
            continue
        for r in range(cfg.rounds):
            expect += [("local", t, r, m) for m in sites]
            if r == cfg.rounds - 1:
                expect += [("herding", t, r, m) for m in sites]
            expect.append(("teacher", t, r, None))
            expect += [("dcd", t, r, m) for m in sites]
            expect += [("fedavg", t, r, None), ("teacher", t, r, None), ("dad", t, r, None)]
        expect.append(("evaluate", t, None, None))
    assert log == expect
    expected = run(cfg).records
    assert len(records) == len(expected) == cfg.n_sessions + 1
    assert all(map(records_equal, records, expected))


def same(a, b) -> bool:
    """Two requests, or parts of one, compared by value: an array by
    `np.array_equal`, a `ParamVector` by its spec and values, a container
    element by element, anything else (a config, a function) by `==`."""
    if isinstance(a, ParamVector):
        return isinstance(b, ParamVector) and a.spec == b.spec and np.array_equal(a.values, b.values)
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


def requests(cfg, until=None) -> list:
    """The requests `_protocol(cfg)` yields, each served in turn, up to the
    first of stage `until`, which is kept and not served."""
    gen, sent, result = _protocol(cfg), [], None
    while True:
        try:
            request = gen.send(result)
        except StopIteration:
            return sent
        sent.append(request)
        if request[0] == until:
            return sent
        *_, fn, args = request
        result = fn(*args)


def test_every_method_and_alpha_sends_one_base_request():
    base = [next(_protocol(replace(SMALL, method=method, alpha=alpha)))
            for method in METHODS for alpha in (0.1, 10.0)]
    assert base[0][0] == "base"
    assert all(same(request, base[0]) for request in base[1:])


def test_dcid_and_fedavg_send_equal_requests_up_to_the_first_teacher():
    dcid = requests(SMALL, until="teacher")
    fedavg = requests(replace(SMALL, method="dcil_fedavg"), until="teacher")
    sites = SMALL.n_sites
    assert [r[0] for r in dcid] == ["base", "evaluate", *["herding"] * sites, *["local"] * sites,
                                    "teacher"]
    assert len(dcid) == len(fedavg) and all(map(same, dcid[:-1], fedavg[:-1]))
    assert not same(dcid[-1], fedavg[-1])  # only dcid's teacher has a shared pool


def test_runs_that_do_fedavgs_work_send_fedavgs_requests():
    fedavg = requests(replace(SMALL, method="dcil_fedavg"))
    # base, evaluate and herding, then per session its rounds' local, teacher,
    # DCD, FedAvg, teacher and DAD requests, its herding and its evaluate
    sites, rounds = SMALL.n_sites, SMALL.rounds
    per_session = rounds * (2 * sites + 4) + sites + 1
    assert len(fedavg) == 2 + sites + SMALL.n_sessions * per_session
    for cfg in (
        replace(SMALL, method="dcil_fedmax", local=replace(SMALL.local, beta=0.0)),
        replace(SMALL, method="dcil_fedprox", local=replace(SMALL.local, mu=0.0)),
        replace(SMALL, shared_per_class=0),
    ):
        got = requests(cfg)
        assert len(got) == len(fedavg) and all(map(same, got, fedavg)), cfg.method


def test_each_method_ignores_the_penalty_weight_it_does_not_use():
    def records(method, beta, mu):
        local = replace(SMALL.local, beta=beta, mu=mu)
        return pickle.dumps(run(replace(SMALL, method=method, local=local)).records)

    for method in ("dcid", "dcil_fedavg"):
        assert records(method, 50.0, 0.2) == records(method, 500.0, 5.0), method
    assert records("dcil_fedmax", 50.0, 0.2) == records("dcil_fedmax", 50.0, 5.0)
    assert records("dcil_fedprox", 50.0, 0.2) == records("dcil_fedprox", 500.0, 0.2)


@pytest.mark.parametrize("method", ["dcid", "dcil_fedavg"])
def test_a_round_holds_one_generation_of_site_models(monkeypatch, method):
    # The spies keep only weak references: holding a model would keep it alive.
    orch = importlib.import_module("dcil.orchestrator")
    local, dcd, previous = [], [], []  # this round's models and the last round's
    checked = []  # one entry per round checked at its DAD call
    local_update, dcd_finetune = orch.local_update, orch.dcd_finetune
    fedavg_aggregate, dad_refine = orch.fedavg_aggregate, orch.dad_refine

    def alive(refs):
        gc.collect()
        return [ref() for ref in refs if ref() is not None]

    def spy_local(*args, **kwargs):
        if not local:  # a round's first local update
            assert alive(previous) == []
        out = local_update(*args, **kwargs)
        local.append(weakref.ref(out))
        return out

    def spy_dcd(site_params, *args, **kwargs):
        assert site_params is local[len(dcd)]()  # in site order
        out = dcd_finetune(site_params, *args, **kwargs)
        dcd.append(weakref.ref(out))
        return out

    def spy_fedavg(param_list, *args, **kwargs):
        assert len(param_list) == len(dcd)
        assert all(p is ref() for p, ref in zip(param_list, dcd))
        return fedavg_aggregate(param_list, *args, **kwargs)

    def spy_dad(*args, **kwargs):
        assert len(local) == len(dcd) == SMALL.n_sites
        assert alive(local + dcd) == []
        checked.append(True)
        previous[:] = local + dcd
        local.clear()
        dcd.clear()
        return dad_refine(*args, **kwargs)

    monkeypatch.setattr(orch, "local_update", spy_local)
    monkeypatch.setattr(orch, "dcd_finetune", spy_dcd)
    monkeypatch.setattr(orch, "fedavg_aggregate", spy_fedavg)
    monkeypatch.setattr(orch, "dad_refine", spy_dad)
    run(replace(SMALL, method=method))
    assert len(checked) == SMALL.n_sessions * SMALL.rounds


def _counting(counts, key, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_every_trainer_step_is_one_backward_and_one_sgd_step(monkeypatch):
    # The benchmark tracer times steps and loss terms by wrapping `backward` and
    # `sgd_step` in each trainer's module namespace; a trainer that stopped
    # calling either through its own module would blank those metrics.
    modules = ("orchestrator", "local_learner", "distillation")
    counts = Counter()
    for module in modules:
        namespace = importlib.import_module(f"dcil.{module}")
        for name in ("backward", "sgd_step"):
            wrapped = _counting(counts, (module, name), getattr(namespace, name))
            monkeypatch.setattr(namespace, name, wrapped)
    # the values of the benchmark's tiny dcid run
    cfg = RunConfig(
        method="dcid", n_classes=6, n_base=2, n_sessions=2, n_sites=3, rounds=1,
        input_dim=4, per_class=20, hidden_dims=(8,), base_epochs=1,
        local=LocalLossConfig(local_epochs=1), dad_epochs=2, dcd_epochs=1,
        anchors_per_class=2, shared_per_class=4, partition="iid",
    )
    run(cfg)
    for module in modules:
        assert counts[module, "backward"] == counts[module, "sgd_step"] > 0, (module, counts)


def test_every_trainer_call_reuses_one_workspace(monkeypatch):
    # `fit` builds one gradient vector per trainer call and hands it to every
    # step, and `backward` writes into the vector it is given and returns it:
    # guard the reused vector of every stage call, and a fresh one per call.
    events = []

    def stage(name, fn):
        def wrapper(*args, **kwargs):
            events.append(("stage", name))
            return fn(*args, **kwargs)

        return wrapper

    def fitting(fn):
        def wrapper(params, lr, x, batch_size, epochs, seed, step):
            def spy(params, sel, grad):
                events.append(("handed", grad))
                step(params, sel, grad)

            return fn(params, lr, x, batch_size, epochs, seed, spy)

        return wrapper

    def backward(fn):
        def wrapper(params, loss, out):
            events.append(("written", out))
            assert fn(params, loss, out=out) is out
            return out

        return wrapper

    orch = importlib.import_module("dcil.orchestrator")
    dist = importlib.import_module("dcil.distillation")
    for namespace, name in ((orch, "_train_fresh"), (orch, "local_update"), (dist, "_distill")):
        monkeypatch.setattr(namespace, name, stage(name, getattr(namespace, name)))
    for module in ("orchestrator", "local_learner", "distillation"):
        namespace = importlib.import_module(f"dcil.{module}")
        monkeypatch.setattr(namespace, "fit", fitting(namespace.fit))
        monkeypatch.setattr(namespace, "backward", backward(namespace.backward))
    trainers = {
        "dcid": {"_train_fresh", "local_update", "_distill"},
        # the baselines' shared pool is empty, so `_distill` takes no step
        "dcil_fedprox": {"_train_fresh", "local_update"},
        "centralized": {"_train_fresh"},
    }
    for method, stepping in trainers.items():
        events.clear()
        run(replace(SMALL, method=method))
        calls = []
        for kind, value in events:
            if kind == "stage":
                calls.append((value, [], []))
            else:
                calls[-1][1 if kind == "handed" else 2].append(value)
        assert {name for name, _, written in calls if written} == stepping, method
        firsts = []
        for name, handed, written in calls:
            if handed:
                # every step of one call gets the same vector, and `backward` writes it
                assert all(grad is handed[0] for grad in handed + written), (method, name)
                firsts.append(handed[0])
        assert len({id(grad) for grad in firsts}) == len(firsts), method


@pytest.mark.parametrize("name, message", [
    ("_herd", "herding diverged in session 0, site 0: "),
    ("local_update", "local diverged in session 1, round 0, site 0: "),
    ("_teacher", "teacher diverged in session 1, round 0: "),
])
def test_a_trap_outside_fit_names_its_stage_and_place(monkeypatch, name, message):
    # `_drive` reads each stage's function from the module at its request and
    # turns a trap outside `fit` into an `InputError` naming the request
    def trap(*args):
        raise FloatingPointError("overflow encountered in dot")

    monkeypatch.setattr(orchestrator, name, trap)
    with pytest.raises(InputError) as info:
        run(SMALL)
    assert str(info.value) == message + "overflow encountered in dot"
    assert isinstance(info.value.__cause__, FloatingPointError)


def test_herding_runs_once_per_session_site_and_held_class(monkeypatch):
    orch = importlib.import_module("dcil.orchestrator")
    herded = Counter()

    def counting(params, examples, k_max):
        herded[params.spec.n_classes] += 1
        return select(params, examples, k_max)

    select = orch.select_anchors_herding
    monkeypatch.setattr(orch, "select_anchors_herding", counting)
    cfg = replace(SMALL, rounds=3)
    run(cfg)
    train, _ = _sessions(cfg)
    expect = Counter()
    for t in range(cfg.n_sessions + 1):
        classes = range(_head(cfg, t - 1) if t else 0, _head(cfg, t))
        for _, sy in _partition(cfg, *train[t], t).shards:
            held = set(np.unique(sy).tolist()) & set(classes)
            expect[_head(cfg, t)] += len(held)
    assert herded == expect


@pytest.mark.parametrize(
    "cfg",
    [SMALL, replace(SMALL, partition="iid"), replace(SMALL, anchors_per_class=0)],
    ids=["dirichlet", "iid", "no-anchors"],
)
def test_herd_gives_the_class_dict_stacked_in_class_order(cfg):
    # the oracle herds each of the session's classes the shard holds into a
    # {class: rows} dict, then stacks it in sorted class order with its labels
    def dict_oracle(params, shard, classes):
        x, y = shard
        picked = {}
        for c in classes if cfg.anchors_per_class >= 1 else ():
            if (y == c).any():
                examples = x[y == c]
                picked[c] = examples[
                    select_anchors_herding(params, examples, cfg.anchors_per_class)
                ]
        order = sorted(picked)
        return (
            np.concatenate([x[:0], *(picked[c] for c in order)]),
            np.concatenate([y[:0], *(np.full(len(picked[c]), c) for c in order)]),
        )

    train, _ = _sessions(cfg)
    for t in range(cfg.n_sessions + 1):
        classes = range(_head(cfg, t - 1) if t else 0, _head(cfg, t))
        params = init_params(
            NetSpec(cfg.input_dim, cfg.hidden_dims, _head(cfg, t)), np.random.default_rng(t)
        )
        shards = _partition(cfg, *train[t], t).shards
        x, y = shards[0]
        shards.append((x[y != classes[0]], y[y != classes[0]]))  # one class short
        for shard in shards:
            got = _herd(params, shard, cfg.anchors_per_class)
            want = dict_oracle(params, shard, classes)
            for g, w in zip(got, want):
                assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())
            if cfg.anchors_per_class == 0:
                assert got[0].shape == (0, cfg.input_dim) and got[1].dtype == np.int64


# ---------------------------------------------------------------------------
# Determinism and degeneracy identities
# ---------------------------------------------------------------------------


def test_repeat_run_bit_identical():
    a, b = run(SMALL), run(SMALL)
    assert all(records_equal(x, y) for x, y in zip(a.records, b.records))
    c = run(replace(SMALL, seed=1))
    assert not all(records_equal(x, y) for x, y in zip(a.records, c.records))


def test_every_method_trains_the_same_base_session():
    # one fresh-model trainer, with the base seeds, serves every method
    base = run(SMALL).records[0]
    for method in ("dcil_fedavg", "dcil_fedmax", "dcil_fedprox", "centralized"):
        assert records_equal(run(replace(SMALL, method=method)).records[0], base), method


def test_degenerate_dcid_without_shared_pool_is_fedavg_baseline():
    dcid = run(replace(SMALL, shared_per_class=0))
    base = run(replace(SMALL, method="dcil_fedavg"))
    assert all(records_equal(x, y) for x, y in zip(dcid.records, base.records))


def test_degenerate_dcid_without_shared_pool_is_fedavg_at_the_default_config():
    # the same identity at full size, where a grid could serve one run for both
    dcid = run(RunConfig(shared_per_class=0))
    base = run(RunConfig(method="dcil_fedavg"))
    assert len(dcid.records) == len(base.records) == 6
    assert all(records_equal(x, y) for x, y in zip(dcid.records, base.records))


def test_degenerate_fedprox_mu0_and_fedmax_beta0_are_fedavg():
    base = run(replace(SMALL, method="dcil_fedavg"))
    prox = run(replace(SMALL, method="dcil_fedprox",
                       local=replace(SMALL.local, mu=0.0)))
    fmax = run(replace(SMALL, method="dcil_fedmax",
                       local=replace(SMALL.local, beta=0.0)))
    assert all(records_equal(x, y) for x, y in zip(base.records, prox.records))
    assert all(records_equal(x, y) for x, y in zip(base.records, fmax.records))


@pytest.mark.parametrize("seed", [0, 211, 283])
def test_default_fedmax_run_ends_above_chance(seed):
    # at beta = 16000 (= 500 * 32, beta = 500 of the penalty without its 1/d)
    # each of seeds 0-19 ends at chance or diverges; seed 283 ends lowest of
    # seeds 0-299 at the default
    records = run(RunConfig(method="dcil_fedmax", seed=seed)).records
    assert len(records) == 6
    assert records[-1].accuracy > 1 / 20


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
