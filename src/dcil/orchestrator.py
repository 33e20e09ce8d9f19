"""Session/round orchestration of the composite-distillation pipeline.

Runs the full protocol over T incremental sessions of R rounds each: local
incremental training at every site, mutual distillation against the ensemble
teacher, data-weighted parameter averaging, and a final distillation of the
ensemble into the averaged general model.  The baselines run the same
protocol over an empty shared pool, on which both distillation stages return
their inputs; a centralized reference learner retrains on all data seen so
far.  One generator, `_protocol`, yields every stage call of every
method's run, and `_drive` serves them in order.  Every run is a pure
function of its config and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import data as data_mod
from .config import COMM_KEYS, NetSpec, RunConfig
from .distillation import (
    build_shared_dataset,
    compute_logits_table,
    dad_refine,
    dcd_finetune,
    ensemble_logits,
    ensemble_weights,
    fedavg_aggregate,
)
from .local_learner import local_update, select_anchors_herding
from .nncore import (
    CompositeLoss,
    CrossEntropyTerm,
    InputError,
    ParamVector,
    backward,
    expand_head,
    fit,
    forward_batch,
    init_params,
    one_hot,
    sgd_step,
)

# Seed-stream tags; every generator is derived structurally from
# (seed, tag, ...) so that independent stages never share a stream.
_S_DATA, _S_SPLIT, _S_INIT, _S_BASE, _S_PART, _S_SHARED = 1, 2, 3, 4, 5, 6
_S_SITE, _S_DCD, _S_DAD, _S_CENT = 7, 8, 9, 10


@dataclass
class MetricsRecord:
    session: int
    accuracy: float
    per_class: dict[int, float]
    seen_classes: tuple[int, ...]
    comm: dict


@dataclass
class RunResult:
    records: list[MetricsRecord]


def evaluate(params: ParamVector, x: np.ndarray, y: np.ndarray):
    """Top-1 accuracy of the whole head on `(x, y)`, plus a per-class map.

    The map holds the classes present in `y`.  Classes are head indices
    here; prediction argmax ties break toward the lowest class id.
    """
    if len(y) == 0:
        raise InputError("empty test set")
    _, logits = forward_batch(params, x)
    correct = np.argmax(logits, axis=1) == y
    per_class = {c: float(correct[y == c].mean()) for c in data_mod.classes(y)}
    return float(correct.mean()), per_class


def summarize(records: list[MetricsRecord]) -> dict:
    """Mean accuracy over all session records, plus the last session's."""
    if not records:
        raise InputError("no records to summarize")
    accs = [r.accuracy for r in records]
    return {
        "average_accuracy": float(np.mean(accs)),
        "final_accuracy": accs[-1],
    }


# ---------------------------------------------------------------------------
# Internal helpers
# ---------------------------------------------------------------------------


def _sessions(cfg: RunConfig):
    """Each session's `(x, y)` training data ([0] = base) and the test set.

    Labels are remapped so that head indices are contiguous in encounter
    order: base classes first, then each session's classes, so session t's
    classes are `range(_head(cfg, t - 1), _head(cfg, t))`.  The test set is
    stably sorted by head index, so the classes seen after session t label
    its leading rows.
    """
    ds = data_mod.make_synthetic(
        cfg.n_classes, cfg.per_class, cfg.input_dim, cfg.spread, [cfg.seed, _S_DATA]
    )
    split = data_mod.split_sessions(ds, cfg.n_base, cfg.n_sessions, [cfg.seed, _S_SPLIT])
    remap = np.empty(cfg.n_classes, dtype=np.int64)
    remap[np.concatenate([split.base_classes, *split.session_classes])] = np.arange(cfg.n_classes)
    train = [(x, remap[y]) for x, y in split.per_session_train]
    test_y = remap[ds.test_y]
    order = np.argsort(test_y, kind="stable")
    return train, (ds.test_x[order], test_y[order])


def _head(cfg: RunConfig, t: int) -> int:
    """Head width after session t; the classes seen so far are `range(_head(cfg, t))`."""
    return cfg.n_base + t * ((cfg.n_classes - cfg.n_base) // cfg.n_sessions)


def _train_fresh(spec: NetSpec, x, y, epochs, lr, batch_size, init_seed, seed) -> ParamVector:
    """A model of `spec` initialized from `init_seed` and trained by plain
    minibatch-SGD cross-entropy on labelled `(x, y)`, whose labels are
    encoded, and so checked, once for the call; a zero lr trains nothing."""
    params = init_params(spec, np.random.default_rng(init_seed))
    targets = one_hot(y, spec.n_classes)

    def step(out, sel, ws):
        term = CrossEntropyTerm(x.take(sel, axis=0), targets.take(sel, axis=0))
        grad = backward(out, CompositeLoss((term,)), out=ws)
        sgd_step(out, grad, lr)

    return fit(params, lr, x, batch_size, epochs, seed, step)


def _partition(cfg: RunConfig, x, y, session):
    seed = [cfg.seed, _S_PART, session]
    if cfg.partition == "iid":
        return data_mod.partition_iid(x, y, cfg.n_sites, seed)
    return data_mod.partition_dirichlet(x, y, cfg.n_sites, cfg.alpha, seed)


def _record(session, params, test, traffic, n_seen) -> MetricsRecord:
    """Session `session`'s record: `params` scored on the first `n_seen` classes' test rows."""
    x, y = test
    n = int(np.searchsorted(y, n_seen))
    acc, per_class = evaluate(params, x[:n], y[:n])
    return MetricsRecord(session, acc, per_class, tuple(range(n_seen)), traffic)


def _herd(params, shard, k) -> tuple[np.ndarray, np.ndarray]:
    """The `(x, y)` shard rows herding keeps, `k` per class the shard holds,
    in class order, each class's rows in selection order."""
    x, y = shard
    kept = [np.empty(0, dtype=np.int64)]
    for c in data_mod.classes(y) if k else ():
        rows = np.flatnonzero(y == c)
        kept.append(rows[select_anchors_herding(params, x[rows], k)])
    kept = np.concatenate(kept)
    return x[kept], y[kept]


def _teacher(models, shared, weights) -> np.ndarray:
    """DCD's and DAD's teacher: the weighted ensemble of the models' logits tables over the pool."""
    return ensemble_logits([compute_logits_table(p, shared) for p in models], weights)


# ---------------------------------------------------------------------------
# Run entry point
# ---------------------------------------------------------------------------


def _protocol(cfg: RunConfig):
    """Every method's run, as a generator of its stage calls.

    At each stage (`base`, `centralized`, `local`, `herding`, `teacher`,
    `dcd`, `fedavg`, `dad`, `evaluate`) it yields `(stage, session, round,
    site, fn, args)`, is sent `fn(*args)` back, and returns the records.
    Each `fn` is read from this module at its yield, so a wrapper set on the
    module applies.  A request carries only what its stage reads, not the
    config or the method: the method sets the pool size and penalty weights
    here, so runs that do the same work send equal requests.
    """
    train, test = _sessions(cfg)
    spec = NetSpec(cfg.input_dim, cfg.hidden_dims, cfg.n_base, cfg.activation)
    fresh = (cfg.base_epochs, cfg.base_lr, cfg.local.batch_size)  # base and centralized
    general = yield "base", 0, None, None, _train_fresh, (
        spec, *train[0], *fresh, [cfg.seed, _S_INIT], [cfg.seed, _S_BASE])
    records = [(yield "evaluate", 0, None, None, _record, (
        0, general, test, dict.fromkeys(COMM_KEYS, 0), _head(cfg, 0)))]
    if cfg.method == "centralized":
        for t in range(1, cfg.n_sessions + 1):
            x = np.concatenate([x for x, _ in train[: t + 1]])
            y = np.concatenate([y for _, y in train[: t + 1]])
            params = yield "centralized", t, None, None, _train_fresh, (
                replace(spec, n_classes=_head(cfg, t)), x, y, *fresh,
                [cfg.seed, _S_CENT, t], [cfg.seed, _S_CENT, t, 1])
            records.append((yield "evaluate", t, None, None, _record, (
                t, params, test, dict.fromkeys(COMM_KEYS, 0), _head(cfg, t))))
        return records

    # Each baseline is FedAvg plus at most its own local penalty.
    shared_per_class = cfg.shared_per_class if cfg.method == "dcid" else 0
    local = replace(cfg.local, beta=cfg.local.beta if cfg.method == "dcil_fedmax" else 0.0,
                    mu=cfg.local.mu if cfg.method == "dcil_fedprox" else 0.0)
    k = cfg.anchors_per_class
    # Base-class anchors: the base session is trained centrally, but each site
    # must enter session 1 with anchors for the classes already seen.  Deal
    # the base data to sites with the configured partitioner and herd with
    # the base model.  anchors[m] is site m's `(x, y)` pair of herded shard
    # rows, in class order: each session appends its own, higher, classes.
    anchors = []
    for m, shard in enumerate(_partition(cfg, *train[0], 0).shards):
        anchors.append((yield "herding", 0, None, m, _herd, (general, shard, k)))

    for t in range(1, cfg.n_sessions + 1):
        old_general = general
        new_classes = range(_head(cfg, t - 1), _head(cfg, t))
        general = expand_head(general, len(new_classes))
        traffic = dict.fromkeys(COMM_KEYS, 0)

        shards = _partition(cfg, *train[t], t).shards
        shared = build_shared_dataset(
            shards, shared_per_class, new_classes, [cfg.seed, _S_SHARED, t])
        traffic["shared_samples"] += len(shared)
        weights = ensemble_weights([len(sx) for sx, _ in shards])  # FedAvg's and the teacher's

        for r in range(cfg.rounds):
            traffic["params_down"] += cfg.n_sites * general.spec.param_count

            # One generation of site models per round: DCD overwrites each
            # site's entry, and the list is dropped before DAD runs.
            sites = []
            for m, shard in enumerate(shards):
                sites.append((yield "local", t, r, m, local_update, (
                    shard, anchors[m], general, local, old_general, [cfg.seed, _S_SITE, m, t, r])))

            if r == cfg.rounds - 1:  # only the last round's anchors are kept
                for m, (ax, ay) in enumerate(anchors):
                    hx, hy = yield "herding", t, r, m, _herd, (sites[m], shards[m], k)
                    anchors[m] = (np.concatenate([ax, hx]), np.concatenate([ay, hy]))

            dcd_teacher = yield "teacher", t, r, None, _teacher, (sites, shared, weights)
            traffic["logit_scalars"] += cfg.n_sites * dcd_teacher.size
            for m in range(cfg.n_sites):
                sites[m] = yield "dcd", t, r, m, dcd_finetune, (
                    sites[m], dcd_teacher, shared, cfg.tau1, cfg.dcd_lr, cfg.dcd_epochs,
                    [cfg.seed, _S_DCD, t, r, m])

            traffic["params_up"] += cfg.n_sites * general.spec.param_count
            aggregated = yield "fedavg", t, r, None, fedavg_aggregate, (sites, weights)
            dad_teacher = yield "teacher", t, r, None, _teacher, (sites, shared, weights)
            traffic["logit_scalars"] += cfg.n_sites * dad_teacher.size
            del sites
            general = yield "dad", t, r, None, dad_refine, (
                aggregated, dad_teacher, shared, cfg.tau2, cfg.dad_lr, cfg.dad_epochs,
                [cfg.seed, _S_DAD, t, r])

        records.append((yield "evaluate", t, None, None, _record, (
            t, general, test, traffic, _head(cfg, t))))

    return records


def _drive(gen) -> list[MetricsRecord]:
    """Serve `gen`'s stage requests in order, as `fn(*args)`, and return what it returns.

    The whole run raises on overflow, invalid operations and division by zero,
    as each `fit` step does.  No request's arguments or result stay bound past
    the `send` that hands the result over, so a model is freed once dropped.
    """
    result = None
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        while True:
            try:
                *_, fn, args = gen.send(result)
            except StopIteration as stop:
                return stop.value
            del result
            result = fn(*args)
            del args


def run(config: RunConfig) -> RunResult:
    return RunResult(_drive(_protocol(config)))
