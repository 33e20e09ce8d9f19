"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The empirical criteria (6-9) share a cache of full benchmark runs computed
once, in parallel, at the default configuration (20 classes in 16
dimensions, 10 base classes + 5 sessions of 2, 5 sites, 3 rounds, Dirichlet
alpha=0.1 partitioning, 5 seeds).
"""

import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from cli_call import invoke
from oracles import loss_value

from dcil.data import partition_dirichlet
from dcil.distillation import fedavg_aggregate
from dcil.local_learner import LocalLossConfig, select_anchors_herding
from dcil.nncore import (
    CompositeLoss,
    CrossEntropyTerm,
    DistillTerm,
    NetSpec,
    ParamVector,
    ProximalTerm,
    UniformActivationTerm,
    backward,
    forward_batch,
    init_params,
    one_hot,
    softmax_t,
)
from dcil.orchestrator import RunConfig, run

SEEDS = range(5)
ALPHAS = (0.1, 1.0, 10.0, 100.0)
POOL_SIZES = (0, 2, 5, 10, 20)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# Shared benchmark runs (criteria 6-9)
# ---------------------------------------------------------------------------


def _bench_job(args):
    """One full run; returns (per-session accuracies, final base-class acc)."""
    method, seed, overrides = args
    local = LocalLossConfig(**overrides.pop("local", {}))
    cfg = RunConfig(method=method, seed=seed, local=local, **overrides)
    res = run(cfg)
    final = res.records[-1]
    base_acc = float(np.mean([final.per_class[c] for c in range(cfg.n_base)]))
    return [r.accuracy for r in res.records], base_acc


@pytest.fixture(scope="module")
def bench():
    jobs = {}
    for s in SEEDS:
        jobs[("dcid", s)] = ("dcid", s, {})
        jobs[("fedavg", s)] = ("dcil_fedavg", s, {})
        jobs[("centralized", s)] = ("centralized", s, {})
        jobs[("dcid-lam0", s)] = ("dcid", s, {"local": {"lam": 0.0}})
        for spc in POOL_SIZES[:-1]:  # spc=20 is the default dcid run
            jobs[("dcid-spc", spc, s)] = ("dcid", s, {"shared_per_class": spc})
        for a in ALPHAS[1:]:  # alpha=0.1 is the default
            jobs[("dcid-alpha", a, s)] = ("dcid", s, {"alpha": a})
            jobs[("fedavg-alpha", a, s)] = ("dcil_fedavg", s, {"alpha": a})
    keys = list(jobs)
    start = time.monotonic()
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(14, os.cpu_count() or 1)) as pool:
        values = list(pool.map(_bench_job, (jobs[k] for k in keys)))
    out = dict(zip(keys, values))
    out["elapsed"] = time.monotonic() - start
    return out


def avg_acc(bench, *key):
    return float(np.mean([np.mean(bench[(*key, s)][0]) for s in SEEDS]))


# ---------------------------------------------------------------------------
# Criterion 1: analytic gradients match finite differences
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    start = time.monotonic()
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(trial)
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        spec = NetSpec(d, (int(rng.integers(2, 5)),), k, "tanh")
        params = init_params(spec, rng)
        ref = init_params(spec, rng)
        n = int(rng.integers(2, 6))
        x = rng.normal(size=(n, d))
        y = rng.integers(0, k, size=n)
        teacher = softmax_t(rng.normal(size=(n, k)), 5.0)
        ce = CrossEntropyTerm(x, one_hot(y, k))
        losses = [
            # local incremental loss: classification + weighted distillation
            CompositeLoss((ce, DistillTerm(x, teacher, 2.0, weight=5.0))),
            # mutual / aggregated distillation: softened KL over a pool
            CompositeLoss((DistillTerm(x, teacher, 5.0),)),
            # plain local loss
            CompositeLoss((ce,)),
            # activation-uniformity regularized loss
            CompositeLoss((ce, UniformActivationTerm(x, 500.0))),
            # proximal regularized loss
            CompositeLoss((ce, ProximalTerm(ref, 0.2))),
        ]
        for loss in losses:
            grad = backward(params, loss)
            fd = np.zeros_like(grad.values)
            h = 1e-5
            for i in range(len(fd)):
                up, dn = params.values.copy(), params.values.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (
                    loss_value(ParamVector(up, spec), loss)
                    - loss_value(ParamVector(dn, spec), loss)
                ) / (2 * h)
            rel = np.abs(grad.values - fd).max() / max(1.0, np.abs(fd).max())
            worst = max(worst, rel)
    elapsed = time.monotonic() - start
    report(
        1,
        worst < 1e-4 and elapsed < 30,
        f"max relative gradient error {worst:.2e} over 50 nets x 6 losses in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 2: herding equals the brute-force greedy oracle
# ---------------------------------------------------------------------------


def test_criterion_2_herding_oracle():
    start = time.monotonic()
    mismatches = 0
    for trial in range(200):
        rng = np.random.default_rng(1000 + trial)
        spec = NetSpec(3, (4,), 3, "tanh")
        params = init_params(spec, rng)
        examples = rng.normal(size=(int(rng.integers(2, 21)), 3))
        k_max = int(rng.integers(1, 9))
        got = select_anchors_herding(params, examples, k_max)
        feats, _ = forward_batch(params, examples)
        mu = feats.mean(axis=0)
        chosen, total = [], np.zeros(feats.shape[1])
        remaining = list(range(len(feats)))
        for k in range(1, min(k_max, len(feats)) + 1):
            dists = [(np.linalg.norm(mu - (feats[i] + total) / k), i) for i in remaining]
            best = min(dists)[1]
            chosen.append(best)
            remaining.remove(best)
            total = total + feats[best]
        if got != chosen:
            mismatches += 1
    elapsed = time.monotonic() - start
    report(
        2,
        mismatches == 0 and elapsed < 10,
        f"{mismatches}/200 oracle mismatches in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 3: aggregation identities
# ---------------------------------------------------------------------------


def test_criterion_3_aggregation_identities():
    spec = NetSpec(4, (6,), 5, "relu")
    models = [init_params(spec, np.random.default_rng(s)) for s in range(4)]
    counts = [3, 9, 1, 7]

    same = fedavg_aggregate([models[0].copy() for _ in range(4)], counts)
    idempotent = np.array_equal(same.values, models[0].values)

    out = fedavg_aggregate(models, counts)
    expect = sum((c / 20.0) * m.values for c, m in zip(counts, models))
    oracle_err = float(np.abs(out.values - expect).max())

    shift = np.random.default_rng(99).normal(size=spec.param_count)
    mapped = fedavg_aggregate(
        [ParamVector(1.5 * m.values + shift, spec) for m in models], counts
    )
    affine_err = float(np.abs(mapped.values - (1.5 * out.values + shift)).max())

    report(
        3,
        idempotent and oracle_err < 1e-12 and affine_err < 1e-10,
        f"idempotent={idempotent}, weighted-mean err {oracle_err:.1e}, "
        f"affine err {affine_err:.1e}",
    )


# ---------------------------------------------------------------------------
# Criterion 4: degeneracy lattice (bit-identical records)
# ---------------------------------------------------------------------------


def _records_key(cfg):
    return [
        (r.session, r.accuracy, tuple(sorted(r.per_class.items())),
         r.seen_classes, tuple(sorted(r.comm.items())))
        for r in run(cfg).records
    ]


def test_criterion_4_degeneracy_lattice():
    small = RunConfig(
        n_sites=3, n_sessions=2, rounds=2, hidden_dims=(8,), n_classes=8,
        per_class=30, input_dim=4, n_base=4, base_epochs=5,
        local=LocalLossConfig(local_epochs=2), dad_epochs=10, dad_lr=0.5,
    )
    base = _records_key(replace(small, method="dcil_fedavg"))
    no_pool = _records_key(replace(small, method="dcid", shared_per_class=0))
    prox0 = _records_key(
        replace(small, method="dcil_fedprox", local=replace(small.local, mu=0.0))
    )
    max0 = _records_key(
        replace(small, method="dcil_fedmax", local=replace(small.local, beta=0.0))
    )
    lr0 = _records_key(replace(small, method="dcid", dcd_lr=0.0, dad_lr=0.0))
    epochs0 = _records_key(replace(small, method="dcid", dcd_epochs=0, dad_epochs=0))
    # one site is its own teacher, and the self-teacher's gradient is exactly 0
    one_site = replace(small, n_sites=1, partition="iid")
    one_dcid = _records_key(replace(one_site, method="dcid"))
    one_fedavg = _records_key(replace(one_site, method="dcil_fedavg"))

    def no_comm(key):  # dcid still builds a pool and ships its logits in these
        return [record[:-1] for record in key]

    ok = (
        no_pool == base and prox0 == base and max0 == base
        and no_comm(lr0) == no_comm(base) and no_comm(epochs0) == no_comm(base)
        and no_comm(one_dcid) == no_comm(one_fedavg)
    )
    report(
        4, ok,
        "empty-pool dcid, mu=0 fedprox and beta=0 fedmax equal fedavg bitwise; dcid at "
        "lr 0, at 0 epochs and on one iid site equal it on accuracies and per-class maps",
    )


# ---------------------------------------------------------------------------
# Criterion 5: Dirichlet partitioner limits
# ---------------------------------------------------------------------------


def _partition_stats(alpha, seeds=20, n_sites=5, n_classes=10, per_class=20):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(n_classes * per_class, 2))
    y = np.repeat(np.arange(n_classes), per_class)
    share_dev, concentrated, entropy = [], 0, []
    for seed in range(seeds):
        part = partition_dirichlet(x, y, n_sites, alpha, seed)
        counts = np.array(
            [np.bincount(sy, minlength=n_classes) for _, sy in part.shards]
        )
        for c in range(n_classes):
            share_dev.append(np.abs(counts[:, c] / per_class - 1 / n_sites).max())
            if counts[:, c].max() >= 0.95 * per_class:
                concentrated += 1
        for m in range(n_sites):
            p = counts[m] / max(1, counts[m].sum())
            p = p[p > 0]
            entropy.append(float(-(p * np.log(p)).sum()))
    return max(share_dev), concentrated / (seeds * n_classes), float(np.mean(entropy))


def test_criterion_5_dirichlet_limits():
    dev, _, _ = _partition_stats(1e6)
    _, frac, _ = _partition_stats(0.01)
    ents = [_partition_stats(a)[2] for a in (0.01, 0.1, 1.0, 10.0, 1e6)]
    monotone = all(a < b for a, b in zip(ents, ents[1:]))
    report(
        5,
        dev < 0.05 and frac >= 0.9 and monotone,
        f"alpha=1e6 max share deviation {dev:.3f}, alpha=0.01 concentrated "
        f"fraction {frac:.2f}, entropies {['%.2f' % e for e in ents]}",
    )


# ---------------------------------------------------------------------------
# Criterion 6: anchors control catastrophic forgetting
# ---------------------------------------------------------------------------


def test_criterion_6_forgetting(bench):
    with_anchors = float(np.mean([bench[("dcid", s)][1] for s in SEEDS]))
    without = float(np.mean([bench[("dcid-lam0", s)][1] for s in SEEDS]))
    gap = 100 * (with_anchors - without)
    ok = gap >= 10 and bench["elapsed"] < 300
    report(
        6,
        ok,
        f"final base-class accuracy {with_anchors:.3f} (lam=5) vs {without:.3f} "
        f"(lam=0): gap {gap:.1f} points (runs took {bench['elapsed']:.0f}s)",
    )


# ---------------------------------------------------------------------------
# Criterion 7: method ordering on the default benchmark
# ---------------------------------------------------------------------------


def test_criterion_7_method_ordering(bench):
    cent = avg_acc(bench, "centralized")
    dcid = avg_acc(bench, "dcid")
    fedavg = avg_acc(bench, "fedavg")
    margin = 100 * (dcid - fedavg)
    ok = cent > dcid > fedavg and margin > 1.0 and bench["elapsed"] < 900
    report(
        7,
        ok,
        f"centralized {cent:.4f} > dcid {dcid:.4f} > fedavg {fedavg:.4f}, "
        f"margin {margin:.2f} points",
    )


# ---------------------------------------------------------------------------
# Criterion 8: shared-pool size saturates
# ---------------------------------------------------------------------------


def test_criterion_8_shared_pool_saturation(bench):
    means = []
    for spc in POOL_SIZES:
        key = ("dcid",) if spc == 20 else ("dcid-spc", spc)
        means.append(avg_acc(bench, *key))
    deltas = [100 * (b - a) for a, b in zip(means, means[1:])]
    inversions = [d for d in deltas if d < 0]
    monotone_enough = len(inversions) <= 1 and all(d >= -0.5 for d in inversions)
    concave_ends = deltas[-1] < deltas[0]
    report(
        8,
        monotone_enough and concave_ends,
        f"pool sizes {list(POOL_SIZES)} -> accuracies "
        f"{['%.4f' % m for m in means]}, gains {['%+.2f' % d for d in deltas]}",
    )


# ---------------------------------------------------------------------------
# Criterion 9: advantage persists across heterogeneity levels
# ---------------------------------------------------------------------------


def test_criterion_9_noniid_robustness(bench):
    margins = {}
    for a in ALPHAS:
        if a == 0.1:
            d, f = avg_acc(bench, "dcid"), avg_acc(bench, "fedavg")
        else:
            d = avg_acc(bench, "dcid-alpha", a)
            f = avg_acc(bench, "fedavg-alpha", a)
        margins[a] = 100 * (d - f)
    ok = all(m > 0 for m in margins.values())
    report(
        9,
        ok,
        "margins " + ", ".join(f"alpha={a:g}: {m:+.2f}" for a, m in margins.items()),
    )


# ---------------------------------------------------------------------------
# Criterion 10: bit-identical outputs on rerun
# ---------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    doc = {
        "sites": 3, "sessions": 2, "rounds": 1, "hidden_dims": [8], "classes": 8,
        "per_class": 30, "dim": 4, "base_classes": 4, "base_epochs": 3,
        "local_epochs": 2, "dad_epochs": 5, "dad_lr": 0.5, "seed": 4,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    outputs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        result = invoke(["run", str(cfg), "--out", out])
        assert result.exit_code == 0, result.output
        outputs.append(
            tuple(
                open(os.path.join(out, f"dcid_seed4.{ext}")).read()
                for ext in ("json", "csv")
            )
        )
    ok = outputs[0] == outputs[1]
    report(10, ok, "JSON and CSV outputs byte-identical across reruns")


# ---------------------------------------------------------------------------
# Criterion 11: communication ledger closed forms
# ---------------------------------------------------------------------------


def test_criterion_11_communication_ledger():
    cfg = RunConfig(
        n_sites=4, n_sessions=2, rounds=3, hidden_dims=(8,), n_classes=8,
        per_class=40, input_dim=4, n_base=4, base_epochs=3,
        local=LocalLossConfig(local_epochs=2), shared_per_class=6,
        dad_epochs=5, dad_lr=0.5, partition="iid",
    )
    res = run(cfg)
    ok = True
    details = []
    for t in (1, 2):
        rec = res.records[t]
        n_head = cfg.n_base + 2 * t
        p = NetSpec(cfg.input_dim, cfg.hidden_dims, n_head).param_count
        pool = 2 * cfg.shared_per_class  # 2 new classes, enough data to fill
        expect = {
            "params_up": cfg.rounds * cfg.n_sites * p,
            "params_down": cfg.rounds * cfg.n_sites * p,
            "shared_samples": pool,
            "logit_scalars": 2 * cfg.rounds * cfg.n_sites * pool * n_head,
        }
        ok = ok and rec.comm == expect
        details.append(f"session {t}: {rec.comm == expect}")
    report(11, ok, "; ".join(details) + " against closed-form counters")
