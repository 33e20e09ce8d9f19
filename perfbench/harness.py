"""Workloads, closed forms and the correctness gate of the dcil benchmark.

Configs are built through the CLI's flat config format (``build_run_config``),
the documented way to describe a run.  Every run seed is derived from the
workload seed, so one workload seed fixes every input.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from dcil import data
from dcil.cli import build_run_config
from dcil.distillation import DISTILL_BATCH, DISTILL_FULL_BATCH_LIMIT
from dcil.orchestrator import summarize

SERIAL_METHODS = {
    "dcid": ("dcid",),
    "baselines": ("dcil_fedavg", "dcil_fedprox", "dcil_fedmax", "centralized"),
}
# A seed's Dirichlet partition moves the local-update and herding work of a
# run by several percent (the baselines' step count by ~7 %), so each repeat
# spans several seeds: dcid ~2.4 s per seed, the four baselines ~5.5 s per
# seed together (2-core x86 box).
SEEDS_PER_UNIT = {"dcid": 3, "baselines": 3}
# Repeats timed per run at the least; more follow while --seconds allows.
MIN_REPEATS = {"dcid": 3, "baselines": 2, "compare-wide": 2}

WIDE_METHODS = ("dcid", "dcil_fedavg")
WIDE_ALPHAS = (0.1, 1.0)
# One round and three sessions (10 base classes + 3 x 2) keep a grid of four
# wide runs near 5 s on 2 vCPUs, so a run of the benchmark holds several of
# them; every stage still runs in each session.
WIDE_CONFIG = {"hidden_dims": [128, 128], "dim": 32, "rounds": 1,
               "classes": 16, "sessions": 3}


def run_seeds(workload_seed: int, n: int) -> list[int]:
    return [workload_seed * n + i for i in range(n)]


def serial_docs(workload: str, seed: int) -> list[dict]:
    seeds = run_seeds(seed, SEEDS_PER_UNIT[workload])
    return [{"method": m, "seed": s} for s in seeds for m in SERIAL_METHODS[workload]]


def compare_doc(seed: int, workers: int) -> dict:
    """`dcil compare` config whose grid holds at least two runs per worker."""
    per_seed = len(WIDE_METHODS) * len(WIDE_ALPHAS)
    n_seeds = max(1, math.ceil(2 * workers / per_seed))
    return {
        **WIDE_CONFIG,
        "methods": list(WIDE_METHODS),
        "alphas": list(WIDE_ALPHAS),
        "seeds": run_seeds(seed, n_seeds),
    }


def compare_grid(doc: dict) -> list[tuple[str, dict]]:
    """(label, run doc) per grid entry, in the order `dcil compare` groups them."""
    base = {k: v for k, v in doc.items() if k not in ("methods", "seeds", "alphas")}
    out = []
    for method in doc["methods"]:
        for alpha in doc["alphas"]:
            for seed in doc["seeds"]:
                run_doc = {**base, "method": method, "seed": int(seed),
                           "alpha": float(alpha), "partition": "dirichlet"}
                out.append((f"{method}@alpha={float(alpha):g}", run_doc))
    return out


# Accuracy reference: one run per method (and alpha) at this seed, the same
# whatever --seed is.  avg_acc and final_acc come from these runs alone, so
# they are exact per commit and any change to the numerics moves them; the
# timed runs vary with --seed, and their accuracies by 5-10 % between seeds.
REFERENCE_SEED = 0


def reference_docs(workload: str) -> list[dict]:
    if workload == "compare-wide":
        doc = {**WIDE_CONFIG, "methods": list(WIDE_METHODS), "alphas": list(WIDE_ALPHAS),
               "seeds": [REFERENCE_SEED]}
        return [d for _, d in compare_grid(doc)]
    return [{"method": m, "seed": REFERENCE_SEED} for m in SERIAL_METHODS[workload]]


def tiny_doc(method: str) -> dict:
    """A run small enough to warm imports and BLAS in a fraction of a second."""
    return {
        "method": method, "classes": 6, "base_classes": 2, "sessions": 2,
        "sites": 3, "rounds": 1, "dim": 4, "per_class": 20, "hidden_dims": [8],
        "base_epochs": 1, "local_epochs": 1, "dad_epochs": 2, "dcd_epochs": 1,
        "anchors_per_class": 2, "shared_per_class": 4, "partition": "iid",
    }


# ---------------------------------------------------------------------------
# Closed forms: optimizer steps and the communication ledger
# ---------------------------------------------------------------------------


def _param_count(dims) -> int:
    return sum((dims[i] + 1) * dims[i + 1] for i in range(len(dims) - 1))


def _anchor_count(shard_y: np.ndarray, k: int) -> int:
    if k < 1:
        return 0
    _, counts = np.unique(shard_y, return_counts=True)
    return int(np.minimum(counts, k).sum())


def plan(cfg) -> tuple[int, list[dict]]:
    """Exact optimizer-step count and per-session ledger of one run.

    Regenerates the run's data, session split and site partitions from the
    same seed streams the orchestrator uses, then counts minibatches: base
    (and centralized) training, local updates over shard plus anchors, DCD at
    every site and DAD over the shared pool.  Every local batch carries a
    loss term because the anchor weight is positive.
    """
    if cfg.local.lam <= 0:
        raise ValueError("the step closed form assumes a positive anchor weight")
    ds = data.make_synthetic(cfg.n_classes, cfg.per_class, cfg.input_dim, cfg.spread,
                             [cfg.seed, 1])
    split = data.split_sessions(ds, cfg.n_base, cfg.n_sessions, [cfg.seed, 2])
    order = [*split.base_classes, *(c for chunk in split.session_classes for c in chunk)]
    remap = {c: i for i, c in enumerate(order)}
    labels = [np.array([remap[int(v)] for v in y], dtype=np.int64)
              for _, y in split.per_session_train]
    xs = [x for x, _ in split.per_session_train]
    k_new = (cfg.n_classes - cfg.n_base) // cfg.n_sessions
    bs = cfg.local.batch_size
    zero = {"params_up": 0, "params_down": 0, "shared_samples": 0, "logit_scalars": 0}
    ledgers = [dict(zero)]

    def plain(n):
        return cfg.base_epochs * math.ceil(n / bs) if cfg.base_lr > 0 else 0

    steps = plain(len(labels[0]))
    if cfg.method == "centralized":
        for t in range(1, cfg.n_sessions + 1):
            steps += plain(sum(len(labels[s]) for s in range(t + 1)))
            ledgers.append(dict(zero))
        return steps, ledgers

    def shards(t):
        seed = [cfg.seed, 5, t]
        if cfg.partition == "iid":
            part = data.partition_iid(xs[t], labels[t], cfg.n_sites, seed)
        else:
            part = data.partition_dirichlet(xs[t], labels[t], cfg.n_sites, cfg.alpha, seed)
        return [sy for _, sy in part.shards]

    distill = cfg.method == "dcid"
    anchors = [_anchor_count(sy, cfg.anchors_per_class) for sy in shards(0)]
    for t in range(1, cfg.n_sessions + 1):
        site_y = shards(t)
        n_head = cfg.n_base + t * k_new
        new = range(n_head - k_new, n_head)
        pool = sum(min(cfg.shared_per_class, int((labels[t] == c).sum())) for c in new)
        pool = pool if distill else 0
        if cfg.local.lr > 0:
            for m, sy in enumerate(site_y):
                if len(sy):
                    per_epoch = math.ceil((len(sy) + anchors[m]) / bs)
                    steps += cfg.rounds * cfg.local.local_epochs * per_epoch
        if pool:
            batch = pool if pool <= DISTILL_FULL_BATCH_LIMIT else DISTILL_BATCH
            per_epoch = math.ceil(pool / batch)
            steps += cfg.rounds * (cfg.n_sites * cfg.dcd_epochs + cfg.dad_epochs) * per_epoch
        for m, sy in enumerate(site_y):
            anchors[m] += _anchor_count(sy, cfg.anchors_per_class)
        params = cfg.rounds * cfg.n_sites * _param_count(
            (cfg.input_dim, *cfg.hidden_dims, n_head))
        ledgers.append({
            "params_up": params,
            "params_down": params,
            "shared_samples": pool,
            "logit_scalars": 2 * cfg.rounds * cfg.n_sites * pool * n_head,
        })
    return steps, ledgers


# ---------------------------------------------------------------------------
# Records: digest, checks, aggregates
# ---------------------------------------------------------------------------


def records_text(cfg, records) -> str:
    lines = [f"run {cfg.method} seed={cfg.seed} alpha={cfg.alpha!r}"]
    for r in records:
        per_class = ",".join(f"{c}:{v!r}" for c, v in sorted(r.per_class.items()))
        comm = ",".join(f"{k}={r.comm[k]}" for k in sorted(r.comm))
        lines.append(f"{r.session} {r.accuracy!r} [{per_class}] {comm}")
    return "\n".join(lines) + "\n"


def sha256(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode() if isinstance(t, str) else t)
    return h.hexdigest()


def check_records(cfg, records, ledgers) -> list[str]:
    """Problems with one run's records: accuracy range and the ledger closed form."""
    problems = []
    if len(records) != len(ledgers):
        return [f"{len(records)} records, expected {len(ledgers)}"]
    for rec, want in zip(records, ledgers):
        accs = [rec.accuracy, *rec.per_class.values()]
        if not all(math.isfinite(a) and 0.0 <= a <= 1.0 for a in accs):
            problems.append(f"session {rec.session}: accuracy outside [0, 1]")
        if rec.comm != want:
            problems.append(f"session {rec.session}: ledger {rec.comm} != {want}")
    return problems


def comm_scalars(cfg, records) -> int:
    return sum(
        r.comm["params_up"] + r.comm["params_down"] + r.comm["logit_scalars"]
        + r.comm["shared_samples"] * cfg.input_dim
        for r in records
    )


def ledger_totals(records_list) -> dict[str, int]:
    keys = ("params_up", "params_down", "logit_scalars", "shared_samples")
    return {k: sum(r.comm[k] for recs in records_list for r in recs) for k in keys}


def accuracy_means(records_list) -> tuple[float, float]:
    sums = [summarize(recs) for recs in records_list]
    return (float(np.mean([s["average_accuracy"] for s in sums])),
            float(np.mean([s["final_accuracy"] for s in sums])))


def expected_compare_csvs(grid_records) -> tuple[list[list[str]], list[list[str]]]:
    """comparison.csv and summary.csv rows that `dcil compare` must write.

    `grid_records` is [(label, records)] in grid order; labels group in order
    of first appearance, as the CLI groups them.
    """
    grouped: dict[str, list] = {}
    for label, recs in grid_records:
        grouped.setdefault(label, []).append(recs)
    comparison = [["method", "session", "mean_acc", "std_acc"]]
    summary = [["method", "avg_acc_mean", "final_acc_mean"]]
    for label, group in grouped.items():
        acc = np.array([[r.accuracy for r in recs] for recs in group])
        for s in range(acc.shape[1]):
            comparison.append([label, str(s), repr(float(acc[:, s].mean())),
                               repr(float(acc[:, s].std()))])
        avg, final = accuracy_means(group)
        summary.append([label, repr(avg), repr(final)])
    return comparison, summary
