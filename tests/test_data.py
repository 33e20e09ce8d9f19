"""Dataset synthesis, session splitting and partitioning."""

import sys
from dataclasses import fields

import numpy as np
import pytest
from fresh import fresh_python
from hypothesis import given, settings, strategies as st

from dcil.config import ConfigError, RunConfig, check_dirichlet
from dcil.data import (
    _largest_remainder,
    make_synthetic,
    partition_dirichlet,
    partition_iid,
    split_sessions,
)


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def test_synthetic_counts_and_shapes():
    ds = make_synthetic(5, 10, 4, 1.0, 0)
    assert ds.train_x.shape == (40, 4)  # 80% of 10 per class
    assert ds.test_x.shape == (10, 4)
    assert ds.n_classes == 5
    for c in range(5):
        assert (ds.train_y == c).sum() == 8
        assert (ds.test_y == c).sum() == 2


def test_synthetic_deterministic_per_seed():
    a = make_synthetic(4, 10, 3, 1.0, 42)
    b = make_synthetic(4, 10, 3, 1.0, 42)
    c = make_synthetic(4, 10, 3, 1.0, 43)
    assert np.array_equal(a.train_x, b.train_x)
    assert not np.array_equal(a.train_x, c.train_x)


def test_synthetic_spread_zero_collapses_to_centers():
    ds = make_synthetic(3, 10, 4, 0.0, 1)
    for c in range(3):
        pts = ds.train_x[ds.train_y == c]
        assert np.allclose(pts, pts[0], atol=1e-12)
        assert abs(np.linalg.norm(pts[0]) - 3.0) < 1e-12


def test_synthetic_rejects_degenerate_sizes():
    with pytest.raises(ConfigError):
        make_synthetic(1, 10, 4, 1.0, 0)
    with pytest.raises(ConfigError):
        make_synthetic(3, 10, 4, -0.5, 0)


# ---------------------------------------------------------------------------
# Session splitting
# ---------------------------------------------------------------------------


def test_split_sessions_disjoint_and_exhaustive():
    ds = make_synthetic(12, 10, 4, 1.0, 0)
    split = split_sessions(ds, 4, 4, 7)
    chunks = [split.base_classes, *split.session_classes]
    flat = [c for chunk in chunks for c in chunk]
    assert sorted(flat) == list(range(12))
    assert len(split.base_classes) == 4
    assert all(len(s) == 2 for s in split.session_classes)
    # training rows carry only their chunk's labels
    for chunk, (x, y) in zip(chunks, split.per_session_train):
        assert set(np.unique(y)) == set(chunk)
        assert len(x) == len(y) == 8 * len(chunk)


def test_split_sessions_seed_controls_assignment():
    ds = make_synthetic(12, 10, 4, 1.0, 0)
    assert split_sessions(ds, 4, 4, 1).base_classes != split_sessions(ds, 4, 4, 2).base_classes


def test_split_sessions_rejects_indivisible():
    ds = make_synthetic(10, 10, 4, 1.0, 0)
    with pytest.raises(ConfigError):
        split_sessions(ds, 4, 4, 0)  # 6 classes into 4 sessions


def test_dataset_and_split_carry_no_test_only_fields():
    # the run builds its one test set from `test_x`/`test_y` (see
    # `orchestrator._sessions`), so no per-class pool or input width is kept
    ds = make_synthetic(8, 10, 4, 1.0, 0)
    split = split_sessions(ds, 4, 2, 0)
    assert [f.name for f in fields(ds)] == ["train_x", "train_y", "test_x", "test_y", "n_classes"]
    assert [f.name for f in fields(split)] == [
        "base_classes", "session_classes", "per_session_train"
    ]


# ---------------------------------------------------------------------------
# IID partitioning
# ---------------------------------------------------------------------------


def labeled_blob(n_per_class=20, n_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_per_class * n_classes, 2))
    y = np.repeat(np.arange(n_classes), n_per_class)
    return x, y


def rows_multiset(x):
    return sorted(map(tuple, x))


def test_partition_iid_conserves_examples():
    x, y = labeled_blob()
    part = partition_iid(x, y, 4, 0)
    all_x = np.concatenate([sx for sx, _ in part.shards])
    assert rows_multiset(all_x) == rows_multiset(x)
    assert sum(len(sy) for _, sy in part.shards) == len(y)


def test_partition_iid_balanced_per_class():
    x, y = labeled_blob(n_per_class=20)
    part = partition_iid(x, y, 4, 0)
    for _, sy in part.shards:
        for c in range(3):
            assert (sy == c).sum() == 5


def test_partition_iid_round_robin_sizes_with_remainder():
    x, y = labeled_blob(n_per_class=10, n_classes=1)
    part = partition_iid(x, y, 4, 0)
    sizes = sorted(len(sy) for _, sy in part.shards)
    assert sizes == [2, 2, 3, 3]


def test_partitions_of_no_examples_are_empty_shards():
    x, y = np.empty((0, 2)), np.empty(0, dtype=np.int64)
    for part in (partition_iid(x, y, 3, 0), partition_dirichlet(x, y, 3, 1.0, 0)):
        assert len(part.shards) == 3
        for sx, sy in part.shards:
            assert sx.shape == (0, 2) and sy.shape == (0,)


def test_partition_iid_rejects_too_few_examples():
    x, y = labeled_blob(n_per_class=2)
    with pytest.raises(ConfigError):
        partition_iid(x, y, 5, 0)


# ---------------------------------------------------------------------------
# Dirichlet partitioning
# ---------------------------------------------------------------------------


def test_partition_dirichlet_conserves_examples():
    x, y = labeled_blob()
    part = partition_dirichlet(x, y, 4, 0.5, 0)
    all_x = np.concatenate([sx for sx, _ in part.shards if len(sx)])
    assert rows_multiset(all_x) == rows_multiset(x)


def test_partition_dirichlet_near_uniform_at_huge_alpha():
    x, y = labeled_blob(n_per_class=100, n_classes=4)
    part = partition_dirichlet(x, y, 5, 1e6, 0)
    for _, sy in part.shards:
        for c in range(4):
            assert abs((sy == c).sum() / 100.0 - 0.2) < 0.05


def test_partition_dirichlet_concentrates_at_tiny_alpha():
    hits = 0
    trials = 0
    for seed in range(10):
        x, y = labeled_blob(n_per_class=50, n_classes=4, seed=seed)
        part = partition_dirichlet(x, y, 5, 0.01, seed)
        for c in range(4):
            trials += 1
            top = max((sy == c).sum() for _, sy in part.shards)
            if top >= 0.95 * 50:
                hits += 1
    assert hits / trials >= 0.9


def test_partition_dirichlet_rejects_bad_params():
    x, y = labeled_blob()
    with pytest.raises(ConfigError):
        partition_dirichlet(x, y, 4, 0.0, 0)
    with pytest.raises(ConfigError):
        partition_dirichlet(x, y, 1, 1.0, 0)


@pytest.mark.parametrize("alpha", [1e-300, 0.1, 1e300])
@pytest.mark.parametrize("n_sites", [2, 5])
def test_partition_dirichlet_deals_every_row_at_extreme_alpha(alpha, n_sites):
    x, y = labeled_blob(n_per_class=13, n_classes=3)
    part = partition_dirichlet(x, y, n_sites, alpha, 0)
    all_x = np.concatenate([sx for sx, _ in part.shards if len(sx)])
    assert rows_multiset(all_x) == rows_multiset(x)


@pytest.mark.parametrize("n_sites", [2, 5])
def test_partition_dirichlet_rejects_an_alpha_whose_draws_overflow(n_sites):
    # The sampler's gamma draws sum to about n_sites * alpha; past the float
    # range every share is 0, and the rows were dealt one per site.
    x, y = labeled_blob(n_per_class=13, n_classes=3)
    with pytest.raises(ConfigError, match="alpha"):
        partition_dirichlet(x, y, n_sites, 1.7e308, 0)
    with pytest.raises(ConfigError, match="alpha"):
        RunConfig(n_sites=n_sites, alpha=1.7e308)


@pytest.mark.parametrize("n_sites", [2, 5, 11])
def test_dirichlet_alpha_rule_is_exact_at_the_top_of_the_float_range(n_sites, monkeypatch):
    # 13 alphas, 6 floats either side of max / n_sites: the rule accepts
    # exactly those whose shares deal every row
    below = above = [sys.float_info.max / n_sites]
    for _ in range(6):
        below = [float(np.nextafter(below[0], 0.0)), *below]
        above = [*above, float(np.nextafter(above[-1], np.inf))]
    alphas = below + above[1:]
    accepted = []
    for alpha in alphas:
        try:
            check_dirichlet(n_sites, alpha)
            accepted.append(True)
        except ConfigError:
            accepted.append(False)
    assert True in accepted and False in accepted
    # past the rule, shares that miss rows still raise: all 0, they dealt
    # one row per site
    monkeypatch.setattr("dcil.data.check_dirichlet", lambda n_sites, alpha: None)
    x, y = labeled_blob(n_per_class=13, n_classes=3)
    for alpha, ok in zip(alphas, accepted):
        if ok:
            part = partition_dirichlet(x, y, n_sites, alpha, 0)
            assert sum(len(sy) for _, sy in part.shards) == len(y)
        else:
            with pytest.raises(ConfigError, match=f"deal {n_sites} of class 0's 13 rows"):
                partition_dirichlet(x, y, n_sites, alpha, 0)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000), st.floats(0.05, 100))
def test_partition_dirichlet_always_disjoint_exhaustive(seed, alpha):
    x, y = labeled_blob(n_per_class=13, n_classes=2, seed=1)
    part = partition_dirichlet(x, y, 3, alpha, seed)
    sizes = [len(sy) for _, sy in part.shards]
    assert sum(sizes) == len(y)
    all_x = np.concatenate([sx for sx, _ in part.shards if len(sx)])
    assert rows_multiset(all_x) == rows_multiset(x)


def mean_site_entropy(n_sites, alpha, seeds=20, n_per_class=60, n_classes=4):
    vals = []
    for seed in range(seeds):
        x, y = labeled_blob(n_per_class, n_classes, seed=1)
        part = partition_dirichlet(x, y, n_sites, alpha, seed)
        for _, sy in part.shards:
            if len(sy) == 0:
                vals.append(0.0)
                continue
            p = np.bincount(sy, minlength=n_classes) / len(sy)
            p = p[p > 0]
            vals.append(float(-(p * np.log(p)).sum()))
    return float(np.mean(vals))


def test_partition_dirichlet_entropy_monotone_in_alpha():
    ents = [mean_site_entropy(5, a) for a in (0.01, 0.1, 1.0, 10.0, 1e6)]
    assert all(a < b for a, b in zip(ents, ents[1:]))


# ---------------------------------------------------------------------------
# Class order
# ---------------------------------------------------------------------------


def unique_ordered_shards(x, y, n_sites, alpha, seed):
    """Reference shards: classes visited in `np.unique(y)` order, dealt
    round-robin (alpha None) or by Dirichlet(alpha) shares."""
    rng = np.random.default_rng(seed)
    buckets = [[] for _ in range(n_sites)]
    for c in sorted(int(v) for v in np.unique(y)):
        idx = rng.permutation(np.flatnonzero(y == c))
        if alpha is None:
            for m in range(n_sites):
                buckets[m].append(idx[m::n_sites])
        else:
            counts = _largest_remainder(rng.dirichlet(np.full(n_sites, alpha)), len(idx))
            offset = 0
            for m in range(n_sites):
                buckets[m].append(idx[offset : offset + counts[m]])
                offset += counts[m]
    takes = [np.concatenate(b) for b in buckets]
    return [(x[take], y[take]) for take in takes]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_partitions_visit_unordered_gapped_labels_in_ascending_order(seed):
    y = np.tile(np.array([7, 2, 9, 2, 7, 9, 7]), 3)
    x = np.arange(2 * len(y), dtype=np.float64).reshape(-1, 2)
    for alpha, part in (
        (None, partition_iid(x, y, 3, seed)),
        (0.5, partition_dirichlet(x, y, 3, 0.5, seed)),
    ):
        expect = unique_ordered_shards(x, y, 3, alpha, seed)
        assert len(part.shards) == len(expect)
        for (sx, sy), (ex, ey) in zip(part.shards, expect):
            assert np.array_equal(sx, ex) and np.array_equal(sy, ey)


# Every method at a tiny size under both partitioners; prints whether any of
# them loaded `numpy.ma`, which `np.unique(y)` imports on numpy 2.4.
NO_MA_RUNS = """
import sys
from dcil.config import METHODS, PARTITIONS, LocalLossConfig, RunConfig
from dcil.orchestrator import run

for method in METHODS:
    for partition in PARTITIONS:
        run(RunConfig(method=method, partition=partition, n_classes=6, n_base=2,
                      n_sessions=2, n_sites=3, rounds=1, input_dim=4, per_class=20,
                      hidden_dims=(8,), base_epochs=1, local=LocalLossConfig(local_epochs=1),
                      dad_epochs=2, dcd_epochs=1, anchors_per_class=2, shared_per_class=4))
print("numpy.ma" in sys.modules)
"""


def test_runs_never_load_numpy_ma():
    assert fresh_python(NO_MA_RUNS).split() == ["False"]
