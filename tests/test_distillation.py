"""Shared pool construction, logits ensembling, distillation and averaging."""

import numpy as np
import pytest
from oracles import distill_loss

from dcil.distillation import (
    EnsembleWeights,
    build_shared_dataset,
    compute_logits_table,
    dad_refine,
    dcd_finetune,
    ensemble_logits,
    fedavg_aggregate,
)
from dcil.nncore import (
    ConfigError,
    InputError,
    NetSpec,
    ParamVector,
    forward_batch,
    init_params,
)


def net(seed=0, input_dim=3, hidden=(5,), n_classes=4):
    spec = NetSpec(input_dim, hidden, n_classes)
    return init_params(spec, np.random.default_rng(seed))


def shared_pool(n=12, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, dim))


# ---------------------------------------------------------------------------
# Shared dataset
# ---------------------------------------------------------------------------


def shards_for(classes, per_class, n_sites=3, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    shards = []
    for m in range(n_sites):
        xs, ys = [], []
        for c in classes:
            xs.append(rng.normal(size=(per_class, dim)) + 10 * c + m)
            ys.append(np.full(per_class, c, dtype=np.int64))
        shards.append((np.concatenate(xs), np.concatenate(ys)))
    return shards


def test_shared_dataset_draw_counts_and_determinism():
    shards = shards_for([5, 6], per_class=10)
    a = build_shared_dataset(shards, 4, [5, 6], seed=1)
    b = build_shared_dataset(shards, 4, [5, 6], seed=1)
    c = build_shared_dataset(shards, 4, [5, 6], seed=2)
    assert len(a) == 8  # 4 per class
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_shared_dataset_carries_no_labels():
    shards = shards_for([1], per_class=5)
    pool = build_shared_dataset(shards, 3, [1], seed=0)
    assert isinstance(pool, np.ndarray)
    assert pool.shape == (3, 3) and pool.dtype == np.float64


def test_shared_dataset_short_class_contributes_all():
    shards = shards_for([2], per_class=2)  # 6 total across 3 sites
    pool = build_shared_dataset(shards, 50, [2], seed=0)
    assert len(pool) == 6


def test_shared_dataset_empty_cases():
    shards = shards_for([1], per_class=5)
    assert len(build_shared_dataset(shards, 0, [1], seed=0)) == 0
    assert len(build_shared_dataset(shards, 5, [9], seed=0)) == 0


def test_shared_dataset_provenance_tracks_site_of_origin():
    # every pool row is a row of some site's shard
    shards = shards_for([3], per_class=4, n_sites=2)
    pool = build_shared_dataset(shards, 8, [3], seed=0)
    assert len(pool) == 8
    for x in pool:
        assert any(np.array_equal(x, row) for sx, _ in shards for row in sx)


# ---------------------------------------------------------------------------
# Logits tables and ensembling
# ---------------------------------------------------------------------------


def test_compute_logits_table_matches_forward():
    params = net()
    pool = shared_pool()
    table = compute_logits_table(params, pool)
    _, logits = forward_batch(params, pool)
    assert np.array_equal(table, logits)


def test_ensemble_identity_on_single_model():
    t = np.arange(12.0).reshape(3, 4)
    out = ensemble_logits([t], EnsembleWeights([1.0]))
    assert np.allclose(out, t, atol=1e-15)


def test_ensemble_one_hot_weights_select_one_table():
    a = np.ones((2, 3))
    b = np.full((2, 3), 7.0)
    out = ensemble_logits([a, b], EnsembleWeights([0.0, 1.0]))
    assert np.allclose(out, b, atol=1e-15)


def test_ensemble_weighted_mean_oracle():
    rng = np.random.default_rng(0)
    tables = [rng.normal(size=(4, 3)) for _ in range(3)]
    w = np.array([0.2, 0.3, 0.5])
    out = ensemble_logits(tables, EnsembleWeights(w))
    expect = sum(wi * t for wi, t in zip(w, tables))
    assert np.allclose(out, expect, atol=1e-14)


def test_ensemble_rejects_mismatches():
    a = np.ones((2, 3))
    b = np.ones((3, 3))
    with pytest.raises(InputError):
        ensemble_logits([a, b], EnsembleWeights([0.5, 0.5]))
    with pytest.raises(InputError):
        ensemble_logits([a], EnsembleWeights([0.5, 0.5]))


def test_ensemble_weights_validation():
    with pytest.raises(InputError):
        EnsembleWeights([0.5, 0.6])
    with pytest.raises(InputError):
        EnsembleWeights([-0.2, 1.2])
    w = EnsembleWeights.from_counts([10, 30])
    assert np.allclose(w.omega, [0.25, 0.75], atol=1e-15)
    assert np.allclose(EnsembleWeights.from_counts([0, 0]).omega, [0.5, 0.5])


# ---------------------------------------------------------------------------
# Distillation fine-tuning
# ---------------------------------------------------------------------------


def test_distill_loss_zero_at_fixed_point_and_no_movement():
    # a model distilled toward its own outputs must not move
    params = net()
    pool = shared_pool()
    teacher = compute_logits_table(params, pool)
    assert distill_loss(params, teacher, pool, 5.0) < 1e-20
    out = dcd_finetune(params, teacher, pool, 5.0, lr=0.05, epochs=20, seed=3)
    assert np.linalg.norm(out.values - params.values) < 1e-6


def test_dcd_reduces_distillation_loss():
    student = net(seed=0)
    teacher_model = net(seed=1)
    pool = shared_pool()
    teacher = compute_logits_table(teacher_model, pool)
    before = distill_loss(student, teacher, pool, 5.0)
    out = dcd_finetune(student, teacher, pool, 5.0, lr=0.5, epochs=50, seed=0)
    after = distill_loss(out, teacher, pool, 5.0)
    assert after < before


def test_dcd_deterministic_per_seed():
    student = net(seed=0)
    teacher = compute_logits_table(net(seed=1), shared_pool())
    pool = shared_pool()
    a = dcd_finetune(student, teacher, pool, 5.0, lr=0.1, epochs=3, seed=7)
    b = dcd_finetune(student, teacher, pool, 5.0, lr=0.1, epochs=3, seed=7)
    assert np.array_equal(a.values, b.values)


def test_dcd_empty_pool_returns_input_bitwise():
    student = net()
    empty = np.empty((0, 3))
    teacher = np.empty((0, 4))
    out = dcd_finetune(student, teacher, empty, 5.0, lr=0.1, epochs=3, seed=0)
    assert np.array_equal(out.values, student.values)
    assert out.values is not student.values


def test_dad_empty_pool_is_exactly_the_aggregate():
    aggregated = net(seed=5)
    empty = np.empty((0, 3))
    teacher = np.empty((0, 4))
    out = dad_refine(aggregated, teacher, empty, 5.0, lr=0.1, epochs=3, seed=0)
    assert np.array_equal(out.values, aggregated.values)


def test_zero_learning_rate_returns_input_bitwise():
    params = net()
    pool = shared_pool()
    teacher = compute_logits_table(net(seed=1), pool)
    for stage in (dcd_finetune, dad_refine):
        out = stage(params, teacher, pool, 5.0, lr=0.0, epochs=3, seed=0)
        assert np.array_equal(out.values, params.values)
        assert out.values is not params.values


def test_dad_moves_student_toward_teacher():
    aggregated = net(seed=0)
    teacher_model = net(seed=1)
    pool = shared_pool()
    teacher = compute_logits_table(teacher_model, pool)
    out = dad_refine(aggregated, teacher, pool, 5.0, lr=0.5, epochs=50, seed=0)
    assert distill_loss(out, teacher, pool, 5.0) < distill_loss(aggregated, teacher, pool, 5.0)


def test_distill_teacher_row_count_checked():
    student = net()
    pool = shared_pool(n=5)
    teacher = np.zeros((4, 4))
    with pytest.raises(InputError):
        dcd_finetune(student, teacher, pool, 5.0)
    with pytest.raises(InputError):
        dad_refine(student, teacher, pool, 5.0)


# ---------------------------------------------------------------------------
# FedAvg aggregation
# ---------------------------------------------------------------------------


def test_fedavg_idempotent_on_identical_models():
    p = net()
    out = fedavg_aggregate([p.copy(), p.copy(), p.copy()], [5, 1, 3])
    assert np.array_equal(out.values, p.values)


def test_fedavg_weighted_mean_oracle():
    models = [net(seed=s) for s in range(3)]
    counts = [10, 20, 70]
    out = fedavg_aggregate(models, counts)
    expect = sum((c / 100.0) * m.values for c, m in zip(counts, models))
    assert np.abs(out.values - expect).max() < 1e-12


def test_fedavg_affine_equivariance():
    # aggregating affinely-shifted parameter vectors shifts the aggregate
    models = [net(seed=s) for s in range(3)]
    counts = [1, 2, 3]
    shift = np.random.default_rng(9).normal(size=models[0].spec.param_count)
    base = fedavg_aggregate(models, counts)
    shifted = fedavg_aggregate(
        [ParamVector(2.0 * m.values + shift, m.spec) for m in models], counts
    )
    assert np.abs(shifted.values - (2.0 * base.values + shift)).max() < 1e-10


def test_fedavg_zero_count_site_is_ignored():
    a, b = net(seed=0), net(seed=1)
    out = fedavg_aggregate([a, b], [0, 7])
    assert np.array_equal(out.values, b.values)


def test_fedavg_error_cases():
    a = net(seed=0)
    b = init_params(NetSpec(3, (5,), 5), np.random.default_rng(0))
    with pytest.raises(InputError):
        fedavg_aggregate([], [1])
    with pytest.raises(InputError):
        fedavg_aggregate([a, b], [1, 1])
    with pytest.raises(InputError):
        fedavg_aggregate([a, a], [1, -1])
    with pytest.raises(ConfigError):
        fedavg_aggregate([a, a], [0, 0])
