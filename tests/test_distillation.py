"""Shared pool construction, logits ensembling, distillation and averaging."""

import numpy as np
import pytest
from oracles import distill_loss, zeros_params

from dcil.distillation import (
    DISTILL_BATCH,
    DISTILL_FULL_BATCH_LIMIT,
    build_shared_dataset,
    compute_logits_table,
    dad_refine,
    dcd_finetune,
    ensemble_logits,
    ensemble_weights,
    fedavg_aggregate,
)
from dcil.nncore import (
    ConfigError,
    InputError,
    NetSpec,
    ParamVector,
    backward,
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
    out = ensemble_logits([t], np.array([1.0]))
    assert np.allclose(out, t, atol=1e-15)


def test_ensemble_one_hot_weights_select_one_table():
    a = np.ones((2, 3))
    b = np.full((2, 3), 7.0)
    out = ensemble_logits([a, b], np.array([0.0, 1.0]))
    assert np.allclose(out, b, atol=1e-15)


def test_ensemble_weighted_mean_oracle():
    rng = np.random.default_rng(0)
    tables = [rng.normal(size=(4, 3)) for _ in range(3)]
    w = np.array([0.2, 0.3, 0.5])
    out = ensemble_logits(tables, w)
    expect = sum(wi * t for wi, t in zip(w, tables))
    assert np.allclose(out, expect, atol=1e-14)


def test_ensemble_rejects_mismatches():
    a = np.ones((2, 3))
    b = np.ones((3, 3))
    with pytest.raises(InputError):
        ensemble_logits([a, b], np.array([0.5, 0.5]))
    with pytest.raises(InputError):
        ensemble_logits([a], np.array([0.5, 0.5]))


def test_ensemble_weights_validation():
    counts = np.array([10.0, 30.0, 0.0, 7.0])
    assert np.array_equal(ensemble_weights(counts), counts / counts.sum())
    # a negative count is bad input, not a negative weight
    with pytest.raises(InputError, match="nonnegative"):
        ensemble_weights([3, -1])
    # no site holds data: nothing to weigh by, and no uniform fallback
    with pytest.raises(ConfigError, match="all-zero"):
        ensemble_weights([0, 0])


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


def test_distill_takes_no_step_without_pool_or_lr(monkeypatch):
    calls = []
    monkeypatch.setattr("dcil.distillation.backward", lambda *a, **k: calls.append(a))
    params = net()
    pool = shared_pool(n=5)
    teacher = compute_logits_table(net(seed=1), pool)
    for stage in (dcd_finetune, dad_refine):
        for rows, table, lr in ((pool, teacher, 0.0), (pool[:0], teacher[:0], 0.5)):
            out = stage(params, table, rows, 5.0, lr=lr, epochs=3, seed=0)
            assert out.values.tobytes() == params.values.tobytes()
            assert out.values is not params.values
    assert calls == []


def test_distill_checks_its_teacher_before_fit_whatever_the_lr():
    # a short or non-finite teacher is refused even when no step would read it
    params = net()
    pool = shared_pool(n=5)
    for teacher in (np.zeros((4, 4)), np.full((5, 4), np.nan)):  # short, and not finite
        for stage in (dcd_finetune, dad_refine):
            for rows, lr in ((pool, 0.0), (pool[:0], 0.5)):
                with pytest.raises(InputError):
                    stage(params, teacher, rows, 5.0, lr=lr, epochs=3, seed=0)


def test_dad_refine_walks_a_large_pool_in_batches(monkeypatch):
    # above DISTILL_FULL_BATCH_LIMIT rows the pool is walked in DISTILL_BATCH
    # slices, the last one ragged: 300 rows make 128, 128 and 44 per epoch
    assert DISTILL_FULL_BATCH_LIMIT < 300 and DISTILL_BATCH == 128
    rows = []

    def spy(params, loss, out=None):
        rows.append(len(loss.terms[0].x))
        return backward(params, loss, out=out)

    monkeypatch.setattr("dcil.distillation.backward", spy)
    pool = shared_pool(n=300)
    teacher = compute_logits_table(net(seed=1), pool)
    dad_refine(net(), teacher, pool, 5.0, lr=0.1, epochs=2, seed=0)
    assert rows == [128, 128, 44] * 2


def test_dad_moves_student_toward_teacher():
    aggregated = net(seed=0)
    teacher_model = net(seed=1)
    pool = shared_pool()
    teacher = compute_logits_table(teacher_model, pool)
    out = dad_refine(aggregated, teacher, pool, 5.0, lr=0.5, epochs=50, seed=0)
    assert distill_loss(out, teacher, pool, 5.0) < distill_loss(aggregated, teacher, pool, 5.0)


def test_distill_teacher_row_count_checked():
    # a short, narrow or wide teacher raises one error before `fit`, whether
    # or not a step would read it: at lr 0, at 0 epochs and at lr > 0
    student = net()
    pool = shared_pool(n=5)
    message = "^teacher table must have one row per pool sample over the full head$"
    for rows, teacher in ((pool, np.zeros((4, 4))), (pool, np.zeros((5, 3))),
                          (pool, np.zeros((5, 5))), (pool[:0], np.zeros((0, 5)))):
        for stage in (dcd_finetune, dad_refine):
            for lr, epochs in ((0.0, 5), (0.1, 0), (1e-4, 5), (1.0, 5)):
                with pytest.raises(InputError, match=message):
                    stage(student, teacher, rows, 5.0, lr=lr, epochs=epochs, seed=0)


def test_distill_rejects_a_negative_lr_whatever_the_epochs_and_pool(monkeypatch):
    # `fit` checks `lr` ahead of its shortcut for no epochs or no rows
    steps = []
    monkeypatch.setattr("dcil.distillation.backward", lambda *a, **k: steps.append(a))
    params = net()
    pool = shared_pool(n=5)
    teacher = compute_logits_table(net(seed=1), pool)
    for stage in (dcd_finetune, dad_refine):
        for rows, table, epochs in ((pool, teacher, 0), (pool[:0], teacher[:0], 1),
                                    (pool, teacher, 1)):
            with pytest.raises(ConfigError, match="^learning rate must be >= 0, got -0.1$"):
                stage(params, table, rows, 5.0, lr=-0.1, epochs=epochs, seed=0)
    assert steps == []


def test_distill_raises_on_a_logit_that_overflows_alone():
    # 1e200 * -1e200 overflows to a -inf logit and nothing else: the softmax
    # of [0, 0, -inf] is finite, and so would be every step and the final
    # model.  The trap on that overflow stops the stage at its first step.
    student = zeros_params(NetSpec(2, (), 3))
    student.layers()[0][0][0, 2] = -1e200
    pool = np.array([[1e200, 0.0], [1e200, 1.0]])
    message = "^SGD diverged in epoch 1, batch 1: overflow encountered in dot$"
    with pytest.raises(InputError, match=message):
        dcd_finetune(student, np.zeros((2, 3)), pool, 1.0, lr=1e-300, epochs=3, seed=0)


def test_dad_refine_raises_on_a_nan_row_in_the_shared_pool():
    # a NaN input would raise no trap and spread into the parameters: `fit`
    # rejects the row before any step, whatever the learning rate and epochs
    student = net()
    pool = shared_pool()
    teacher = compute_logits_table(net(seed=1), pool)
    pool[5] = np.nan
    for lr, epochs in ((0.5, 3), (0.0, 3), (0.5, 0)):
        with pytest.raises(InputError, match="^input rows contain non-finite values$"):
            dad_refine(student, teacher, pool, 5.0, lr=lr, epochs=epochs, seed=0)


# ---------------------------------------------------------------------------
# FedAvg aggregation
# ---------------------------------------------------------------------------


def test_fedavg_idempotent_on_identical_models():
    p = net()
    out = fedavg_aggregate([p.copy(), p.copy(), p.copy()], ensemble_weights([5, 1, 3]))
    assert np.array_equal(out.values, p.values)


def test_fedavg_weighted_mean_oracle():
    models = [net(seed=s) for s in range(3)]
    counts = [10, 20, 70]
    out = fedavg_aggregate(models, ensemble_weights(counts))
    expect = sum((c / 100.0) * m.values for c, m in zip(counts, models))
    assert np.abs(out.values - expect).max() < 1e-12


def test_fedavg_is_the_ensemble_sum_of_the_parameter_vectors():
    # FedAvg weighs and sums through the teacher's rule and loop, bit for bit
    models = [net(seed=s) for s in range(4)]
    weights = ensemble_weights([10, 0, 23, 7])  # a site with no data gets weight 0
    out = fedavg_aggregate(models, weights)
    expect = ensemble_logits([m.values for m in models], weights)
    assert out.values.tobytes() == expect.tobytes()


def test_fedavg_affine_equivariance():
    # aggregating affinely-shifted parameter vectors shifts the aggregate
    models = [net(seed=s) for s in range(3)]
    weights = ensemble_weights([1, 2, 3])
    shift = np.random.default_rng(9).normal(size=models[0].spec.param_count)
    base = fedavg_aggregate(models, weights)
    shifted = fedavg_aggregate(
        [ParamVector(2.0 * m.values + shift, m.spec) for m in models], weights
    )
    assert np.abs(shifted.values - (2.0 * base.values + shift)).max() < 1e-10


def test_fedavg_zero_count_site_is_ignored():
    a, b = net(seed=0), net(seed=1)
    out = fedavg_aggregate([a, b], ensemble_weights([0, 7]))
    assert np.array_equal(out.values, b.values)


def test_fedavg_checks_one_weight_per_model_before_its_identical_models_shortcut():
    a, b = net(seed=0), net(seed=1)
    for models in ([a, a.copy()], [a, b]):
        with pytest.raises(InputError, match="2 tables but 1 weights"):
            fedavg_aggregate(models, [1.0])


def test_fedavg_error_cases():
    a = net(seed=0)
    b = init_params(NetSpec(3, (5,), 5), np.random.default_rng(0))
    with pytest.raises(InputError):
        fedavg_aggregate([], [1.0])
    with pytest.raises(InputError):
        fedavg_aggregate([a, b], [0.5, 0.5])
