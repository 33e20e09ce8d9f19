"""The training step gives the bytes of its plain NumPy spelling.

`nncore` and the three step closures reach each operation through the
cheapest NumPy entry point (`ndarray.dot`, `np.add.reduce`, in-place ufuncs,
`take`); `oracles.plain_*` spells the same arithmetic with `@`, `.sum`/`.max`,
an out-of-place softmax and fancy-index gathers.  Every result here must
match byte for byte, and no input may be written.  A loss with one
soft-target term also gives the bytes of the term-by-term sum, since its
rows need no concatenation.
"""

import numpy as np
import pytest
from oracles import (
    gradient,
    plain_backward,
    plain_distill,
    plain_forward_batch,
    plain_local_update,
    plain_softmax_t,
    plain_train_plain,
    zeros_params,
)
from test_nncore import sum_in_order, trainer_term_sets

from dcil.distillation import DISTILL_FULL_BATCH_LIMIT, _distill
from dcil.local_learner import LocalLossConfig, local_update
from dcil.nncore import (
    CompositeLoss,
    CrossEntropyTerm,
    DistillTerm,
    NetSpec,
    UniformActivationTerm,
    backward,
    forward_batch,
    init_params,
    softmax_t,
)
from dcil.orchestrator import _train_fresh

BATCHES = (1, 2, 31, 40, 300)
WIDTHS = (1, 4, 32, 130)
DEPTHS = ((), (4,), (4, 3))
N_CLASSES = 4


def net(width, depth, activation, seed, n_classes=N_CLASSES):
    """Input and first hidden layer `width` wide; width 4 gives the depths as written."""
    hidden = tuple(width if i == 0 else h for i, h in enumerate(depth))
    spec = NetSpec(width, hidden, n_classes, activation)
    return init_params(spec, np.random.default_rng(seed))


def snapshot(*arrays):
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("width", WIDTHS)
def test_step_gives_the_plain_bytes_and_writes_no_input(width, depth, activation):
    rng = np.random.default_rng([width, len(depth), activation == "relu"])
    params = net(width, depth, activation, 1)
    ref = net(width, depth, activation, 2)
    grad, plain_grad = zeros_params(params.spec), zeros_params(params.spec)  # reused, as in `fit`
    for rows in BATCHES:
        x = rng.normal(size=(rows, width)) * 3.0
        before = snapshot(x, params.values)
        feats, logits = forward_batch(params, x)
        plain_feats, plain_logits = plain_forward_batch(params, x)
        assert feats.tobytes() == plain_feats.tobytes(), rows
        assert logits.tobytes() == plain_logits.tobytes(), rows
        kept = logits.copy()
        for tau in (1.0, 2.0, 5.0):
            assert softmax_t(logits, tau).tobytes() == plain_softmax_t(logits, tau).tobytes()
        assert snapshot(x, params.values) == before and logits.tobytes() == kept.tobytes()

        for terms in trainer_term_sets(params, ref, rng, rows):
            inputs = [params.values, ref.values] + [
                a for t in terms for a in vars(t).values() if isinstance(a, np.ndarray)
            ]
            before = snapshot(*inputs)
            loss = CompositeLoss(terms)
            expect = plain_backward(params, loss).values.tobytes()
            assert gradient(params, loss).values.tobytes() == expect, (rows, terms)
            assert plain_backward(params, loss, out=plain_grad) is plain_grad
            assert backward(params, loss, out=grad) is grad
            assert grad.values.tobytes() == expect, (rows, terms)
            assert plain_grad.values.tobytes() == expect
            # cross-entropy is the distillation term at temperature 1 toward its one-hot rows
            twin = [DistillTerm(t.x, t.targets, 1.0, weight=t.weight)
                    if isinstance(t, CrossEntropyTerm) else t for t in terms]
            assert backward(params, CompositeLoss(twin), out=grad).values.tobytes() == expect
            if (sum(isinstance(t, DistillTerm) for t in terms) == 1
                    and not isinstance(terms[-1], UniformActivationTerm)):
                # one soft-target term keeps the bytes of one pass per term:
                # each term's own gradient, added in term order
                parts = [plain_backward(params, CompositeLoss((t,))).values for t in terms]
                assert sum_in_order(parts).tobytes() == expect, (rows, terms)
            assert snapshot(*inputs) == before, (rows, terms)


def test_softmax_t_gives_the_plain_bytes_on_vectors_and_other_dtypes():
    rng = np.random.default_rng(3)
    for logits in (rng.normal(size=7), rng.normal(size=(5, 6)).astype(np.float32),
                   rng.normal(size=(6, 5)).T, [[1.0, 2.0, 3.0]]):
        before = np.array(logits).tobytes()
        assert softmax_t(logits, 3.0).tobytes() == plain_softmax_t(logits, 3.0).tobytes()
        assert np.array(logits).tobytes() == before


def test_forward_batch_gives_the_plain_bytes_on_a_strided_batch():
    params = net(32, (4, 3), "relu", 4)
    x = np.random.default_rng(5).normal(size=(40, 64))[:, ::2]
    for got, want in zip(forward_batch(params, x), plain_forward_batch(params, x)):
        assert got.tobytes() == want.tobytes()


def shard(rng, rows, dim, classes):
    return rng.normal(size=(rows, dim)) * 2.0, rng.integers(classes[0], classes[1], size=rows)


def test_train_plain_pass_gives_the_plain_bytes_and_writes_no_input():
    rng = np.random.default_rng(6)
    params = net(8, (16,), "relu", 7)
    x, y = shard(rng, 43, 8, (0, N_CLASSES))  # batches of 8, the last one 3 rows
    before = snapshot(x, y)
    got = _train_fresh(params.spec, x, y, 1, 0.1, 8, 7, [0, 1])
    want = plain_train_plain(params, x, y, 1, 0.1, 8, [0, 1])
    assert got.values.tobytes() == want.values.tobytes()
    assert snapshot(x, y) == before


@pytest.mark.parametrize(
    "method, variant",
    [("dcid", "logit_kd"), ("dcid", "replay_ce"), ("dcil_fedmax", "logit_kd"),
     ("dcil_fedprox", "logit_kd")],
)
def test_local_update_pass_gives_the_plain_bytes_and_writes_no_input(method, variant):
    # the penalty weights a run of `method` passes: only its own stays positive
    rng = np.random.default_rng(8)
    old = net(8, (16,), "tanh", 9, n_classes=3)
    general = net(8, (16,), "tanh", 10, n_classes=5)
    shard_x, shard_y = shard(rng, 30, 8, (3, 5))
    anchors = (rng.normal(size=(12, 8)), np.repeat([0, 1, 2], 4))  # 42 rows: batches 32 and 10
    cfg = LocalLossConfig(anchor_variant=variant, local_epochs=1, lr=0.05,
                          mu=0.2 if method == "dcil_fedprox" else 0.0,
                          beta=50.0 if method == "dcil_fedmax" else 0.0)
    inputs = [shard_x, shard_y, general.values, old.values, *anchors]
    before = snapshot(*inputs)
    kwargs = dict(old_general=old, seed=[3, 4])
    got = local_update((shard_x, shard_y), anchors, general, cfg, **kwargs)
    want = plain_local_update((shard_x, shard_y), anchors, general, cfg, **kwargs)
    assert got.values.tobytes() == want.values.tobytes()
    assert snapshot(*inputs) == before


@pytest.mark.parametrize("pool", [40, DISTILL_FULL_BATCH_LIMIT + 45])
def test_distill_pass_gives_the_plain_bytes_and_writes_no_input(pool):
    rng = np.random.default_rng(11)
    params = net(8, (16,), "relu", 12, n_classes=6)
    shared = rng.normal(size=(pool, 8))
    teacher = rng.normal(size=(pool, 6)) * 4.0  # logits, softened by the first step
    before = snapshot(shared, teacher, params.values)
    got = _distill(params, teacher, shared, 2.0, 0.5, 1, [5, 6])
    want = plain_distill(params, teacher, shared, 2.0, 0.5, 1, [5, 6])
    assert got.values.tobytes() == want.values.tobytes()
    assert snapshot(shared, teacher, params.values) == before
