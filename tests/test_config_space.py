"""A property over the config space: every tiny config either raises
`ConfigError` when it is built, or runs to records whose accuracies are
finite and in [0, 1], or stops with `InputError("SGD diverged …")`.  No
other exception may escape.  Where the anchor weight is positive, each
session's traffic also equals the benchmark's closed-form ledger
(`harness.plan`), so the ledger gate holds over the whole config space, not
only over the benchmark's three workloads.

The configs cover every method, partition, activation and anchor variant,
with zero learning rates, zero epochs, one site and pools larger than a
class holds.
"""

import math
import os
import sys

from hypothesis import given, settings, strategies as st

from dcil.config import (
    ACTIVATIONS,
    ANCHOR_VARIANTS,
    METHODS,
    PARTITIONS,
    ConfigError,
    LocalLossConfig,
    RunConfig,
)
from dcil.nncore import InputError
from dcil.orchestrator import run

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, BENCH)
import harness  # noqa: E402

sys.path.remove(BENCH)


@st.composite
def tiny_configs(draw):
    """Keyword arguments of a `LocalLossConfig` and of a `RunConfig` around it."""
    n_base, n_sessions, k_new = (draw(st.integers(1, 3)) for _ in range(3))
    local = {
        "anchor_variant": draw(st.sampled_from(ANCHOR_VARIANTS)),
        "lam": draw(st.sampled_from([0.0, 1.0, 5.0])),
        "mu": draw(st.sampled_from([0.0, 0.2])),
        # 16000 = 500 * 32, beta = 500 of the penalty without its 1/d: each of
        # seeds 0-19 of the default config ends at chance or diverges there
        "beta": draw(st.sampled_from([0.0, 10.0, 500.0, 16000.0])),
        "lr": draw(st.sampled_from([0.0, 0.05, 0.5, 1e300])),
        "local_epochs": draw(st.integers(1, 2)),
        "batch_size": draw(st.integers(1, 8)),
        "anchor_temperature": draw(st.sampled_from([0.5, 2.0])),
    }
    run_kwargs = {
        "method": draw(st.sampled_from(METHODS)),
        "seed": draw(st.integers(0, 2**32)),
        "n_sites": draw(st.integers(1, 4)),
        "n_sessions": n_sessions,
        "rounds": draw(st.integers(1, 2)),
        "hidden_dims": tuple(draw(st.lists(st.integers(1, 6), max_size=2))),
        "activation": draw(st.sampled_from(ACTIVATIONS)),
        # now and then a class too many for equal sessions
        "n_classes": n_base + n_sessions * k_new + draw(st.sampled_from([0] * 7 + [1])),
        "per_class": draw(st.integers(3, 12)),
        "input_dim": draw(st.integers(2, 4)),
        "spread": draw(st.sampled_from([0.0, 0.5, 1.0])),
        "n_base": n_base,
        "base_epochs": draw(st.integers(0, 2)),
        "base_lr": draw(st.sampled_from([0.0, 0.1, 0.5, 1e300])),
        "tau1": draw(st.sampled_from([1.0, 5.0])),
        "tau2": draw(st.sampled_from([1.0, 5.0])),
        "shared_per_class": draw(st.integers(0, 15)),
        "dcd_lr": draw(st.sampled_from([0.0, 1e-4, 0.1])),
        "dcd_epochs": draw(st.integers(0, 2)),
        "dad_lr": draw(st.sampled_from([0.0, 1.0, 1e300])),
        "dad_epochs": draw(st.integers(0, 3)),
        "anchors_per_class": draw(st.integers(0, 15)),
        "partition": draw(st.sampled_from(PARTITIONS)),
        "alpha": draw(st.sampled_from([0.05, 1.0, 100.0])),
    }
    return local, run_kwargs


@settings(deadline=None, derandomize=True, max_examples=200)
@given(tiny_configs())
def test_a_config_fails_to_build_or_runs_to_finite_records_or_diverges(kwargs):
    local, run_kwargs = kwargs
    try:
        cfg = RunConfig(local=LocalLossConfig(**local), **run_kwargs)
    except ConfigError:
        return
    try:
        records = run(cfg).records
    except InputError as exc:
        assert str(exc).startswith("SGD diverged"), exc
        return
    assert [r.session for r in records] == list(range(cfg.n_sessions + 1))
    for r in records:
        assert math.isfinite(r.accuracy) and 0 <= r.accuracy <= 1
    if cfg.local.lam > 0:
        assert [r.comm for r in records] == harness.plan(cfg)[1]
