"""Fast self-test of the benchmark harness on tiny configs.

Usage, from the root of a dcil checkout: python3 perfbench/selftest.py
Exits 0 when every check holds, 1 otherwise.

Checks that installing the span wrappers leaves the records digest unchanged,
that the closed-form step count equals the traced sgd_step calls, that runs
in forked and spawned process-pool workers leave their spans behind, and
that a raising run, a tampered ledger value and a changed repeat each count
as a failed run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness as h  # noqa: E402
import run as bench  # noqa: E402
from tracer import Tracer, layer_metrics, read_spans_dir  # noqa: E402

import dcil.orchestrator as orch  # noqa: E402

ORIGINAL_RUN = orch.run
METHODS = ("dcid", "dcil_fedavg", "dcil_fedprox", "dcil_fedmax", "centralized")


def tiny_configs():
    for method in METHODS:
        yield h.build_run_config(h.tiny_doc(method))
        yield h.build_run_config({**h.tiny_doc(method), "partition": "dirichlet",
                                  "alpha": 0.3, "seed": 7})


def check_tracing() -> list[str]:
    errors = []
    for cfg in tiny_configs():
        plain = h.sha256([h.records_text(cfg, orch.run(cfg).records)])
        with Tracer() as tracer:
            traced = h.sha256([h.records_text(cfg, orch.run(cfg).records)])
        where = f"{cfg.method}/{cfg.partition}"
        if plain != traced:
            errors.append(f"{where}: tracing changed the records digest")
        steps, _ = h.plan(cfg)
        calls = layer_metrics(tracer.take())["nncore.sgd_step.calls"]
        if calls != steps:
            errors.append(f"{where}: closed form {steps} steps, traced {calls}")
        if orch.run is not ORIGINAL_RUN:
            errors.append("tracer left a wrapper installed")
    return errors


POOL_SCRIPT = """
import json, multiprocessing, sys
from concurrent.futures import ProcessPoolExecutor
import dcil.orchestrator as orch
from dcil.cli import build_run_config

cfg = build_run_config(json.loads(sys.argv[1]))
for method in ("fork", "spawn"):
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context(method)) as pool:
        pool.submit(orch.run, cfg).result()
"""


def check_pool_workers() -> list[str]:
    """A traced child runs one config in a forked and one in a spawned worker."""
    doc = h.tiny_doc("dcid")
    steps, _ = h.plan(h.build_run_config(doc))
    with tempfile.TemporaryDirectory(dir=bench.OUT) as spans_dir:
        env = bench.child_env(os.path.join(bench.HERE, "hook"), PERFBENCH_SPANS_DIR=spans_dir)
        res = subprocess.run([sys.executable, "-c", POOL_SCRIPT, json.dumps(doc)], cwd=bench.ROOT,
                             env=env, capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            return [f"process-pool run failed: {res.stderr.strip()[-300:]}"]
        files = len(os.listdir(spans_dir))
        calls = layer_metrics(read_spans_dir(spans_dir))["nncore.sgd_step.calls"]
    errors = []
    if files != 2:
        errors.append(f"process-pool workers wrote {files} spans files, expected 2")
    if calls != 2 * steps:
        errors.append(f"process-pool workers traced {calls} sgd_step calls, expected {2 * steps}")
    return errors


def check_gate() -> list[str]:
    errors = []
    cfg = h.build_run_config(h.tiny_doc("dcid"))
    _, ledgers = h.plan(cfg)
    args = argparse.Namespace(workload="dcid", seed=0, seconds=1.0, trace=0)

    def outcome(fake_run, repeats=1):
        ctx = bench.Context(args)
        orch.run = fake_run
        try:
            for _ in range(repeats):
                ctx.run_one(cfg, ledgers)
        finally:
            orch.run = ORIGINAL_RUN
        return ctx.attempted, ctx.failed

    if outcome(ORIGINAL_RUN, repeats=2) != (2, 0):
        errors.append("a clean run was counted as failed")

    def raising(c):
        raise FloatingPointError("diverged")

    if outcome(raising) != (1, 1):
        errors.append("a raising run was not counted as failed")

    def tampered(c):
        res = ORIGINAL_RUN(c)
        res.records[1].comm = {**res.records[1].comm,
                               "params_up": res.records[1].comm["params_up"] + 1}
        return res

    if outcome(tampered) != (1, 1):
        errors.append("a tampered ledger value was not counted as failed")

    calls = []

    def drifting(c):
        res = ORIGINAL_RUN(c)
        if calls:
            res.records[-1].accuracy = float(res.records[-1].accuracy) + 1e-12
        calls.append(1)
        return res

    if outcome(drifting, repeats=2) != (2, 1):
        errors.append("a repeat with a different digest was not counted as failed")

    def out_of_range(c):
        res = ORIGINAL_RUN(c)
        res.records[0].accuracy = 1.5
        return res

    if outcome(out_of_range) != (1, 1):
        errors.append("an accuracy outside [0, 1] was not counted as failed")
    return errors


def main() -> None:
    os.makedirs(bench.OUT, exist_ok=True)
    errors = check_tracing() + check_pool_workers() + check_gate()
    for e in errors:
        print(f"FAIL {e}")
    print("selftest ok" if not errors else f"selftest: {len(errors)} failures")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
