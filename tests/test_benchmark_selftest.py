"""The benchmark harness self-test, and a small traced `dcil compare`, pass
against this checkout.

Among other things the self-test checks that the traced `sgd_step` calls of
every method equal the closed-form step count, so a refactor that moves the
optimizer steps out of their stages fails here rather than in the benchmark.
"""

import csv
import json
import os
import subprocess
import sys

from dcil.cli import build_run_config
from dcil.orchestrator import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, BENCH)
import harness  # noqa: E402
from tracer import layer_metrics, read_spans_dir  # noqa: E402

sys.path.remove(BENCH)


def test_perfbench_selftest_passes():
    res = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert "selftest ok" in res.stdout


def test_traced_compare_steps_and_csvs_match_the_grid(tmp_path):
    # The benchmark's compare-wide check, on a tiny grid: `dcil compare` run
    # with the tracer hook exits 0, its traced sgd_step calls equal the closed
    # form summed over the grid, and its CSVs equal the grid run in-process.
    tiny = {k: v for k, v in harness.tiny_doc("dcid").items() if k != "method"}
    doc = {**tiny, "methods": ["dcid", "dcil_fedavg"], "seeds": [0, 1], "alphas": [0.3, 1.0]}
    config, spans, out = tmp_path / "compare.json", tmp_path / "spans", tmp_path / "out"
    config.write_text(json.dumps(doc))
    spans.mkdir()
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([os.path.join(BENCH, "hook"), os.path.join(ROOT, "src")]),
        "PERFBENCH_SPANS_DIR": str(spans),
    }
    res = subprocess.run(
        [sys.executable, "-c", "from dcil.cli import main; main(prog_name='dcil')",
         "compare", str(config), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr

    grid = harness.compare_grid(doc)
    steps = sum(harness.plan(build_run_config(d))[0] for _, d in grid)
    assert steps == 94
    assert layer_metrics(read_spans_dir(str(spans)))["nncore.sgd_step.calls"] == steps
    tables = tuple(
        list(csv.reader((out / name).read_text().splitlines()))
        for name in ("comparison.csv", "summary.csv")
    )
    assert tables == harness.expected_compare_csvs(
        [(label, run(build_run_config(d)).records) for label, d in grid]
    )
