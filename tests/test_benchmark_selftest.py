"""The benchmark harness self-test passes against this checkout.

Among other things it checks that the traced `sgd_step` calls of every
method equal the closed-form step count, so a refactor that moves the
optimizer steps out of their stages fails here rather than in the benchmark.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    res = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert "selftest ok" in res.stdout
