"""The package sets one OpenBLAS thread by default, and the count cannot change a result.

Each check runs in a fresh interpreter, because OpenBLAS reads its thread
count once, when numpy loads it, and this process loaded numpy long ago.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
VAR = "OPENBLAS_NUM_THREADS"

# One small dcid run over 128-wide layers, where two BLAS threads split the
# products; prints the interpreter's thread count, the number of records and
# the sha256 of the records text.
RUN = """
import hashlib
import os
from dcil.local_learner import LocalLossConfig
from dcil.orchestrator import RunConfig, run

cfg = RunConfig(n_sites=3, n_sessions=2, rounds=1, hidden_dims=(128, 128), n_classes=8,
                per_class=40, input_dim=32, n_base=4, base_epochs=5,
                local=LocalLossConfig(local_epochs=2), dad_epochs=20)
result = run(cfg)
tasks = os.listdir("/proc/self/task") if os.path.isdir("/proc/self/task") else []
text = "".join(f"{r.session} {r.accuracy!r} {sorted(r.per_class.items())} {sorted(r.comm.items())}\\n"
               for r in result.records)
print(len(tasks), len(result.records), hashlib.sha256(text.encode()).hexdigest())
"""


def python(code: str, threads: str | None = None) -> str:
    """stdout of `code` in a fresh interpreter, with `threads` as the variable (None: unset)."""
    env = {k: v for k, v in os.environ.items() if k != VAR}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    if threads is not None:
        env[VAR] = threads
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout


def probe(imports: str, threads: str | None = None) -> list[str]:
    """Whether numpy is loaded after `imports`, and the variable's value then."""
    code = f"import os, sys; {imports}; print('numpy' in sys.modules, os.environ.get({VAR!r}))"
    return python(code, threads).split()


def test_import_sets_one_thread_before_numpy_loads():
    assert probe("import dcil") == ["False", "1"]


def test_caller_setting_wins():
    assert probe("import dcil", threads="3") == ["False", "3"]


def test_process_that_loaded_numpy_first_is_left_alone():
    assert probe("import numpy; import dcil.orchestrator") == ["True", "None"]


def test_blas_thread_count_leaves_records_bit_identical():
    tasks_one, records, digest_one = python(RUN).split()
    tasks_two, _, digest_two = python(RUN, threads="2").split()
    if int(tasks_one):  # where the interpreter's threads can be counted
        assert int(tasks_two) == int(tasks_one) + 1
    assert records == "3"
    assert digest_one == digest_two
