"""The package sets one OpenBLAS thread by default, and the count cannot change a result.

Each check runs in a fresh interpreter, because OpenBLAS reads its thread
count once, when numpy loads it, and this process loaded numpy long ago.
"""

from fresh import fresh_python

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


def probe(imports: str, threads: str | None = None) -> list[str]:
    """Whether numpy is loaded after `imports`, and the variable's value then."""
    code = f"import os, sys; {imports}; print('numpy' in sys.modules, os.environ.get({VAR!r}))"
    return fresh_python(code, {VAR: threads}).split()


def test_import_sets_one_thread_before_numpy_loads():
    assert probe("import dcil") == ["False", "1"]


def test_caller_setting_wins():
    assert probe("import dcil", threads="3") == ["False", "3"]


def test_process_that_loaded_numpy_first_is_left_alone():
    assert probe("import numpy; import dcil.orchestrator") == ["True", "None"]


def test_blas_thread_count_leaves_records_bit_identical():
    tasks_one, records, digest_one = fresh_python(RUN, {VAR: None}).split()
    tasks_two, _, digest_two = fresh_python(RUN, {VAR: "2"}).split()
    if int(tasks_one):  # where the interpreter's threads can be counted
        assert int(tasks_two) == int(tasks_one) + 1
    assert records == "3"
    assert digest_one == digest_two
