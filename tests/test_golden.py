"""Golden records: the exact results of one small run per method.

Every session's accuracy (as `repr`), per-class map and communication ledger
is compared as text against the committed text below.  The text pins those
records, not the bytes of the models behind them: a change that rounds every
training step differently can leave every test prediction, and so the text,
as it was, while one moved prediction fails here even when every acceptance
margin still holds.  A record is a function of config, seed, numpy version
and BLAS kernel.  `GOLDEN` was produced with numpy 2.4.6 on scipy-openblas
0.3.31 (x86-64) running its `SkylakeX` kernel.  The same build forced to its
`Haswell` kernel (`OPENBLAS_CORETYPE=Haswell`) rounds some matrix products
differently, yet gives the same text for every method, so both kernels are
pinned to `GOLDEN`.  The kernel a process runs is what
`scipy_openblas_get_corename64_` returns, called through `ctypes` on the
`libscipy_openblas64_` library that numpy loaded (`running_kernel`).
The in-process test compares against the running kernel's text and skips,
naming the kernel, where none is pinned.  Another BLAS build may
legitimately fail these tests.
"""

import ctypes
import glob
import json
import os
from dataclasses import replace

import numpy
import pytest
from fresh import fresh_python

from dcil.local_learner import LocalLossConfig
from dcil.orchestrator import RunConfig, run

_BASE = RunConfig(
    n_sites=3,
    n_sessions=2,
    rounds=2,
    hidden_dims=(16,),
    n_classes=8,
    per_class=60,
    input_dim=8,
    spread=1.5,
    n_base=4,
    base_epochs=10,
    local=LocalLossConfig(local_epochs=3, mu=2.0),
    tau1=2.0,
    tau2=2.0,
    dcd_lr=1e-2,
    dad_epochs=100,
    alpha=0.5,
)
CONFIGS = {
    "dcid": _BASE,
    "dcil_fedavg": replace(_BASE, method="dcil_fedavg"),
    "dcil_fedmax": replace(_BASE, method="dcil_fedmax"),
    "dcil_fedprox": replace(_BASE, method="dcil_fedprox", partition="iid"),
    "centralized": replace(_BASE, method="centralized"),
}


def records_text(result) -> str:
    lines = []
    for r in result.records:
        per_class = ",".join(f"{c}:{v!r}" for c, v in sorted(r.per_class.items()))
        comm = ",".join(f"{k}={r.comm[k]}" for k in sorted(r.comm))
        lines.append(f"{r.session} {r.accuracy!r} [{per_class}] {comm}\n")
    return "".join(lines)


GOLDEN = {
    "dcid": (
        "0 0.6666666666666666 [0:0.4166666666666667,1:0.4166666666666667,2:0.8333333333333334,3:1.0] logit_scalars=0,params_down=0,params_up=0,shared_samples=0\n"
        "1 0.6388888888888888 [0:0.5833333333333334,1:0.25,2:0.8333333333333334,3:1.0,4:0.5,5:0.6666666666666666] logit_scalars=2880,params_down=1476,params_up=1476,shared_samples=40\n"
        "2 0.4583333333333333 [0:0.25,1:0.08333333333333333,2:0.75,3:1.0,4:0.4166666666666667,5:0.6666666666666666,6:0.25,7:0.25] logit_scalars=3840,params_down=1680,params_up=1680,shared_samples=40\n"
    ),
    "dcil_fedavg": (
        "0 0.6666666666666666 [0:0.4166666666666667,1:0.4166666666666667,2:0.8333333333333334,3:1.0] logit_scalars=0,params_down=0,params_up=0,shared_samples=0\n"
        "1 0.6388888888888888 [0:0.5833333333333334,1:0.25,2:0.8333333333333334,3:1.0,4:0.5,5:0.6666666666666666] logit_scalars=0,params_down=1476,params_up=1476,shared_samples=0\n"
        "2 0.46875 [0:0.3333333333333333,1:0.08333333333333333,2:0.75,3:1.0,4:0.4166666666666667,5:0.6666666666666666,6:0.25,7:0.25] logit_scalars=0,params_down=1680,params_up=1680,shared_samples=0\n"
    ),
    "dcil_fedmax": (
        "0 0.6666666666666666 [0:0.4166666666666667,1:0.4166666666666667,2:0.8333333333333334,3:1.0] logit_scalars=0,params_down=0,params_up=0,shared_samples=0\n"
        "1 0.3611111111111111 [0:0.5,1:0.0,2:0.6666666666666666,3:1.0,4:0.0,5:0.0] logit_scalars=0,params_down=1476,params_up=1476,shared_samples=0\n"
        "2 0.1875 [0:0.3333333333333333,1:0.0,2:0.16666666666666666,3:1.0,4:0.0,5:0.0,6:0.0,7:0.0] logit_scalars=0,params_down=1680,params_up=1680,shared_samples=0\n"
    ),
    "dcil_fedprox": (
        "0 0.6666666666666666 [0:0.4166666666666667,1:0.4166666666666667,2:0.8333333333333334,3:1.0] logit_scalars=0,params_down=0,params_up=0,shared_samples=0\n"
        "1 0.5694444444444444 [0:0.6666666666666666,1:0.4166666666666667,2:0.8333333333333334,3:1.0,4:0.0,5:0.5] logit_scalars=0,params_down=1476,params_up=1476,shared_samples=0\n"
        "2 0.4479166666666667 [0:0.4166666666666667,1:0.25,2:0.8333333333333334,3:1.0,4:0.0,5:0.5,6:0.3333333333333333,7:0.25] logit_scalars=0,params_down=1680,params_up=1680,shared_samples=0\n"
    ),
    "centralized": (
        "0 0.6666666666666666 [0:0.4166666666666667,1:0.4166666666666667,2:0.8333333333333334,3:1.0] logit_scalars=0,params_down=0,params_up=0,shared_samples=0\n"
        "1 0.5972222222222222 [0:0.25,1:0.4166666666666667,2:0.75,3:0.6666666666666666,4:0.6666666666666666,5:0.8333333333333334] logit_scalars=0,params_down=0,params_up=0,shared_samples=0\n"
        "2 0.5 [0:0.3333333333333333,1:0.3333333333333333,2:0.5833333333333334,3:0.75,4:0.6666666666666666,5:0.8333333333333334,6:0.25,7:0.25] logit_scalars=0,params_down=0,params_up=0,shared_samples=0\n"
    ),
}


# The pinned text of each kernel.
PINNED = {"SkylakeX": GOLDEN, "Haswell": GOLDEN}


def running_kernel() -> str:
    """The kernel the OpenBLAS library that numpy loaded runs in this process."""
    libs = os.path.dirname(numpy.__file__) + ".libs"
    (lib,) = glob.glob(os.path.join(libs, "libscipy_openblas64_*"))
    corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


@pytest.mark.parametrize("method", sorted(CONFIGS))
def test_golden_records(method):
    kernel = running_kernel()
    if kernel not in PINNED:
        pytest.skip(f"no golden text is pinned for the {kernel} kernel")
    assert records_text(run(CONFIGS[method])) == PINNED[kernel][method]


# The kernel OpenBLAS runs, then the records text of each config, as JSON;
# run with this directory on `sys.path`.
KERNEL_RECORDS = """
import json
from test_golden import CONFIGS, records_text, running_kernel
from dcil.orchestrator import run
records = {method: records_text(run(cfg)) for method, cfg in CONFIGS.items()}
print(json.dumps([running_kernel(), records]))
"""


def test_golden_records_on_the_haswell_kernel():
    # A refactor that keeps the bytes on one kernel but reorders a sum that
    # another kernel rounds differently fails here.
    from numpy._core._multiarray_umath import __cpu_features__  # numpy's runtime CPU probe

    missing = [f for f in ("AVX2", "FMA3") if not __cpu_features__.get(f)]
    if missing:
        pytest.skip(f"the CPU lacks {'/'.join(missing)}, which the Haswell kernel needs")
    tests = os.path.dirname(os.path.abspath(__file__))
    code = f"import sys; sys.path.insert(0, {tests!r})\n{KERNEL_RECORDS}"
    kernel, records = json.loads(fresh_python(code, {"OPENBLAS_CORETYPE": "Haswell"}))
    assert kernel == "Haswell"
    assert records == PINNED["Haswell"]
