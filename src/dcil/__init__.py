"""Desk-scale simulator of decentralized class-incremental learning."""

import os
import sys

# dcil trains one small model at a time, so each step is one small matrix
# product; a second BLAS thread only adds hand-off and contention to it,
# and between products it spins on the other core.  OpenBLAS reads this once, when numpy loads it; the package init is the
# first dcil code every entry point runs, so it comes before numpy in the
# CLI.  A process that imported numpy first keeps its own setting, and a
# caller's value always wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
