"""Desk-scale simulator of decentralized class-incremental learning."""

import os
import sys

# dcil trains one small model at a time, so each step is one small matrix
# product.  Where OpenBLAS splits one over two threads (128-wide layers; at
# 32 wide it does not, and a run's CPU time equals its wall time), the
# second thread only adds hand-off and contention, and between products it
# spins on the other core.
# OpenBLAS reads this once, when numpy loads it.  The package init is the
# first dcil code every entry point runs, and the CLI loads numpy only once
# a command's config is checked, so this comes first there.  A process
# that imported numpy first keeps its own setting, and a caller's value
# always wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
