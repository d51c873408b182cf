"""Tier-1 settings that must be in place before numpy is imported.

BLAS runs on one thread, as in ``perfbench``: on a small shared box a
second busy process makes multithreaded BLAS calls on tiny matrices
spin and wait on each other, which multiplied the suite's run time.
A value already set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
