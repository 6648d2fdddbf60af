"""Test-session setup.

The matrices here are at most 9x9, where extra BLAS threads only add
contention, so each pool gets one thread. pytest imports this file before
any test module imports numpy; a value already set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
