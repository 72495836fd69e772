"""BLAS runs on one thread in the test suite, as it does in CI and perfbench.

OpenBLAS reads its thread count once, when numpy loads it, so this runs
before any test module imports numpy.  A threaded BLAS competes for the
cores with the worker thread that runs training chunks, and its weight
gradients differ in the last bits from one thread's.  A value already set
is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
