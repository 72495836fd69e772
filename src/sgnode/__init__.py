"""Continuous subgrid-source learning through differentiable explicit Runge-Kutta solvers.

Importing the package pins BLAS to one thread before numpy loads it, whatever
the caller set, since a threaded BLAS rounds weight gradients differently;
where numpy was loaded first, the setting cannot take effect.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

__version__ = "0.1.0"
