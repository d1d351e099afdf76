"""Run the test suite at the benchmark's BLAS setting: one thread.

The variables are read when OpenBLAS loads, that is when numpy is first
imported, so they are set here, before any test module imports it. A value
already in the environment wins. Tests that compare BLAS thread counts set
OPENBLAS_NUM_THREADS for each subprocess they start.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
