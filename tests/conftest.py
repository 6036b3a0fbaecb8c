"""Test-session set-up: one BLAS thread.

Some results (which sweep fits raise, the last bits of a basis) depend on
the BLAS thread count, so every test runs on one thread whatever the
machine's default.  The variables are read when numpy is first imported,
which is after pytest imports this file and before any test module.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
