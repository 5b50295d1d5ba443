"""Test-session setup shared by tests/ and perfbench/tests/.

BLAS and OpenMP pools are pinned to one thread before numpy is imported.
The networks multiply row stacks, which OpenBLAS would otherwise spread
over one thread per core; the acceptance desk runs train two at a time in
worker processes, and idle spinning BLAS threads then compete with the
other worker.  Worker processes inherit the setting.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
