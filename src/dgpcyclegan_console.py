"""The `dgpcyclegan` console command: the CLI with one BLAS thread by default.

The desk networks are too small to gain from more than one BLAS thread, and
OpenBLAS's default of one thread per core makes a run slower.  numpy's BLAS
reads its thread count once, when numpy is first imported, and the
dgpcyclegan package imports numpy; so this module lives outside the package
and sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1,
unless they are already set, before it imports the CLI.  Importing the
dgpcyclegan package itself leaves them alone.

    python -m dgpcyclegan_console train --config run.cfg --out results/
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def entrypoint() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    from dgpcyclegan.cli import entrypoint as cli_entrypoint

    cli_entrypoint()


if __name__ == "__main__":
    entrypoint()
