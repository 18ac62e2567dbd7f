"""Pin the BLAS thread count and describe the numerical environment.

``pin_threads`` must run before numpy is first imported: OpenBLAS reads its
thread count once, when the library loads.  One thread keeps the timings
steady on a shared machine and makes every reduction order, and with it
every relative error the checks report, repeat exactly from run to run.
"""

from __future__ import annotations

import os
import platform

THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    for name in THREAD_VARIABLES:
        os.environ[name] = str(THREADS)


def _blas_version(config: dict) -> str:
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"


def describe() -> dict:
    """nproc, interpreter and library versions, and the thread setting."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(numpy.__config__.CONFIG),
        "scipy_blas": _blas_version(scipy.__config__.CONFIG),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }
