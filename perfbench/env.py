"""Process settings the benchmark fixes before numpy is first imported."""

from __future__ import annotations

import os
import sys

__all__ = ["pin_threads"]

_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """Run BLAS single-threaded: steadier timings on a shared host, and
    summation orders that match the committed output digests."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() must run before numpy is imported")
    for name in _THREAD_VARIABLES:
        os.environ[name] = "1"
