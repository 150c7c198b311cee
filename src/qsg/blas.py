"""One OpenBLAS thread per process.

qsg's linear algebra is many small SVDs and least-squares solves, for which
OpenBLAS threads cost more than they give; a threaded kernel can also change
the last digits of a result with the thread count, and with them the report.
numpy and scipy wheels each bundle their own OpenBLAS, so each copy is
pinned: numpy's when ``qsg`` loads, scipy's once the synthesizer has imported
``scipy.linalg`` (never earlier, so ``check`` stays scipy-free).
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
            "openblas_set_num_threads64_", "openblas_set_num_threads")


@functools.cache
def pin_one_thread(package) -> bool:
    """Set the OpenBLAS that the imported ``package`` (numpy or scipy)
    bundles in ``<package>.libs`` to one thread, once per process; returns
    whether a setter ran.  Builds without a bundled OpenBLAS, or whose
    library exports none of the setters, are left as they are."""
    site = os.path.dirname(os.path.dirname(package.__file__))
    for path in sorted(glob.glob(os.path.join(site, f"{package.__name__}.libs", "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _SETTERS:
            setter = getattr(lib, sym, None)
            if setter is not None:
                setter(1)
                return True
    return False
