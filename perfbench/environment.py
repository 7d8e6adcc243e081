"""The numerical environment a result was measured in."""

import ctypes
import os
import platform
import sys


def _blas_libraries():
    """OpenBLAS builds loaded in this process, with their thread counts."""
    libs = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    except OSError:
        return libs
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            try:
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            except AttributeError:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            entry["threads"] = get_threads()
            entry["config"] = get_config().decode()
            break
        libs.append(entry)
    return libs


def numeric_environment():
    """nproc, interpreter and library versions, BLAS builds and threads."""
    import numpy
    import scipy
    import scipy.sparse.linalg  # noqa: F401  (loads scipy's own BLAS)

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
        "blas_thread_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
    }
