"""Set-up probe: import the CLI and load a config, then report when done.

usage: python probe.py CONFIG.json

Prints one JSON object: `ready` (CLOCK_MONOTONIC when `import
magweyl.cli` and `load_config` have returned, comparable with the
parent's clock), the path the CLI module was imported from, and the
environment record.  Only `sys` and `time` are imported before `ready`.
"""

import sys
import time

_THREAD_QUERIES = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")


def blas_threads() -> int:
    """Largest thread count reported by any OpenBLAS loaded in this process.

    numpy and scipy each bundle their own OpenBLAS; both are queried.
    Returns 0 when no loaded BLAS answers.
    """
    import ctypes
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    counts = [0]
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in _THREAD_QUERIES:
            query = getattr(lib, sym, None)
            if query is not None:
                query.restype = ctypes.c_int
                counts.append(query())
                break
    return max(counts)


def environment() -> dict:
    import os
    import platform

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def main(config_path: str):
    import magweyl.cli
    magweyl.cli.load_config(config_path)
    ready = time.monotonic()
    import json
    print(json.dumps({"ready": ready, "module": magweyl.cli.__file__, **environment()}))


if __name__ == "__main__":
    main(sys.argv[1])
