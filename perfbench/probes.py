"""Reported-only accuracy probes and the environment block.

The probes measure two known defects of the exact oracles. They never fail a
run: they report a number so that a fix shows up as a change in it.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

from workloads import ETA_TOL

SELFLOOP_DELTAS = (0.1, 0.5)
STATIONARY_CAPS = (50, 100, 150, 200, 300, 400)


def accuracy_probes():
    from gossiptd import chain, harness
    from gossiptd.errors import NumericalError

    spec = harness.QueueSpec()
    model = harness.build_queue_chain(spec)
    J = chain.basic_differential_value(model, chain.stationary_distribution(model))
    invariance = 0.0
    for delta in SELFLOOP_DELTAS:
        looped = chain.add_self_loops(model, delta)
        J2 = chain.basic_differential_value(looped, chain.stationary_distribution(looped))
        invariance = max(invariance, float(np.max(np.abs((1.0 - delta) * J2 - J))))

    ratio = (spec.p_arrival * (1 - spec.p_departure)) / (
        (1 - spec.p_arrival) * spec.p_departure
    )
    max_cap = 0
    for cap in STATIONARY_CAPS:
        closed = ratio ** np.arange(cap + 1)
        closed /= closed.sum()
        cap_model = harness.build_queue_chain(harness.QueueSpec(cap=cap))
        try:
            eta = chain.stationary_distribution(cap_model).eta
        except NumericalError:
            continue
        if np.max(np.abs(eta - closed)) <= ETA_TOL:
            max_cap = cap
    return {
        "chain.selfloop_invariance_err": invariance,
        "chain.stationary_max_cap": max_cap,
    }


def _blas_libraries():
    """(file, config, threads) of each OpenBLAS bundled with numpy and scipy."""
    import scipy

    found = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            info = {"library": path.name}
            for key, stem in (("config", "get_config"), ("threads", "get_num_threads")):
                for name in (f"scipy_openblas_{stem}64_", f"scipy_openblas_{stem}", f"openblas_{stem}"):
                    fn = getattr(lib, name, None)
                    if fn is not None:
                        fn.restype = ctypes.c_char_p if key == "config" else ctypes.c_int
                        value = fn()
                        info[key] = value.decode() if key == "config" else value
                        break
            found.append(info)
    return found


def environment():
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
    }
