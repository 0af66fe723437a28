"""Host-speed reference: op times reported at a fixed host speed.

The shared host the benchmark was written on changes speed by 20-40% over
seconds to minutes, so a raw op time measures the host as much as the
program. The benchmark therefore times a fixed reference kernel, which does
not touch ``gossiptd``, right before and right after every op, and scales
the op time by the kernel's nominal time over the mean of the two. Each
workload uses the kernel that tracks its hot path best (see ``NOTES.md``):
a pure-Python loop for the interpreter-bound simulations, a boolean matrix
product for the oracle, whose time goes to boolean matrix powers.
"""

from __future__ import annotations

import time

import numpy as np

REPEATS = 2
# Median time of each kernel on the 2-core host the benchmark was written on.
NOMINAL_S = {"python": 0.016, "bool-matmul": 0.036}
_ADJACENCY = np.random.default_rng(0).random((363, 363)) < 0.01


def _python():
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return total


def _bool_matmul():
    return _ADJACENCY @ _ADJACENCY


KERNELS = {"python": _python, "bool-matmul": _bool_matmul}


def reference(kernel: str) -> float:
    """Seconds the named kernel takes now: the fastest of ``REPEATS`` runs,
    so that a preemption during one run does not read as a slow host."""
    run = KERNELS[kernel]
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def adjust(seconds: float, kernel: str, ref_before: float, ref_after: float) -> float:
    """``seconds`` scaled to the host speed at which the kernel takes its
    nominal time."""
    return seconds * NOMINAL_S[kernel] / (0.5 * (ref_before + ref_after))
