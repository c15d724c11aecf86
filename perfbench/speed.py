"""Machine-speed reference for timings taken on a shared machine.

On the shared 2-vCPU virtual machine this benchmark was written on, the
speed of identical work drifts by 10-40% between runs minutes apart (the
import of the package, which does not depend on the seed, spread 22% over
five runs).  Every timed item is therefore bracketed by a fixed reference
kernel, and its wall time is scaled by

    NOMINAL_S / mean(reference time before, reference time after)

so that it reads in seconds at the speed where the kernel takes NOMINAL_S,
its typical time on that machine.  The raw wall times are reported beside
the scaled ones.  The kernel is single-threaded, like most of the
program's time: interpreted arithmetic and small numpy and LAPACK calls.
A variant with a tall matrix-vector product, which OpenBLAS spreads over
two threads, followed the interpolate workload better but widened the
spread of the feasibility timings to 17-32% over ten runs.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 2.5e-3
_MATRIX = np.random.default_rng(0).normal(size=(6, 6))
_MATRIX = _MATRIX + _MATRIX.T


def kernel() -> float:
    acc = 0.0
    for i in range(60):
        m = _MATRIX * (1.0 + i * 1e-3)
        acc += np.linalg.eigvalsh(m)[0] + float((m @ m).sum())
        for k in range(200):
            acc += k * 0.5
    return acc


def reference() -> float:
    """Best of three timings of the reference kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to seconds at nominal speed."""
    return NOMINAL_S / (0.5 * (before + after))
