"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts.  On the two-core
reference host, twelve identical Weyl products took anywhere from 1.7 s to
3.3 s within one process, with CPU time equal to wall time, so neither
longer runs nor CPU time remove the drift.  A fixed kernel of the same kind
of work as the package's inner loops (Fraction arithmetic on dict entries)
tracks it: the ratio of product time to kernel time varied about four
times less than the product time itself.

So every timed operation runs between two runs of `kernel_seconds()`, and
the benchmark reports its time scaled by `REFERENCE_S` over their mean: the
time it would have taken at the reference host's speed.  Kernels on both
sides cut the per-operation spread of a single kernel before it by about
40%.  The kernel uses only the standard library and runs with the garbage
collector off, so no change to the package moves it.
"""

import gc
import time
from fractions import Fraction

# Median wall time of `kernel_seconds()` on the reference host (2 cores,
# CPython 3.11.7).  It fixes the unit of every scaled time.
REFERENCE_S = 0.0035


def _kernel() -> Fraction:
    acc = {}
    x = Fraction(3, 7)
    for i in range(300):
        key = (i * 7 % 23, i % 3)
        acc[key] = acc.get(key, Fraction(0)) + x * Fraction(i + 1, 13)
        x = x * Fraction(5, 3) - Fraction(i, 11)
        if x.denominator > 10 ** 30:
            x = Fraction(3, 7)
    return sum(acc.values())


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel, with the collector off.

    Right after an operation its garbage and its collector counts are still
    there; a collection inside the kernel would charge the package's
    allocations to the kernel and so to the scale factor.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, kernel_s: float) -> float:
    """`seconds` measured next to a kernel run of `kernel_s`, at reference speed."""
    return seconds * REFERENCE_S / kernel_s
